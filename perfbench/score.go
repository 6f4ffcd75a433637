package main

import (
	"context"
	"fmt"
	"math"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/sqltypes"
	"repro/internal/sqlgen"
	"repro/internal/synth"
)

// Sizes of the score workload at scale 1 (the paper's Table 4 uses
// d=32 and k=16).
const (
	scoreRows = 20_000
	scoreDims = 32
	scoreK    = 16
	// sampleEvery picks the rows whose scores are checked client-side.
	sampleEvery = 97
)

// scoreBench is batch scoring: each client cycles the three compiled
// UDF scorers and the paper's interpreted-SQL regression scoring, each
// rewriting a full output table of its own.
type scoreBench struct {
	sdb    *statsudf.DB
	eng    *db.DB
	dbDir  string
	dims   []string
	gen    synth.Config
	n      int64
	lr     *core.LinRegModel
	pca    *core.PCAModel
	km     *core.KMeansModel
	sample map[int64][]float64
}

func setupScore(ctx context.Context, cfg config, dir string) (bench, setupStats, error) {
	var st setupStats
	sdb, err := statsudf.Open(statsudf.Options{Dir: dir})
	if err != nil {
		return nil, st, err
	}
	b := &scoreBench{sdb: sdb, eng: sdb.Engine(), dbDir: dir, dims: sqlgen.Dims(scoreDims), sample: map[int64][]float64{}}
	b.gen = synth.Config{N: scaled(scoreRows, cfg.scale), D: scoreDims, Seed: cfg.seed}
	load, err := loadTable(b.eng, "x", b.gen, true)
	if err != nil {
		return b, st, err
	}
	b.n = int64(b.gen.N)
	st.loadNsPerRow = float64(load.Nanoseconds()) / float64(b.n)
	err = synth.Stream(b.gen, func(i int64, x []float64) error {
		if i%sampleEvery == 0 {
			b.sample[i] = append([]float64(nil), x...)
		}
		return nil
	})
	if err != nil {
		return b, st, err
	}

	// Train and store the three models, then score with what the
	// engine reads back.
	lr, err := sdb.LinearRegression("x", b.dims, "Y")
	if err != nil {
		return b, st, err
	}
	if err := sdb.StoreRegression("beta", lr); err != nil {
		return b, st, err
	}
	pca, err := sdb.PCA("x", b.dims, scoreK, core.CorrelationBasis)
	if err != nil {
		return b, st, err
	}
	if err := sdb.StorePCA("mu", "lambda", pca); err != nil {
		return b, st, err
	}
	km, err := sdb.KMeans("x", b.dims, scoreK, core.KMeansOptions{MaxIters: 2, Seed: cfg.seed})
	if err != nil {
		return b, st, err
	}
	if err := sdb.StoreKMeans("c", "r", "w", km); err != nil {
		return b, st, err
	}
	if b.lr, err = sdb.LoadRegression("beta"); err != nil {
		return b, st, err
	}
	if b.pca, err = sdb.LoadPCA("mu", "lambda"); err != nil {
		return b, st, err
	}
	if b.km, err = sdb.LoadKMeans("c", "r", "w"); err != nil {
		return b, st, err
	}
	// Warm-up: each kind of op once, checked like any other.
	for _, k := range []int64{0, 1, 3, 7} {
		o := b.next(0, k)
		if _, err := o.fn(&opCtx{ctx: ctx}); err != nil {
			return b, st, fmt.Errorf("warm-up %s: %w", o.name, err)
		}
	}
	return b, st, nil
}

func (b *scoreBench) cycleLen() int          { return len(scoreMix) }
func (b *scoreBench) headline() string       { return "score.reg" }
func (b *scoreBench) statementClass() string { return "score.reg" }
func (b *scoreBench) engine() *db.DB         { return b.eng }
func (b *scoreBench) dir() string            { return b.dbDir }
func (b *scoreBench) close() error           { return b.sdb.Close() }

// scoreMix is one client's cycle: UDF regression scoring (the
// headline, so it gets enough samples for a tail), the interpreted-SQL
// regression scoring, and one each of PCA and K-means UDF scoring.
var scoreMix = []string{"reg", "sql", "reg", "pca", "reg", "sql", "reg", "kmeans"}

// next returns client c's k-th scoring op.
func (b *scoreBench) next(c int, k int64) op {
	switch scoreMix[k%int64(len(scoreMix))] {
	case "reg":
		dst := fmt.Sprintf("sr%d", c)
		return b.scoreOp("score.reg", dst, func() (int64, error) {
			return b.sdb.ScoreRegression("x", "i", b.dims, "beta", dst)
		}, func(i int64, r sqltypes.Row) error { return b.checkReg(dst, i, r) })
	case "pca":
		dst := fmt.Sprintf("sp%d", c)
		return b.scoreOp("score.pca", dst, func() (int64, error) {
			return b.sdb.ScorePCA("x", "i", b.dims, "mu", "lambda", dst, scoreK)
		}, func(i int64, r sqltypes.Row) error {
			want, err := b.pca.Score(b.sample[i])
			if err != nil {
				return err
			}
			for j, w := range want {
				if got, _ := r[j+1].Float(); !near(got, w, 1e-9) {
					return checkf("%s: row %d p%d = %v, want %v", dst, i, j+1, got, w)
				}
			}
			return nil
		})
	case "kmeans":
		dst := fmt.Sprintf("sk%d", c)
		return b.scoreOp("score.kmeans", dst, func() (int64, error) {
			return b.sdb.ScoreKMeans("x", "i", b.dims, "c", dst, scoreK)
		}, func(i int64, r sqltypes.Row) error {
			want, _ := b.km.Closest(b.sample[i])
			got, _ := r[1].Float()
			if int(got) != want+1 && !b.tied(b.sample[i], int(got)-1, want) {
				return checkf("%s: row %d in cluster %v, want %d", dst, i, got, want+1)
			}
			return nil
		})
	default:
		dst := fmt.Sprintf("sq%d", c)
		return b.scoreOp("score.sql", dst, func() (int64, error) {
			if b.eng.HasTable(dst) {
				if err := b.eng.DropTable(dst); err != nil {
					return 0, err
				}
			}
			if _, err := b.eng.Exec(fmt.Sprintf("CREATE TABLE %s (i BIGINT, yhat DOUBLE)", dst)); err != nil {
				return 0, err
			}
			res, err := b.eng.Exec(fmt.Sprintf("INSERT INTO %s %s", dst, sqlgen.RegScoreSQL("x", "beta", "i", b.dims)))
			if err != nil {
				return 0, err
			}
			return res.Affected, nil
		}, func(i int64, r sqltypes.Row) error { return b.checkReg(dst, i, r) })
	}
}

func (b *scoreBench) checkReg(dst string, i int64, r sqltypes.Row) error {
	want, err := b.lr.Predict(b.sample[i])
	if err != nil {
		return err
	}
	if got, _ := r[1].Float(); !near(got, want, 1e-9) {
		return checkf("%s: row %d yhat = %v, want %v", dst, i, got, want)
	}
	return nil
}

// tied reports whether centroids a and b are equally near x within
// rounding, where either answer is right.
func (b *scoreBench) tied(x []float64, a, c int) bool {
	if a < 0 || a >= len(b.km.C) {
		return false
	}
	da, dc := 0.0, 0.0
	for j, v := range x {
		da += (v - b.km.C[a][j]) * (v - b.km.C[a][j])
		dc += (v - b.km.C[c][j]) * (v - b.km.C[c][j])
	}
	return math.Abs(da-dc) <= 1e-9*math.Max(da, dc)
}

// scoreOp runs one scoring call, then checks the output table: one row
// per input row, keyed by i, with the sampled rows' scores equal to
// the client-side model's. Rows are matched by key, never by position.
func (b *scoreBench) scoreOp(name, dst string, score func() (int64, error), check func(i int64, r sqltypes.Row) error) op {
	return op{class: name, name: name, fn: func(o *opCtx) (int64, error) {
		var n int64
		err := o.call("statsudf."+name, func() error {
			var err error
			n, err = score()
			return err
		})
		if err != nil {
			return 0, err
		}
		if o.tr != nil {
			o.graft(statsOfPrefix(b.eng, "INSERT INTO "+dst+" "))
		}
		if n != b.n {
			return 0, checkf("%s scored %d rows, want %d", dst, n, b.n)
		}
		t, err := b.eng.Table(dst)
		if err != nil {
			return 0, err
		}
		var rows, checked int64
		err = t.ScanContext(o.ctx, func(r sqltypes.Row) error {
			rows++
			i := r[0].Int()
			if _, ok := b.sample[i]; !ok {
				return nil
			}
			checked++
			return check(i, r)
		})
		if err != nil {
			return 0, err
		}
		if rows != b.n || checked != int64(len(b.sample)) {
			return 0, checkf("%s holds %d rows (%d sampled), want %d (%d)", dst, rows, checked, b.n, len(b.sample))
		}
		return n, nil
	}}
}

func (b *scoreBench) finish(ctx context.Context, rep *report) error { return nil }

func (b *scoreBench) probe(ctx context.Context, rep *report) error {
	return probeLayers(ctx, b.eng, probeInput{
		table: "x",
		cols:  b.dims,
		expr:  literalRegression(b.lr.Beta, b.dims),
		sql:   sqlgen.RegScoreSQL("x", "beta", "i", b.dims),
		gen:   b.gen,
		wire:  true,
	}, rep)
}
