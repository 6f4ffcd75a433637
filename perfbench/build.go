package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqltypes"
	"repro/internal/matrix"
	"repro/internal/sqlgen"
	"repro/internal/synth"
)

// Sizes of the build workloads at scale 1: one table per client, so
// one client's cache invalidation never races another's build.
const (
	buildRows = 400_000
	buildDims = 16
	pcaK      = 4
)

// buildBench is the analyst's cold model build (build-row, build-col):
// each cycle runs three cold builds through the public API, one
// nlq_list summary and one filtered projection streamed to a discard
// sink.
type buildBench struct {
	sdb      *statsudf.DB
	eng      *db.DB
	dbDir    string
	columnar bool
	cols     []string
	gen      []synth.Config
	ref      []buildRef
}

// buildRef is one table's expected outputs, computed once at set-up
// from a storage scan plus core.NLQ.Update.
type buildRef struct {
	table   string
	nlq     *core.NLQ
	corr    *core.CorrelationModel
	linreg  *core.LinRegModel
	pca     *core.PCAModel
	projN   int64
	projSum float64
}

func setupBuild(columnar bool) func(ctx context.Context, cfg config, dir string) (bench, setupStats, error) {
	return func(ctx context.Context, cfg config, dir string) (bench, setupStats, error) {
		var st setupStats
		sdb, err := statsudf.Open(statsudf.Options{Dir: dir, Columnar: columnar})
		if err != nil {
			return nil, st, err
		}
		b := &buildBench{sdb: sdb, eng: sdb.Engine(), dbDir: dir, columnar: columnar, cols: sqlgen.Dims(buildDims)}
		var loadNs, rows float64
		for c := 0; c < cfg.clients; c++ {
			gen := synth.Config{N: scaled(buildRows, cfg.scale), D: buildDims, Seed: cfg.seed*1000 + int64(c)}
			table := fmt.Sprintf("x%d", c)
			d, err := loadTable(b.eng, table, gen, false)
			if err != nil {
				return b, st, err
			}
			loadNs += float64(d.Nanoseconds())
			rows += float64(gen.N)
			ref, err := b.reference(ctx, table)
			if err != nil {
				return b, st, err
			}
			b.gen = append(b.gen, gen)
			b.ref = append(b.ref, ref)
		}
		st.loadNsPerRow = loadNs / rows
		if columnar {
			for _, r := range b.ref {
				t, err := b.eng.Table(r.table)
				if err != nil {
					return b, st, err
				}
				if err := t.EnsureSegments(); err != nil {
					return b, st, err
				}
			}
		}
		// Warm-up: one of each op per client, checked like any other.
		for c := range b.ref {
			for k := int64(0); k < 5; k++ {
				o := b.next(c, k)
				if _, err := o.fn(&opCtx{ctx: ctx}); err != nil {
					return b, st, fmt.Errorf("warm-up %s: %w", o.name, err)
				}
			}
		}
		return b, st, nil
	}
}

// reference scans the table through storage and folds every row with
// core.NLQ.Update, one partial per partition merged in partition
// order, and derives the expected models and projection figures.
func (b *buildBench) reference(ctx context.Context, table string) (buildRef, error) {
	ref := buildRef{table: table}
	t, err := b.eng.Table(table)
	if err != nil {
		return ref, err
	}
	idx := make([]int, len(b.cols))
	for i, c := range b.cols {
		idx[i] = t.Schema().Index(c)
	}
	x1, x2, x3 := idx[0], idx[1], idx[2]
	ref.nlq = core.MustNLQ(len(b.cols), core.Triangular)
	x := make([]float64, len(b.cols))
	for p := 0; p < t.Partitions(); p++ {
		part := core.MustNLQ(len(b.cols), core.Triangular)
		err := t.ScanPartition(ctx, p, func(r sqltypes.Row) error {
			for i, j := range idx {
				x[i], _ = r[j].Float()
			}
			if x3v, _ := r[x3].Float(); x3v > 0 {
				a, _ := r[x1].Float()
				c, _ := r[x2].Float()
				ref.projN++
				ref.projSum += a + c
			}
			return part.Update(x)
		})
		if err != nil {
			return ref, err
		}
		if err := ref.nlq.Merge(part); err != nil {
			return ref, err
		}
	}
	if ref.corr, err = core.BuildCorrelation(ref.nlq); err != nil {
		return ref, err
	}
	if ref.linreg, err = core.BuildLinReg(ref.nlq); err != nil {
		return ref, err
	}
	if ref.pca, err = core.BuildPCA(ref.nlq, pcaK, core.CorrelationBasis); err != nil {
		return ref, err
	}
	return ref, nil
}

func (b *buildBench) cycleLen() int          { return 5 }
func (b *buildBench) headline() string       { return "build" }
func (b *buildBench) statementClass() string { return "summary" }
func (b *buildBench) engine() *db.DB         { return b.eng }
func (b *buildBench) dir() string            { return b.dbDir }
func (b *buildBench) close() error           { return b.sdb.Close() }

// next cycles corr, linreg, pca, summary, project.
func (b *buildBench) next(c int, k int64) op {
	ref := &b.ref[c]
	switch k % 5 {
	case 0:
		return b.coldBuild(ref, "build.corr", func() error {
			m, err := b.sdb.Correlation(ref.table, b.cols)
			if err != nil {
				return err
			}
			if m.N != ref.nlq.N || !sameDense(m.Rho, ref.corr.Rho) {
				return checkf("%s: correlation (n=%v) differs from the reference (n=%v)", ref.table, m.N, ref.nlq.N)
			}
			return nil
		})
	case 1:
		return b.coldBuild(ref, "build.linreg", func() error {
			m, err := b.sdb.LinearRegression(ref.table, b.cols[:len(b.cols)-1], b.cols[len(b.cols)-1])
			if err != nil {
				return err
			}
			if m.N != ref.nlq.N || !sameFloats(m.Beta, ref.linreg.Beta) {
				return checkf("%s: regression (n=%v) differs from the reference (n=%v)", ref.table, m.N, ref.nlq.N)
			}
			return nil
		})
	case 2:
		return b.coldBuild(ref, "build.pca", func() error {
			m, err := b.sdb.PCA(ref.table, b.cols, pcaK, core.CorrelationBasis)
			if err != nil {
				return err
			}
			if !sameDense(m.Lambda, ref.pca.Lambda) || !sameFloats(m.Eigen, ref.pca.Eigen) {
				return checkf("%s: PCA differs from the reference", ref.table)
			}
			return nil
		})
	case 3:
		return op{class: "summary", name: "summary.nlq_list", fn: func(o *opCtx) (int64, error) {
			var s *core.NLQ
			err := o.call("statsudf.Summary", func() error {
				var err error
				s, err = b.sdb.Summary(ref.table, b.cols, statsudf.SummaryOptions{Method: statsudf.ViaUDF, Matrix: core.Triangular})
				return err
			})
			if err != nil {
				return 0, err
			}
			if o.tr != nil {
				o.graft(statsOfPrefix(b.eng, sqlgen.NLQUDFQuery(ref.table, b.cols, core.Triangular, sqlgen.ListStyle)))
			}
			if !sameNLQ(s, ref.nlq) {
				return 0, checkf("%s: nlq_list summary differs from the reference", ref.table)
			}
			return int64(s.N), nil
		}}
	default:
		return op{class: "project", name: "project", fn: func(o *opCtx) (int64, error) {
			sql := fmt.Sprintf("SELECT X1 + X2 FROM %s WHERE X3 > 0", ref.table)
			var n int64
			var sum float64
			var mu sync.Mutex
			err := o.call("db.QueryStreamContext", func() error {
				_, st, err := b.eng.QueryStreamContext(o.ctx, sql, func(r sqltypes.Row) error {
					v, _ := r[0].Float()
					mu.Lock()
					n++
					sum += v
					mu.Unlock()
					return nil
				})
				o.stats = st
				return err
			})
			if err != nil {
				return 0, err
			}
			o.graft(o.stats)
			if n != ref.projN || !near(sum, ref.projSum, 1e-9) {
				return 0, checkf("%s: projection gave %d rows (sum %v), want %d (sum %v)", ref.table, n, sum, ref.projN, ref.projSum)
			}
			return n, nil
		}}
	}
}

// coldBuild wraps one model build: invalidate the table's summaries,
// then build through the public API, which must rescan.
func (b *buildBench) coldBuild(ref *buildRef, name string, build func() error) op {
	return op{class: "build", name: name, fn: func(o *opCtx) (int64, error) {
		if err := o.call("db.InvalidateSummaries", func() error {
			b.eng.InvalidateSummaries(ref.table)
			return nil
		}); err != nil {
			return 0, err
		}
		if err := o.call("statsudf."+name[len("build."):], build); err != nil {
			return 0, err
		}
		return int64(ref.nlq.N), nil
	}}
}

func (b *buildBench) finish(ctx context.Context, rep *report) error {
	for _, ref := range b.ref {
		t, err := b.eng.Table(ref.table)
		if err != nil {
			return err
		}
		if t.NumRows() != int64(ref.nlq.N) {
			rep.fail(checkf("%s holds %d rows, reference n=%v", ref.table, t.NumRows(), ref.nlq.N))
		}
	}
	return nil
}

func (b *buildBench) probe(ctx context.Context, rep *report) error {
	ref := b.ref[0]
	return probeLayers(ctx, b.eng, probeInput{
		table:    ref.table,
		cols:     b.cols,
		expr:     "X1 + X2",
		sql:      fmt.Sprintf("SELECT X1 + X2 FROM %s WHERE X3 > 0", ref.table),
		columnar: b.columnar,
		gen:      b.gen[0],
		wire:     true,
	}, rep)
}

// loadTable creates table and bulk-loads the generated rows, optionally
// with a planted regression target Y; it returns the time spent in the
// BulkLoader (Add and Close), excluding generation.
func loadTable(d *db.DB, table string, gen synth.Config, withY bool) (time.Duration, error) {
	t, err := d.CreateTable(table, synth.XSchema(gen.D, withY))
	if err != nil {
		return 0, err
	}
	bl, err := t.NewBulkLoader()
	if err != nil {
		return 0, err
	}
	const chunk = 4096
	width := gen.D + 1
	if withY {
		width++
	}
	buf := make([]sqltypes.Row, 0, chunk)
	var load time.Duration
	flush := func() error {
		t0 := time.Now()
		defer func() { load += time.Since(t0) }()
		for _, r := range buf {
			if err := bl.Add(r); err != nil {
				return err
			}
		}
		buf = buf[:0]
		return nil
	}
	rows := make([]sqltypes.Row, chunk)
	for i := range rows {
		rows[i] = make(sqltypes.Row, width)
	}
	err = synth.Stream(gen, func(i int64, x []float64) error {
		r := rows[len(buf)]
		r[0] = sqltypes.NewBigInt(i)
		y := 10.0
		for a, v := range x {
			r[a+1] = sqltypes.NewDouble(v)
			y += plantedBeta(a) * v
		}
		if withY {
			// Deterministic noise keeps the fit non-degenerate.
			r[gen.D+1] = sqltypes.NewDouble(y + 5*math.Sin(float64(i)))
		}
		buf = append(buf, r)
		if len(buf) == chunk {
			return flush()
		}
		return nil
	})
	if err == nil {
		err = flush()
	}
	t0 := time.Now()
	if cerr := bl.Close(); err == nil {
		err = cerr
	}
	load += time.Since(t0)
	return load, err
}

// plantedBeta is the regression coefficient of dimension a.
func plantedBeta(a int) float64 { return float64(a%5) - 2 }

func scaled(n int, scale float64) int { return max(64, int(float64(n)*scale)) }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameDense(a, b *matrix.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		if !sameFloats(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}

// statsOfPrefix returns the executor Stats of the newest recorded
// statement whose text starts with prefix. With concurrent clients
// LastStats may belong to another client's statement, so the query
// ring is searched by text; each client's statements name its own
// table.
func statsOfPrefix(d *db.DB, prefix string) *exec.Stats {
	for _, q := range d.RecentQueries() {
		if strings.HasPrefix(q.SQL, prefix) {
			return q.Stats
		}
	}
	return nil
}

// sameNLQ reports bit-identical summaries.
func sameNLQ(a, b *core.NLQ) bool {
	return a.D == b.D && a.Type == b.Type && a.N == b.N && sameFloats(a.L, b.L) && sameFloats(a.Q, b.Q)
}

// near reports |a-b| within rel of max(|a|, |b|, 1).
func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
