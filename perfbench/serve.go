package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	statsudf "repro"
	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqltypes"
	"repro/internal/server"
	"repro/internal/sqlgen"
	"repro/internal/synth"
	"repro/pkg/client"
)

// Sizes of the serve workload at scale 1. XS stays small so its scan
// does not hide the statement path.
const (
	serveRows   = 1_000
	serveDims   = 32
	eventRows   = 5_000
	eventDims   = 8
	appendBatch = 10
)

// serveMix is one client's 20-op cycle: 14 prepared point scores, 3
// ad-hoc point scores, 2 appends of 10 rows to E and 1 warm model
// build.
var serveMix = func() []string {
	m := make([]string, 20)
	for i := range m {
		m[i] = "point"
	}
	m[0] = "build"
	m[5], m[15] = "append", "append"
	m[3], m[10], m[17] = "adhoc", "adhoc", "adhoc"
	return m
}()

// serveBench is the application's point scoring over the wire: an
// in-process server on loopback and a client pool with one connection
// per client goroutine.
type serveBench struct {
	sdb   *statsudf.DB
	eng   *db.DB
	dbDir string
	seed  int64
	dims  []string
	ecols []string
	gen   synth.Config
	xs    [][]float64
	lr    *core.LinRegModel
	srv   *server.Server
	pool  *client.Pool
	stmt  *client.Stmt
	base  string

	eventsLoaded int64
	// appendsStarted/appendsDone count rows whose INSERT was sent /
	// acknowledged; a concurrent summary's n lies between them.
	appendsStarted atomic.Int64
	appendsDone    atomic.Int64
	nextID         atomic.Int64
}

func setupServe(ctx context.Context, cfg config, dir string) (bench, setupStats, error) {
	var st setupStats
	sdb, err := statsudf.Open(statsudf.Options{Dir: dir})
	if err != nil {
		return nil, st, err
	}
	b := &serveBench{sdb: sdb, eng: sdb.Engine(), dbDir: dir, seed: cfg.seed, dims: sqlgen.Dims(serveDims), ecols: sqlgen.Dims(eventDims)}
	b.gen = synth.Config{N: scaled(serveRows, cfg.scale), D: serveDims, Seed: cfg.seed}
	load, err := loadTable(b.eng, "xs", b.gen, true)
	if err != nil {
		return b, st, err
	}
	egen := synth.Config{N: scaled(eventRows, cfg.scale), D: eventDims, Seed: cfg.seed + 1}
	eload, err := loadTable(b.eng, "e", egen, false)
	if err != nil {
		return b, st, err
	}
	b.eventsLoaded = int64(egen.N)
	b.nextID.Store(b.eventsLoaded)
	st.loadNsPerRow = float64((load + eload).Nanoseconds()) / float64(b.gen.N+egen.N)
	if b.xs, err = synth.Points(b.gen); err != nil {
		return b, st, err
	}
	lr, err := sdb.LinearRegression("xs", b.dims, "Y")
	if err != nil {
		return b, st, err
	}
	if err := sdb.StoreRegression("beta", lr); err != nil {
		return b, st, err
	}
	if b.lr, err = sdb.LoadRegression("beta"); err != nil {
		return b, st, err
	}

	b.srv = server.New(b.eng, server.Config{Addr: "127.0.0.1:0"})
	if err := b.srv.Start(); err != nil {
		return b, st, err
	}
	b.pool, err = client.Open(client.Config{Addr: b.srv.Addr(), User: "perfbench", PoolSize: cfg.clients})
	if err != nil {
		return b, st, err
	}
	b.base = sqlgen.RegScoreUDF("xs", "beta", "i", b.dims)
	b.stmt = b.pool.Prepare(b.base + " WHERE xs.i = ?")
	// Warm E's summary (the one cold read) and every op kind.
	if _, _, err := b.pool.Summary(ctx, "e", b.ecols, core.Triangular); err != nil {
		return b, st, err
	}
	for c := 0; c < cfg.clients; c++ {
		for _, k := range []int64{0, 1, 3, 5} {
			o := b.next(c, k)
			if _, err := o.fn(&opCtx{ctx: ctx}); err != nil {
				return b, st, fmt.Errorf("warm-up %s: %w", o.name, err)
			}
		}
	}
	return b, st, nil
}

func (b *serveBench) cycleLen() int          { return len(serveMix) }
func (b *serveBench) headline() string       { return "point" }
func (b *serveBench) statementClass() string { return "point" }
func (b *serveBench) engine() *db.DB         { return b.eng }
func (b *serveBench) dir() string            { return b.dbDir }

func (b *serveBench) close() error {
	var err error
	if b.pool != nil {
		err = b.pool.Close()
	}
	if b.srv != nil {
		if cerr := b.srv.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := b.sdb.Close(); err == nil {
		err = cerr
	}
	return err
}

// rng is the deterministic input stream of client c's k-th op.
func (b *serveBench) rng(c int, k int64) *rand.Rand {
	return rand.New(rand.NewSource(b.seed*1_000_003 + int64(c)*7_919 + k))
}

func (b *serveBench) next(c int, k int64) op {
	r := b.rng(c, k)
	switch kind := serveMix[k%int64(len(serveMix))]; kind {
	case "point":
		key := r.Int63n(int64(len(b.xs)))
		return op{class: "point", name: "point", fn: func(o *opCtx) (int64, error) {
			return b.pointScore(o, key, "client.Stmt.Query", func() (*client.Rows, error) {
				return b.stmt.Query(o.ctx, sqltypes.NewBigInt(key))
			})
		}}
	case "adhoc":
		key := r.Int63n(int64(len(b.xs)))
		// The trailing comment makes the text unique, so neither the
		// plan cache nor a prepared handle can serve it.
		sql := fmt.Sprintf("%s WHERE xs.i = %d /* adhoc c%d k%d */", b.base, key, c, k)
		return op{class: "adhoc", name: "adhoc", fn: func(o *opCtx) (int64, error) {
			return b.pointScore(o, key, "client.Pool.Query", func() (*client.Rows, error) {
				return b.pool.Query(o.ctx, sql)
			})
		}}
	case "append":
		var sb strings.Builder
		sb.WriteString("INSERT INTO e VALUES ")
		for i := 0; i < appendBatch; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d", b.nextID.Add(1))
			for a := 0; a < eventDims; a++ {
				fmt.Fprintf(&sb, ", %s", strconv.FormatFloat(r.NormFloat64()*10+50, 'f', -1, 64))
			}
			sb.WriteString(")")
		}
		sql := sb.String()
		return op{class: "append", name: "append", fn: func(o *opCtx) (int64, error) {
			b.appendsStarted.Add(appendBatch)
			var res *client.Rows
			err := o.call("client.Pool.Exec", func() error {
				var err error
				res, err = b.pool.Exec(o.ctx, sql)
				return err
			})
			if err != nil {
				return 0, err
			}
			b.appendsDone.Add(appendBatch)
			if res.Affected != appendBatch {
				return 0, checkf("append inserted %d rows, want %d", res.Affected, appendBatch)
			}
			return appendBatch, nil
		}}
	default:
		return op{class: "build", name: "build.warm", fn: func(o *opCtx) (int64, error) {
			lo := b.eventsLoaded + b.appendsDone.Load()
			var s *core.NLQ
			err := o.call("client.Pool.Summary", func() error {
				var err error
				s, _, err = b.pool.Summary(o.ctx, "e", b.ecols, core.Triangular)
				return err
			})
			if err != nil {
				return 0, err
			}
			hi := b.eventsLoaded + b.appendsStarted.Load()
			if s.N < float64(lo) || s.N > float64(hi) {
				return 0, checkf("warm summary of e has n=%v, want within [%d, %d]", s.N, lo, hi)
			}
			var m *core.LinRegModel
			err = o.call("core.BuildLinReg", func() error {
				m, err = core.BuildLinReg(s)
				return err
			})
			if err != nil {
				return 0, err
			}
			if m.N != s.N {
				return 0, checkf("model n=%v, summary n=%v", m.N, s.N)
			}
			return 1, nil
		}}
	}
}

// pointScore runs one point scoring request and checks the reply
// against the client-side Predict(β, x).
func (b *serveBench) pointScore(o *opCtx, key int64, name string, query func() (*client.Rows, error)) (int64, error) {
	var res *client.Rows
	t0 := time.Now()
	err := o.call(name, func() error {
		var err error
		res, err = query()
		return err
	})
	rt := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if o.tr != nil {
		var st exec.Stats
		if err := json.Unmarshal([]byte(res.StatsJSON), &st); err != nil {
			return 0, fmt.Errorf("decoding stats JSON: %w", err)
		}
		o.graft(&st)
		o.wire = rt - st.Total
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != key {
		return 0, checkf("point score of i=%d returned %d rows", key, len(res.Rows))
	}
	want, err := b.lr.Predict(b.xs[key])
	if err != nil {
		return 0, err
	}
	if got, _ := res.Rows[0][1].Float(); !near(got, want, 1e-9) {
		return 0, checkf("point score of i=%d = %v, want %v", key, got, want)
	}
	return 1, nil
}

// finish checks that E's warm summary counts every appended row.
func (b *serveBench) finish(ctx context.Context, rep *report) error {
	s, _, err := b.pool.Summary(ctx, "e", b.ecols, core.Triangular)
	if err != nil {
		return err
	}
	t, err := b.eng.Table("e")
	if err != nil {
		return err
	}
	want := b.eventsLoaded + b.appendsDone.Load()
	if s.N != float64(want) || t.NumRows() != want {
		rep.fail(checkf("e has %d rows and summary n=%v after the appends, want %d", t.NumRows(), s.N, want))
	}
	return nil
}

func (b *serveBench) probe(ctx context.Context, rep *report) error {
	return probeLayers(ctx, b.eng, probeInput{
		table: "xs",
		cols:  b.dims,
		expr:  literalRegression(b.lr.Beta, b.dims),
		sql:   fmt.Sprintf("%s WHERE xs.i = %d", b.base, len(b.xs)/2),
		gen:   b.gen,
	}, rep)
}
