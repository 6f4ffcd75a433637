package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/obs"
)

// workload names one benchmark workload and how to set it up; why it
// was chosen is recorded in BENCHMARK.json.
type workload struct {
	// clients is the closed-loop client count, capped at NumCPU.
	clients int
	// setup generates and loads the inputs into a fresh database under
	// dir, trains what the operations need, and warms every lazy path,
	// so none of it is timed as an operation.
	setup func(ctx context.Context, cfg config, dir string) (bench, setupStats, error)
}

// setupStats carries layer figures measured while setting up.
type setupStats struct {
	loadNsPerRow float64 // BulkLoader Add+Close time per row
}

// bench is one set-up workload instance.
type bench interface {
	// next returns the k-th operation of client c's closed loop.
	next(c int, k int64) op
	// cycleLen is the length of a client's op mix; next(c, k) repeats
	// with period cycleLen in k.
	cycleLen() int
	// headline is the op class behind op_cpu_ms, op_p50_ms and
	// op_tail_ms.
	headline() string
	// statementClass is the op class whose executor Stats feed the
	// exec.* layer metrics.
	statementClass() string
	// finish runs the end-of-run output checks and adds the workload's
	// own end-to-end figures (rows scored, ...) to rep.
	finish(ctx context.Context, rep *report) error
	// probe feeds the workload's inputs to each layer's public
	// function alone and records the per-layer metrics.
	probe(ctx context.Context, rep *report) error
	// engine is the database under test; dir holds its files.
	engine() *db.DB
	dir() string
	close() error
}

// op is one closed-loop operation.
type op struct {
	class string
	name  string
	fn    func(o *opCtx) (rows int64, err error)
}

// errCheck marks a failed output check: the op ran but its result was
// wrong.
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// opCtx is what an operation sees: its context and, on traced runs,
// the op's root span under which it records each call into a layer.
type opCtx struct {
	ctx   context.Context
	tr    *tracer
	trace int64
	root  *span
	last  *span

	// stats is the executor's account of the op's statement, when it
	// ran one; wire is the client round trip minus the server's
	// Stats.Total for ops that went over the wire.
	stats *exec.Stats
	wire  time.Duration
}

// call runs fn as one call into a layer, inside a span when traced.
func (o *opCtx) call(name string, fn func() error) error {
	if o.tr == nil {
		return fn()
	}
	s := o.tr.begin(o.trace, o.root, name)
	err := fn()
	o.tr.end(s)
	o.last = s
	return err
}

// graft records the statement's executor Stats; traced runs hang its
// span tree under the call that ran the statement.
func (o *opCtx) graft(st *exec.Stats) {
	o.stats = st
	if o.tr != nil && st != nil && st.Root != nil && o.last != nil {
		o.tr.graft(o.trace, o.last, st.Root)
	}
}

// window is what one closed-loop drive measured.
type window struct {
	elapsed   time.Duration
	attempted int64
	failed    int64
	lat       map[string][]time.Duration
	// cpu is the process's CPU time (user and system, every thread)
	// spent during each op; with one client it is the op's own.
	cpu   map[string][]time.Duration
	rows  map[string]int64
	stats map[string][]*exec.Stats
	wire  []time.Duration
	// cycles holds the duration of every full op mix a client ran,
	// from the start of its first op to the end of its last.
	cycles   []time.Duration
	cycleCPU []time.Duration
	counters map[string]float64 // deltas between the window's first and last op boundary
	firstErr error
}

// drive runs clients closed loops for dur and returns what they did.
// An op that starts before the deadline runs to completion; elapsed
// covers the last one.
func drive(ctx context.Context, b bench, clients int, dur time.Duration, tr *tracer) (*window, error) {
	w := &window{lat: map[string][]time.Duration{}, cpu: map[string][]time.Duration{}, rows: map[string]int64{}, stats: map[string][]*exec.Stats{}}
	var mu sync.Mutex
	var failed, attempted atomic.Int64
	before := counterSnapshot()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cycle := int64(b.cycleLen())
			var cycleStart time.Time
			var cycleCPU time.Duration
			for k := int64(0); time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				if k%cycle == 0 {
					cycleStart, cycleCPU = time.Now(), processCPU()
				}
				o := b.next(c, k)
				oc := &opCtx{ctx: ctx, tr: tr}
				var cb map[string]float64
				if tr != nil {
					oc.trace = tr.newTrace()
					oc.root = tr.begin(oc.trace, nil, "op."+o.name)
					cb = counterSnapshot()
				}
				t0, c0 := time.Now(), processCPU()
				rows, err := o.fn(oc)
				d, cpu := time.Since(t0), processCPU()-c0
				if tr != nil {
					tr.end(oc.root)
					oc.root.Counters = counterDelta(cb, counterSnapshot())
				}
				attempted.Add(1)
				mu.Lock()
				if err != nil {
					failed.Add(1)
					if w.firstErr == nil {
						w.firstErr = fmt.Errorf("%s (client %d, op %d): %w", o.name, c, k, err)
					}
				} else {
					w.lat[o.class] = append(w.lat[o.class], d)
					w.cpu[o.class] = append(w.cpu[o.class], cpu)
					w.rows[o.class] += rows
					if oc.stats != nil {
						w.stats[o.class] = append(w.stats[o.class], oc.stats)
					}
					if oc.wire > 0 {
						w.wire = append(w.wire, oc.wire)
					}
				}
				if k%cycle == cycle-1 {
					w.cycles = append(w.cycles, time.Since(cycleStart))
					w.cycleCPU = append(w.cycleCPU, processCPU()-cycleCPU)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.counters = counterDelta(before, counterSnapshot())
	w.attempted, w.failed = attempted.Load(), failed.Load()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return w, nil
}

// report accumulates a run's metrics and outcome.
type report struct {
	metrics   map[string]metric
	order     []string
	attempted int64
	failed    int64
	checkErr  error
	notes     []string
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check found outside an op.
func (r *report) fail(err error) {
	r.failed++
	if r.checkErr == nil {
		r.checkErr = err
	}
}

// addWindow folds a window's op counts and failures into the report.
func (r *report) addWindow(w *window) {
	r.attempted += w.attempted
	r.failed += w.failed
	if w.firstErr != nil && r.checkErr == nil {
		r.checkErr = w.firstErr
	}
}

// minCycles is the least number of full op mixes from which ops_per_s
// and cpu_ms_per_op are taken as medians; shorter runs report
// whole-run means.
const minCycles = 5

// endToEnd derives the end-to-end metrics of an untraced window.
func endToEnd(b bench, w *window, clients int, rep *report) {
	var ops int64
	for _, l := range w.lat {
		ops += int64(len(l))
	}
	// ops_per_s is each client's op mix over the median time it took,
	// times the client count: a median over the run's cycles, so a
	// stretch in which the shared machine runs slow moves it less than
	// a whole-run mean.
	mean := float64(ops) / w.elapsed.Seconds()
	if len(w.cycles) >= minCycles {
		cycleS := median(durationsSeconds(w.cycles))
		rep.set("ops_per_s", float64(clients*b.cycleLen())/cycleS, "1/s")
		rep.note("ops_per_s is the median over %d cycles of %d ops; the whole-run mean is %.6g/s", len(w.cycles), b.cycleLen(), mean)
	} else {
		rep.set("ops_per_s", mean, "1/s")
		rep.note("ops_per_s is the whole-run mean (%d full cycles)", len(w.cycles))
	}
	rep.set("error_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio")
	classes := make([]string, 0, len(w.lat))
	for c := range w.lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		name := strings.ReplaceAll(c, ".", "_")
		rep.set(name+"_p50_ms", ms(quantile(w.lat[c], 0.5)), "ms")
		tail, pct := tailOf(w.lat[c])
		rep.set(name+"_tail_ms", ms(tail), "ms")
		rep.note("%s_tail_ms is p%.1f of %d samples", name, pct, len(w.lat[c]))
	}
	// Rows per second by op family (the class up to its first dot):
	// score_rows_per_s counts every row scored and written.
	fam := map[string]int64{}
	for c, r := range w.rows {
		fam[strings.SplitN(c, ".", 2)[0]] += r
	}
	for _, c := range classes {
		f := strings.SplitN(c, ".", 2)[0]
		if r, ok := fam[f]; ok {
			rep.set(f+"_rows_per_s", float64(r)/w.elapsed.Seconds(), "1/s")
			delete(fam, f)
		}
	}
	h := w.lat[b.headline()]
	rep.note("op_p50_ms, op_tail_ms and op_cpu_ms are the %q class", b.headline())
	rep.set("op_p50_ms", ms(quantile(h, 0.5)), "ms")
	tail, _ := tailOf(h)
	rep.set("op_tail_ms", ms(tail), "ms")
	rep.set("op_cpu_ms", ms(quantile(w.cpu[b.headline()], 0.5)), "ms")
	if len(w.cycleCPU) >= minCycles {
		rep.set("cpu_ms_per_op", ms(quantile(w.cycleCPU, 0.5))/float64(b.cycleLen()), "ms")
	} else {
		var total time.Duration
		for _, c := range w.cpu {
			for _, d := range c {
				total += d
			}
		}
		rep.set("cpu_ms_per_op", ms(total)/float64(max(ops, 1)), "ms")
	}
	rep.set("rss_peak_mb", rssPeakMB(), "MB")
}

// quantile is the q-quantile of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailOf returns the highest percentile, at most p90, with at least
// ten samples beyond it, and that percentile; below eleven samples it
// is the maximum. The cap keeps thousands of fast ops from reporting
// p99.9, which on a shared machine measures its neighbours.
func tailOf(ds []time.Duration) (time.Duration, float64) {
	n := len(ds)
	if n == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n < 11 {
		return s[n-1], 100
	}
	beyond := max(10, n/10)
	return s[n-1-beyond], 100 * float64(n-beyond) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsSeconds(ds []time.Duration) []float64 {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return s
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// counterSnapshot reads every engine counter (the values sys.metrics
// serves) from the process registry.
func counterSnapshot() map[string]float64 {
	m := map[string]float64{}
	for _, s := range obs.Default.Snapshot() {
		if s.Kind == "counter" {
			m[s.Name] = s.Value
		}
	}
	return m
}

func counterDelta(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		if dv := v - before[k]; dv != 0 {
			d[k] = dv
		}
	}
	return d
}

// processCPU is the user and system CPU time the process has used, in
// all its threads. The kernel leaves out time the hypervisor gave to
// other machines (steal), which wall-clock time includes.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// disk is the byte count of the database directory by file kind, and
// the user data it holds.
type disk struct {
	rowlog, segment, other int64
	rows, values           int64
}

func (d disk) total() int64 { return d.rowlog + d.segment + d.other }

// perUserByte is bytes on disk per byte of numeric user data (8 B per
// value loaded).
func (d disk) perUserByte() float64 { return float64(d.total()) / float64(8*max(d.values, 1)) }

// diskUsage walks the database directory; Table.SizeBytes would count
// only the row logs.
func diskUsage(dir string, d *db.DB) (disk, error) {
	var u disk
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		switch filepath.Ext(path) {
		case ".dat":
			u.rowlog += info.Size()
		case ".seg":
			u.segment += info.Size()
		default:
			u.other += info.Size()
		}
		return nil
	})
	if err != nil {
		return u, fmt.Errorf("walking %s: %w", dir, err)
	}
	for _, name := range d.TableNames() {
		t, err := d.Table(name)
		if err != nil {
			return u, err
		}
		rows := t.NumRows()
		u.rows += rows
		u.values += rows * int64(t.Schema().Len())
	}
	return u, nil
}

// printHuman writes every metric with its unit, then the notes.
func printHuman(out io.Writer, cfg config, rep *report) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "# perfbench %s seed=%d seconds=%g %s, closed loop, %d clients\n", cfg.workload, cfg.seed, cfg.seconds, mode, cfg.clients)
	for _, name := range rep.order {
		m := rep.metrics[name]
		fmt.Fprintf(out, "metric %-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	if rep.checkErr != nil {
		fmt.Fprintf(out, "FAILED %v\n", rep.checkErr)
	}
}
