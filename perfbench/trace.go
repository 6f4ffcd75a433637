package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine/exec"
)

// span is one recorded interval: an op, a call the benchmark made into
// a layer, or a node of an engine statement's span tree grafted under
// that call. Spans of one op share its trace id.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Trace  int64     `json:"trace"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Counters holds an op's engine counter deltas, taken at its
	// boundaries (concurrent clients' work overlaps into them).
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	spans  []*span
	nextID int64
	traces int64
}

func (t *tracer) newTrace() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// begin opens a span under parent (nil for an op's root span).
func (t *tracer) begin(trace int64, parent *span, name string) *span {
	s := &span{Trace: trace, Name: name, Start: time.Now()}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	t.nextID++
	s.ID = t.nextID
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) end(s *span) { s.End = time.Now() }

// graft copies an engine span tree (statement → plan/scan[p]/merge/
// finalize) under parent, prefixing names with "exec.".
func (t *tracer) graft(trace int64, parent *span, root *exec.Span) {
	s := &span{Trace: trace, Parent: parent.ID, Name: "exec." + partitionless(root.Name), Start: root.Start, End: root.End}
	t.mu.Lock()
	t.nextID++
	s.ID = t.nextID
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	for _, c := range root.Children {
		t.graft(trace, s, c)
	}
}

// partitionless folds per-partition span names (scan[3]) into one
// (scan.partition).
func partitionless(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		return name[:i] + ".partition"
	}
	return name
}

// selfTimes computes each span name's self time: its duration minus
// the part of its interval its children cover (children of one span
// may overlap, as parallel partition scans do).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.End.Sub(s.Start) - covered(s, kids[s.ID])
		self[s.Name] += max(d, 0)
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, kids []*span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, v := range iv {
		switch {
		case i == 0:
			cur = v
		case !v[0].After(cur[1]):
			if v[1].After(cur[1]) {
				cur[1] = v[1]
			}
		default:
			total += cur[1].Sub(cur[0])
			cur = v
		}
	}
	return total + cur[1].Sub(cur[0])
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSelfTable prints the self-time table, largest first, with each
// layer's share of the traced wall time of all ops.
func writeSelfTable(w io.Writer, self map[string]time.Duration) {
	var total time.Duration
	names := make([]string, 0, len(self))
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "self %-34s %12s %7s\n", "span", "self_ms", "share")
	for _, n := range names {
		fmt.Fprintf(w, "self %-34s %12.3f %6.2f%%\n", n, ms(self[n]), 100*float64(self[n])/float64(max(total, 1)))
	}
}

// runTraced measures the workload's traced and untraced throughput in
// alternating slices (the ratio is trace.overhead_ratio), records the
// traced slices' spans, then probes each layer alone. The span file
// and the self-time table land in the work directory.
func runTraced(ctx context.Context, b bench, cfg config, rep *report, out io.Writer) error {
	const slices = 4
	tr := &tracer{}
	slice := seconds(cfg.seconds / slices)
	var tracedOps, untracedOps float64
	var tracedTime, untracedTime time.Duration
	var traced []*window
	for i := 0; i < slices; i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		w, err := drive(ctx, b, cfg.clients, slice, t)
		if err != nil {
			return err
		}
		rep.addWindow(w)
		n := float64(w.attempted - w.failed)
		if t != nil {
			tracedOps += n
			tracedTime += w.elapsed
			traced = append(traced, w)
		} else {
			untracedOps += n
			untracedTime += w.elapsed
		}
	}
	rep.set("trace.overhead_ratio", (tracedOps/tracedTime.Seconds())/(untracedOps/untracedTime.Seconds()), "ratio")
	if err := b.finish(ctx, rep); err != nil {
		return err
	}
	layerFromWindows(b, traced, rep)
	if err := b.probe(ctx, rep); err != nil {
		return err
	}
	u, err := diskUsage(b.dir(), b.engine())
	if err != nil {
		return err
	}
	rep.set("storage.rowlog_bytes_per_row", float64(u.rowlog)/float64(max(u.rows, 1)), "B")
	rep.set("storage.segment_bytes_per_row", float64(u.segment)/float64(max(u.rows, 1)), "B")

	base := filepath.Join(cfg.workDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	self := tr.selfTimes()
	f, err := os.Create(base + ".selftime.txt")
	if err != nil {
		return err
	}
	writeSelfTable(f, self)
	if err := f.Close(); err != nil {
		return err
	}
	writeSelfTable(out, self)
	rep.note("spans in %s.spans.jsonl, self times in %s.selftime.txt", base, base)
	return nil
}

// layerFromWindows derives the counter ratios and executor phase
// figures of the traced slices. Counter deltas are taken at the
// slices' first and last op boundaries, never from process totals.
func layerFromWindows(b bench, ws []*window, rep *report) {
	c := map[string]float64{}
	var stats []*exec.Stats
	var wire []time.Duration
	var ops int64
	for _, w := range ws {
		for k, v := range w.counters {
			c[k] += v
		}
		stats = append(stats, w.stats[b.statementClass()]...)
		wire = append(wire, w.wire...)
		for _, l := range w.lat {
			ops += int64(len(l))
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	rep.set("udf.calls_per_row", ratio(c["engine_udf_calls_total"], c["engine_rows_scanned_total"]), "ratio")
	blocks, fallbacks := c["engine_columnar_blocks_scanned_total"], c["engine_columnar_fallbacks_total"]
	rep.set("columnar.block_ratio", ratio(blocks, blocks+fallbacks), "ratio")
	hits, misses := c["engine_plan_cache_hits"], c["engine_plan_cache_misses"]
	rep.set("db.plan_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	shits, smisses := c["engine_summary_hits"], c["engine_summary_misses"]
	rep.set("summary.hit_ratio", ratio(shits, shits+smisses), "ratio")
	rep.set("server.busy_rejections", c["engine_server_admission_rejections_total"], "count")
	if len(wire) > 0 {
		rep.set("wire.overhead_us", us(quantile(wire, 0.5)), "us")
		rep.set("wire.bytes_per_op", ratio(c["engine_server_bytes_sent_total"]+c["engine_server_bytes_received_total"], float64(ops)), "B")
	}

	var plan, scan []time.Duration
	var skew []float64
	for _, st := range stats {
		plan = append(plan, st.Plan)
		scan = append(scan, st.Scan)
		skew = append(skew, st.Skew())
	}
	rep.set("exec.plan_ms", ms(quantile(plan, 0.5)), "ms")
	rep.set("exec.scan_ms", ms(quantile(scan, 0.5)), "ms")
	rep.set("exec.skew", median(skew), "ratio")
	rep.note("exec.plan_ms, exec.scan_ms and exec.skew are medians over %d %q statements", len(stats), b.statementClass())
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
