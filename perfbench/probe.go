package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/server"
	"repro/internal/sqlgen"
	"repro/internal/synth"
	"repro/pkg/client"
)

// probeInput is what a workload feeds its layers during the probe: its
// main table, the numeric columns its models read, an expression its
// statements evaluate, and a statement its clients send.
type probeInput struct {
	table    string
	cols     []string
	expr     string
	sql      string
	columnar bool
	gen      synth.Config
	// wire is false when the workload's own ops already measured the
	// wire layer (serve); otherwise a loopback server is probed.
	wire bool
}

// maxProbeRows bounds the rows decoded into memory for the core and
// expr probes.
const maxProbeRows = 1 << 16

// probeLayers calls each layer's public function alone on the
// workload's inputs, timing it from outside.
func probeLayers(ctx context.Context, d *db.DB, in probeInput, rep *report) error {
	t, err := d.Table(in.table)
	if err != nil {
		return err
	}
	schema := t.Schema()
	idx := make([]int, len(in.cols))
	for i, c := range in.cols {
		if idx[i] = schema.Index(c); idx[i] < 0 {
			return fmt.Errorf("probe: %s has no column %s", in.table, c)
		}
	}

	// synth: generation into a no-op sink.
	genRows := int64(in.gen.N)
	genDur, err := timeMedian(3, func() error {
		return synth.Stream(in.gen, func(int64, []float64) error { return nil })
	})
	if err != nil {
		return err
	}
	rep.set("synth.gen_ns_per_row", nsPer(genDur, genRows), "ns")

	// storage: full row and block scans into no-op sinks.
	var rows, bytes int64
	rowDur, err := timeMedian(3, func() error {
		rows, bytes = 0, 0
		for p := 0; p < t.Partitions(); p++ {
			st, err := t.ScanPartitionStats(ctx, p, func(sqltypes.Row) error { return nil })
			if err != nil {
				return err
			}
			rows += st.Rows
			bytes += st.Bytes
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("storage.row_scan_ns_per_row", nsPer(rowDur, rows), "ns")
	rep.set("storage.bytes_read_per_row", float64(bytes)/float64(max(rows, 1)), "B")
	if err := t.EnsureSegments(); err != nil {
		return err
	}
	var blockRows int64
	blockDur, err := timeMedian(3, func() error {
		blockRows = 0
		for p := 0; p < t.Partitions(); p++ {
			_, err := t.ScanPartitionBlocks(ctx, p, idx, func(b *storage.Block) error {
				blockRows += int64(b.Rows)
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("storage.block_scan_ns_per_row", nsPer(blockDur, blockRows), "ns")

	// Pre-decoded inputs for the core and expr probes.
	var decoded []sqltypes.Row
	var points [][]float64
	err = t.ScanContext(ctx, func(r sqltypes.Row) error {
		if len(decoded) >= maxProbeRows {
			return nil
		}
		decoded = append(decoded, append(sqltypes.Row(nil), r...))
		x := make([]float64, len(idx))
		for i, j := range idx {
			x[i], _ = r[j].Float()
		}
		points = append(points, x)
		return nil
	})
	if err != nil {
		return err
	}
	n := int64(len(points))
	updDur, err := timeMedian(3, func() error {
		s := core.MustNLQ(len(idx), core.Triangular)
		for _, x := range points {
			if err := s.Update(x); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("core.nlq_update_ns_per_row", nsPer(updDur, n), "ns")
	blocks := columnBlocks(points, len(idx))
	blkDur, err := timeMedian(3, func() error {
		s := core.MustNLQ(len(idx), core.Triangular)
		for _, b := range blocks {
			if err := s.UpdateBlock(b.cols, b.valid); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("core.nlq_update_block_ns_per_row", nsPer(blkDur, n), "ns")

	// exec: the per-partition n/L/Q scan, then core's merge, pack and
	// model math on its partials.
	var partials []*core.NLQ
	scanDur, err := timeMedian(3, func() error {
		var err error
		partials, _, err = exec.ComputeTableNLQ(ctx, t, idx, core.Triangular, 0, in.columnar)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("exec.nlq_scan_ms", ms(scanDur), "ms")
	var merged *core.NLQ
	mergeDur, err := timeMedian(9, func() error {
		merged = core.MustNLQ(len(idx), core.Triangular)
		for _, p := range partials {
			if err := merged.Merge(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("core.merge_us", us(mergeDur), "us")
	packDur, err := timeMedian(9, func() error {
		_, err := core.Unpack(merged.Pack())
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.pack_us", us(packDur), "us")
	modelDur, err := timeMedian(9, func() error {
		if _, err := core.BuildCorrelation(merged); err != nil {
			return err
		}
		if _, err := core.BuildLinReg(merged); err != nil {
			return err
		}
		_, err := core.BuildPCA(merged, min(4, len(idx)-1), core.CorrelationBasis)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("core.model_us", us(modelDur), "us")

	// expr: the workload's expression, interpreted per row and
	// vectorized per block, over the same decoded rows.
	e, err := sqlparser.ParseExpr(in.expr)
	if err != nil {
		return err
	}
	resolve := func(_, column string) (int, error) {
		if j := schema.Index(column); j >= 0 {
			return j, nil
		}
		return 0, fmt.Errorf("no column %s", column)
	}
	ev, err := expr.Compile(e, resolve, d.Scalars())
	if err != nil {
		return err
	}
	evalDur, err := timeMedian(3, func() error {
		for _, r := range decoded {
			if _, err := ev.Eval(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("expr.eval_ns_per_row", nsPer(evalDur, int64(len(decoded))), "ns")
	prog, err := expr.CompileVector(e, resolve, func(o int) bool { return schema.Columns[o].Type == sqltypes.TypeDouble })
	if err != nil {
		return fmt.Errorf("probe: vectorizing %q: %w", in.expr, err)
	}
	vblocks := slotBlocks(decoded, prog.Cols())
	vecDur, err := timeMedian(3, func() error {
		for _, b := range vblocks {
			if _, _, err := prog.EvalNum(b.cols, b.valids, b.rows, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("expr.vector_ns_per_row", nsPer(vecDur, int64(len(decoded))), "ns")

	// exec: merge and finalize exist only for aggregates, so they are
	// read from the Stats of the nlq_list summary statement over the
	// main table.
	var merge, fin []time.Duration
	sumSQL := sqlgen.NLQUDFQuery(in.table, in.cols, core.Triangular, sqlgen.ListStyle)
	for i := 0; i < 5; i++ {
		res, err := d.ExecContext(ctx, sumSQL)
		if err != nil {
			return err
		}
		merge = append(merge, res.Stats.Merge)
		fin = append(fin, res.Stats.Finalize)
	}
	rep.set("exec.merge_ms", ms(quantile(merge, 0.5)), "ms")
	rep.set("exec.finalize_ms", ms(quantile(fin, 0.5)), "ms")

	// Statement path: parse and prepare the workload's statement.
	parseDur, err := timeMedian(31, func() error {
		_, err := sqlparser.Parse(in.sql)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("sqlparser.parse_us", us(parseDur), "us")
	prepDur, err := timeMedian(31, func() error {
		p, err := d.PrepareContext(ctx, in.sql)
		if err != nil {
			return err
		}
		return p.Close()
	})
	if err != nil {
		return err
	}
	rep.set("db.prepare_us", us(prepDur), "us")

	// summary: a warm read of the main table's summary.
	if _, _, err := d.SummaryNLQ(ctx, in.table, in.cols, core.Triangular); err != nil {
		return err
	}
	warmDur, err := timeMedian(31, func() error {
		_, hit, err := d.SummaryNLQ(ctx, in.table, in.cols, core.Triangular)
		if err == nil && !hit {
			err = checkf("warm summary read of %s missed the cache", in.table)
		}
		return err
	})
	if err != nil {
		return err
	}
	rep.set("summary.warm_us", us(warmDur), "us")

	return probeScratch(ctx, d, schema, decoded, in, rep)
}

// probeScratch times Table.Insert of 10-row batches into a scratch
// copy of the main table's schema and, unless the workload measured
// the wire itself, point queries on it over a loopback server. The
// scratch table is dropped afterwards.
func probeScratch(ctx context.Context, d *db.DB, schema *sqltypes.Schema, decoded []sqltypes.Row, in probeInput, rep *report) error {
	const name = "perfbench_probe"
	t, err := d.CreateTable(name, schema)
	if err != nil {
		return err
	}
	// Best-effort: the run's directory is removed when it ends.
	defer func() { _ = d.DropTable(name) }()
	batch := 0
	insDur, err := timeMedian(31, func() error {
		rows := make([]sqltypes.Row, 10)
		for i := range rows {
			rows[i] = decoded[(batch*10+i)%len(decoded)]
		}
		batch++
		return t.Insert(rows...)
	})
	if err != nil {
		return err
	}
	rep.set("storage.insert_us", us(insDur), "us")
	if !in.wire {
		return nil
	}

	srv := server.New(d, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	pool, err := client.Open(client.Config{Addr: srv.Addr(), User: "perfbench"})
	if err != nil {
		return err
	}
	defer pool.Close()
	id := decoded[0][0].Int()
	sql := fmt.Sprintf("SELECT * FROM %s WHERE i = %d", name, id)
	if _, err := pool.Query(ctx, sql); err != nil {
		return err
	}
	const queries = 31
	before := counterSnapshot()
	var over []time.Duration
	for q := 0; q < queries; q++ {
		t0 := time.Now()
		res, err := pool.Query(ctx, sql)
		if err != nil {
			return err
		}
		rt := time.Since(t0)
		total, err := statsTotal(res.StatsJSON)
		if err != nil {
			return err
		}
		over = append(over, rt-total)
	}
	c := counterDelta(before, counterSnapshot())
	rep.set("wire.overhead_us", us(quantile(over, 0.5)), "us")
	rep.set("wire.bytes_per_op", (c[bytesSent]+c[bytesReceived])/queries, "B")
	return nil
}

const (
	bytesSent     = "engine_server_bytes_sent_total"
	bytesReceived = "engine_server_bytes_received_total"
)

// statsTotal reads the server's Stats.Total from a reply's stats JSON.
func statsTotal(js string) (time.Duration, error) {
	if js == "" {
		return 0, fmt.Errorf("reply carries no executor stats")
	}
	var st exec.Stats
	if err := json.Unmarshal([]byte(js), &st); err != nil {
		return 0, fmt.Errorf("decoding stats JSON: %w", err)
	}
	return st.Total, nil
}

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return quantile(ds, 0.5), nil
}

func nsPer(d time.Duration, n int64) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }

type colBlock struct {
	cols  [][]float64
	valid []bool
}

// columnBlocks transposes points into the block scan's 4096-row
// column-major chunks.
func columnBlocks(points [][]float64, d int) []colBlock {
	const chunk = 4096
	var out []colBlock
	for lo := 0; lo < len(points); lo += chunk {
		hi := min(lo+chunk, len(points))
		b := colBlock{cols: make([][]float64, d), valid: make([]bool, hi-lo)}
		for a := range b.cols {
			b.cols[a] = make([]float64, hi-lo)
			for i := lo; i < hi; i++ {
				b.cols[a][i-lo] = points[i][a]
			}
		}
		for i := range b.valid {
			b.valid[i] = true
		}
		out = append(out, b)
	}
	return out
}

type slotBlock struct {
	cols   [][]float64
	valids [][]bool
	rows   int
}

// slotBlocks lays decoded rows out as a vector program's slot columns
// in 4096-row chunks.
func slotBlocks(rows []sqltypes.Row, ords []int) []slotBlock {
	const chunk = 4096
	var out []slotBlock
	for lo := 0; lo < len(rows); lo += chunk {
		hi := min(lo+chunk, len(rows))
		b := slotBlock{rows: hi - lo, cols: make([][]float64, len(ords)), valids: make([][]bool, len(ords))}
		for s, o := range ords {
			b.cols[s] = make([]float64, hi-lo)
			b.valids[s] = make([]bool, hi-lo)
			for i := lo; i < hi; i++ {
				b.cols[s][i-lo], b.valids[s][i-lo] = rows[i][o].Float()
			}
		}
		out = append(out, b)
	}
	return out
}

// literalRegression renders ŷ = β₀ + Σ βₐ·Xₐ with the coefficients as
// literals, the expression the SQL scoring statement evaluates per row.
func literalRegression(beta []float64, cols []string) string {
	var b strings.Builder
	b.WriteString(strconv.FormatFloat(beta[0], 'f', -1, 64))
	for a, c := range cols {
		fmt.Fprintf(&b, " + %s * %s", strconv.FormatFloat(beta[a+1], 'f', -1, 64), c)
	}
	return b.String()
}
