package exec

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/engine/expr"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/udf"
)

// Env bundles the registries a query executes against.
type Env struct {
	Catalog Catalog
	Funcs   *expr.Registry // scalar functions and scalar UDFs
	Aggs    *udf.Registry  // standard aggregates and aggregate UDFs
	// Workers bounds the scan worker pool independently of the
	// partition count; <= 0 runs one goroutine per partition.
	Workers int
	// Columnar opts eligible scans into the block-at-a-time execution
	// path (column segments + vector programs). Ineligible statements
	// fall back to the row path with identical results.
	Columnar bool
}

// Select runs a SELECT once and materializes the result, applying
// ORDER BY and LIMIT: it prepares the statement's plan and executes it
// with no parameters. Cancelling ctx (nil is treated as background)
// stops the partition scans between rows.
func Select(ctx context.Context, sel *sqlparser.Select, env *Env) (*Result, error) {
	began := time.Now()
	p, err := PrepareSelect(sel, env)
	if err != nil {
		return nil, err
	}
	schema, rows, stats, err := p.execute(ctx, nil, nil, began)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: schema, Rows: rows, Stats: stats}, nil
}

// outputNames collects the visible output column names of a select.
func outputNames(sel *sqlparser.Select) map[string]bool {
	out := make(map[string]bool)
	for i, item := range sel.Items {
		if item.Star {
			continue // star outputs resolve by name at sort time anyway
		}
		out[strings.ToLower(itemName(item, i))] = true
	}
	return out
}

// orderKeyInOutput reports whether an ORDER BY key can be evaluated
// against the output schema directly: an ordinal, an output name, or an
// expression whose column references are all output columns.
func orderKeyInOutput(e sqlparser.Expr, outNames map[string]bool) bool {
	if lit, ok := e.(*sqlparser.NumberLit); ok && lit.IsInt {
		return true
	}
	ok := true
	walkRefs(e, func(cr *sqlparser.ColumnRef) {
		if cr.Table != "" || !outNames[strings.ToLower(cr.Name)] {
			ok = false
		}
	})
	return ok
}

// SelectStream runs a SELECT once, streaming rows to sink
// (concurrently). ORDER BY and LIMIT are rejected in streaming mode.
// The returned Stats describe the completed scan.
func SelectStream(ctx context.Context, sel *sqlparser.Select, env *Env, sink RowSink) (*sqltypes.Schema, *Stats, error) {
	if len(sel.OrderBy) > 0 || sel.Limit != nil {
		return nil, nil, fmt.Errorf("exec: ORDER BY/LIMIT not supported in streaming mode")
	}
	began := time.Now()
	p, err := PrepareSelect(sel, env)
	if err != nil {
		return nil, nil, err
	}
	schema, _, stats, err := p.execute(ctx, nil, sink, began)
	return schema, stats, err
}

// beginSelectObs starts the engine-level query gauges/histograms for
// one SELECT execution; the returned finish function closes st.Root
// and completes them.
func beginSelectObs(st *Stats) func() {
	root := st.Root
	obs.ActiveQueries.Inc()
	return func() {
		root.finish()
		root.Rows = st.RowsEmitted
		st.Total = root.Duration()
		obs.ActiveQueries.Dec()
		obs.QuerySeconds.Observe(st.Total.Seconds())
		obs.RowsEmitted.Add(st.RowsEmitted)
		if st.Partitions > 0 {
			obs.PlanSeconds.Observe(st.Plan.Seconds())
			obs.ScanSeconds.Observe(st.Scan.Seconds())
		}
		if st.hasMerge {
			obs.MergeSeconds.Observe(st.Merge.Seconds())
			obs.FinalizeSeconds.Observe(st.Finalize.Seconds())
		}
	}
}

// scanWorkers resolves the worker-pool bound for n partitions.
func scanWorkers(env *Env, n int) int {
	if env.Workers > 0 && env.Workers < n {
		return env.Workers
	}
	return n
}

// maxJoinTailRows is a sanity cap on the materialized cross-join tail
// that catches genuinely large-large joins.
const maxJoinTailRows = 1 << 20

// tailPlan is the data-independent half of a cross-join tail: which
// WHERE conjuncts push down to which tail table, and the residual
// predicate that still runs per joined row. Each execution scans the
// tail tables after the first into their filtered cross product, so
// selective filters (the scoring queries' `l1.j = 1 AND ...`) apply
// before the product is formed — the aliased k-way cross joins of §3.5
// stay k rows wide instead of exploding combinatorially — and inserts
// into model tables are always visible.
type tailPlan struct {
	splits   [][]sqlparser.Expr // per FROM index: conjuncts pushed to that table
	residual sqlparser.Expr
}

// planTail decides the push-down split. The decision is structural
// (which tables each conjunct references), so it is stable across
// executions of the same statement.
func planTail(b *binding, where sqlparser.Expr) *tailPlan {
	conjuncts := splitConjuncts(where)
	used := make([]bool, len(conjuncts))
	tp := &tailPlan{splits: make([][]sqlparser.Expr, len(b.tables))}
	for ti := 1; ti < len(b.tables); ti++ {
		for ci, c := range conjuncts {
			if used[ci] || !refsOnlyTable(c, b, ti) {
				continue
			}
			tp.splits[ti] = append(tp.splits[ti], c)
			used[ci] = true
		}
	}
	for ci, c := range conjuncts {
		if used[ci] {
			continue
		}
		if tp.residual == nil {
			tp.residual = c
		} else {
			tp.residual = &sqlparser.BinaryExpr{Op: "AND", L: tp.residual, R: c}
		}
	}
	return tp
}

// compileFilters compiles the pushed-down conjuncts, reading `?` slots
// from params.
func (tp *tailPlan) compileFilters(b *binding, funcs *expr.Registry, params *[]sqltypes.Value) ([][]expr.Evaluator, error) {
	filters := make([][]expr.Evaluator, len(tp.splits))
	for ti, split := range tp.splits {
		if len(split) == 0 {
			continue
		}
		resolve := tableResolver(b, ti)
		for _, c := range split {
			ev, err := expr.CompileWithParams(c, resolve, funcs, params)
			if err != nil {
				return nil, err
			}
			filters[ti] = append(filters[ti], ev)
		}
	}
	return filters, nil
}

// scan materializes the filtered cross product of the tail tables.
func (tp *tailPlan) scan(ctx context.Context, b *binding, filters [][]expr.Evaluator) ([]sqltypes.Row, error) {
	tail := []sqltypes.Row{{}}
	for ti := 1; ti < len(b.tables); ti++ {
		bt := b.tables[ti]
		var trows []sqltypes.Row
		fs := filters[ti]
		err := bt.table.ScanContext(ctx, func(r sqltypes.Row) error {
			for _, f := range fs {
				keep, err := f.Eval(r)
				if err != nil {
					return err
				}
				if keep.IsNull() || !keep.Bool() {
					return nil
				}
			}
			trows = append(trows, r.Clone())
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(tail)*len(trows) > maxJoinTailRows {
			return nil, fmt.Errorf("exec: cross-join tail exceeds %d rows; joins expect small model tables after the first table", maxJoinTailRows)
		}
		next := make([]sqltypes.Row, 0, len(tail)*len(trows))
		for _, t := range tail {
			for _, r := range trows {
				combined := make(sqltypes.Row, 0, len(t)+len(r))
				combined = append(combined, t...)
				combined = append(combined, r...)
				next = append(next, combined)
			}
		}
		tail = next
	}
	return tail, nil
}

// splitConjuncts flattens a predicate's top-level AND tree.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sqlparser.BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.L), splitConjuncts(be.R)...)
	}
	return []sqlparser.Expr{e}
}

// refsOnlyTable reports whether every column reference in e resolves
// into FROM entry ti (and there is at least one reference — constant
// predicates stay in the residual).
func refsOnlyTable(e sqlparser.Expr, b *binding, ti int) bool {
	bt := b.tables[ti]
	lo, hi := bt.offset, bt.offset+bt.table.Schema().Len()
	any, all := false, true
	walkRefs(e, func(cr *sqlparser.ColumnRef) {
		any = true
		idx, err := b.resolve(cr.Table, cr.Name)
		if err != nil || idx < lo || idx >= hi {
			all = false
		}
	})
	return any && all
}

// tableResolver resolves columns relative to one FROM entry's own rows.
func tableResolver(b *binding, ti int) expr.Resolver {
	bt := b.tables[ti]
	lo, hi := bt.offset, bt.offset+bt.table.Schema().Len()
	return func(table, column string) (int, error) {
		idx, err := b.resolve(table, column)
		if err != nil {
			return 0, err
		}
		if idx < lo || idx >= hi {
			return 0, fmt.Errorf("exec: internal: column %s.%s escapes pushed-down table", table, column)
		}
		return idx - lo, nil
	}
}

// finishScanSpan attaches the per-partition child spans (skipping
// partitions never started before a cancellation) and totals their
// volume into the parent span and the scan counters. It runs after the
// partition workers have joined, so the per-span numbers are stable
// and the Stats fields can stay plain (no atomics needed).
func finishScanSpan(scan *Span, partSpans []*Span, st *Stats) {
	for _, ps := range partSpans {
		if ps != nil {
			scan.Children = append(scan.Children, ps)
			st.RowsScanned += ps.Rows
			st.BytesRead += ps.Bytes
		}
	}
	scan.sortChildren()
	scan.Rows = st.RowsScanned
	scan.Bytes = st.BytesRead
}

func flatColumnType(b *binding, idx int) sqltypes.Type {
	for _, bt := range b.tables {
		n := bt.table.Schema().Len()
		if idx >= bt.offset && idx < bt.offset+n {
			return bt.table.Schema().Columns[idx-bt.offset].Type
		}
	}
	return sqltypes.TypeDouble
}
