package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/engine/expr"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// PreparedSelect is the executor's one SELECT plan. PrepareSelect
// sema-checks the statement, binds FROM to table handles, expands
// stars, turns ORDER BY keys the output cannot answer into hidden
// trailing items, decides the join-tail push-down, rewrites aggregates
// and picks the block or row scan. Every expression — select items,
// WHERE, GROUP BY, aggregate arguments, HAVING, ORDER BY — compiles
// with its `?` slots read from the executing evaluator set, so EXECUTE
// only binds values and runs. Select and SelectStream prepare and
// execute once; the db layer keeps plans for PREPARE and its plan
// cache.
//
// Table handles are captured at prepare, so an execution that races a
// DROP/CREATE sees the pre-DDL tables consistently; the db layer's
// catalog epoch decides when the plan as a whole is stale. Tail
// (model) tables are re-scanned per EXECUTE, so freshly inserted model
// rows are always visible.
type PreparedSelect struct {
	env       *Env
	numParams int

	items  []sqlparser.SelectItem // star-expanded; hidden ORDER BY keys last
	schema *sqltypes.Schema       // output columns, hidden keys included
	hidden int
	order  []sqlparser.OrderItem // hidden keys refer to their $orderN items
	limit  *int64

	b    *binding // nil for a FROM-less select
	tail *tailPlan
	agg  *aggPlan       // nil for projections
	vp   *vecProjection // non-nil when columnar mode planned a block scan

	pool sync.Pool // *evalSet
}

// evalSet is the plan compiled for one goroutine: evaluators carry
// scratch buffers and read `?` slots from params, so a set is used by
// one goroutine at a time and pooled across executions.
type evalSet struct {
	params  []sqltypes.Value
	filters [][]expr.Evaluator // join-tail push-down, per FROM entry
	where   expr.Evaluator     // residual WHERE; nil when absent
	items   []expr.Evaluator   // over the joined row, or the group row for aggregates
	groups  []expr.Evaluator   // GROUP BY keys
	args    [][]expr.Evaluator // aggregate arguments, per spec
	having  expr.Evaluator     // nil when absent
	order   []expr.Evaluator   // ORDER BY keys over the output row
	flat    sqltypes.Row
	out     sqltypes.Row
}

// PrepareSelect plans sel (already view-expanded) against env.
func PrepareSelect(sel *sqlparser.Select, env *Env) (*PreparedSelect, error) {
	if err := analyze(sel, env); err != nil {
		return nil, err
	}
	p := &PreparedSelect{env: env, numParams: sqlparser.CountParams(sel), limit: sel.Limit}
	items := sel.Items
	if len(sel.From) == 0 {
		if len(sel.GroupBy) > 0 || sel.Where != nil {
			return nil, fmt.Errorf("exec: WHERE/GROUP BY require a FROM clause")
		}
		for _, item := range items {
			if item.Star {
				return nil, fmt.Errorf("exec: * requires a FROM clause")
			}
		}
	} else {
		b, err := bindFrom(sel.From, env.Catalog)
		if err != nil {
			return nil, err
		}
		if items, err = expandStars(items, b); err != nil {
			return nil, err
		}
		p.b = b
		p.tail = planTail(b, sel.Where)
	}

	// ORDER BY keys that are not output columns are computed as hidden
	// trailing items and stripped after sorting.
	outNames := outputNames(sel)
	for _, o := range sel.OrderBy {
		if !orderKeyInOutput(o.Expr, outNames) {
			name := fmt.Sprintf("$order%d", p.hidden)
			items = append(items[:len(items):len(items)], sqlparser.SelectItem{Expr: o.Expr, Alias: name})
			o.Expr = &sqlparser.ColumnRef{Name: name}
			p.hidden++
		}
		p.order = append(p.order, o)
	}
	p.items = items

	isAgg := len(sel.GroupBy) > 0
	aggNames := env.Aggs.Names()
	for _, item := range items {
		if expr.ContainsAggregate(item.Expr, aggNames) {
			isAgg = true
		}
	}
	if isAgg && p.b != nil {
		a, err := planAggregate(sel, items, p.numParams, env.Aggs)
		if err != nil {
			return nil, err
		}
		p.agg = a
	} else if sel.Having != nil {
		return nil, fmt.Errorf("exec: HAVING requires GROUP BY or aggregates")
	}

	cols := make([]sqltypes.Column, len(items))
	for i, item := range items {
		cols[i] = sqltypes.Column{Name: itemName(item, i), Type: sqltypes.TypeDouble}
		if cr, ok := item.Expr.(*sqlparser.ColumnRef); ok && p.agg == nil && p.b != nil {
			if idx, err := p.b.resolve(cr.Table, cr.Name); err == nil {
				cols[i].Type = flatColumnType(p.b, idx)
			}
		}
	}
	p.schema = &sqltypes.Schema{Columns: cols}

	// The columnar gate: a parameter-free single-table projection whose
	// items and residual WHERE all compile to vector programs scans
	// block-wise; any other shape counts one fallback and scans rows.
	if env.Columnar && p.b != nil && p.agg == nil && p.numParams == 0 && len(p.b.tables) == 1 {
		if vp, err := planVecProjection(items, p.tail.residual, p.b); err == nil {
			p.vp = vp
		} else {
			obs.ColumnarFallbacks.Inc()
		}
	}

	// Compile one set eagerly so compile errors surface at prepare
	// time, then seed the pool with it.
	s, err := p.newSet()
	if err != nil {
		return nil, err
	}
	p.pool.Put(s)
	return p, nil
}

// NumParams reports how many `?` slots the statement has.
func (p *PreparedSelect) NumParams() int { return p.numParams }

// Streamable reports whether ExecuteStreamContext can run the
// statement (ORDER BY/LIMIT require materialization).
func (p *PreparedSelect) Streamable() bool {
	return len(p.order) == 0 && p.limit == nil
}

func (p *PreparedSelect) newSet() (*evalSet, error) {
	s := &evalSet{}
	compile := func(e sqlparser.Expr, r expr.Resolver) (expr.Evaluator, error) {
		if e == nil {
			return nil, nil
		}
		return expr.CompileWithParams(e, r, p.env.Funcs, &s.params)
	}
	compileAll := func(es []sqlparser.Expr, r expr.Resolver) ([]expr.Evaluator, error) {
		evs := make([]expr.Evaluator, len(es))
		for i, e := range es {
			ev, err := compile(e, r)
			if err != nil {
				return nil, err
			}
			evs[i] = ev
		}
		return evs, nil
	}
	var err error
	exprs := make([]sqlparser.Expr, len(p.items))
	for i, item := range p.items {
		exprs[i] = item.Expr
	}
	var resolve expr.Resolver
	if p.b != nil {
		resolve = p.b.resolve
		if s.filters, err = p.tail.compileFilters(p.b, p.env.Funcs, &s.params); err != nil {
			return nil, err
		}
		if s.where, err = compile(p.tail.residual, resolve); err != nil {
			return nil, err
		}
		s.flat = make(sqltypes.Row, p.b.width)
	}
	if a := p.agg; a != nil {
		if s.groups, err = compileAll(a.groupBy, resolve); err != nil {
			return nil, err
		}
		s.args = make([][]expr.Evaluator, len(a.specs))
		for i, spec := range a.specs {
			if s.args[i], err = compileAll(spec.args, resolve); err != nil {
				return nil, err
			}
		}
		if s.having, err = compile(a.having, a.resolve); err != nil {
			return nil, err
		}
		exprs, resolve = a.items, a.resolve
	}
	if s.items, err = compileAll(exprs, resolve); err != nil {
		return nil, err
	}
	s.out = make(sqltypes.Row, len(p.items))
	s.order = make([]expr.Evaluator, len(p.order))
	for i, o := range p.order {
		if lit, ok := o.Expr.(*sqlparser.NumberLit); ok && lit.IsInt {
			if s.order[i], err = p.ordinal(lit.Int); err != nil {
				return nil, err
			}
			continue
		}
		if s.order[i], err = compile(o.Expr, p.outputResolve); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// outputResolve resolves ORDER BY column references against the output
// row (hidden keys included).
func (p *PreparedSelect) outputResolve(table, col string) (int, error) {
	if idx := p.schema.Index(col); idx >= 0 {
		return idx, nil
	}
	return 0, fmt.Errorf("exec: ORDER BY column %q is not in the output", col)
}

// ordinal is the sort key for a 1-based ORDER BY ordinal.
func (p *PreparedSelect) ordinal(n int64) (expr.Evaluator, error) {
	if n < 1 || n > int64(p.schema.Len()-p.hidden) {
		return nil, fmt.Errorf("exec: ORDER BY ordinal %d out of range", n)
	}
	return ordinalEval(n - 1), nil
}

// getSet leases an evaluator set bound to args; putSet returns it.
func (p *PreparedSelect) getSet(args []sqltypes.Value) (*evalSet, error) {
	s, ok := p.pool.Get().(*evalSet)
	if !ok || s == nil {
		var err error
		if s, err = p.newSet(); err != nil {
			return nil, err
		}
	}
	s.params = args
	return s, nil
}

func (p *PreparedSelect) putSet(s *evalSet) {
	s.params = nil
	p.pool.Put(s)
}

// ExecuteContext binds args and materializes the result.
func (p *PreparedSelect) ExecuteContext(ctx context.Context, args []sqltypes.Value) (*Result, error) {
	schema, rows, stats, err := p.execute(ctx, args, nil, time.Now())
	if err != nil {
		return nil, err
	}
	return &Result{Schema: schema, Rows: rows, Stats: stats}, nil
}

// ExecuteStreamContext binds args and streams result rows to sink.
func (p *PreparedSelect) ExecuteStreamContext(ctx context.Context, args []sqltypes.Value, sink RowSink) (*sqltypes.Schema, *Stats, error) {
	if !p.Streamable() {
		return nil, nil, fmt.Errorf("exec: ORDER BY/LIMIT not supported in streaming mode")
	}
	schema, _, stats, err := p.execute(ctx, args, sink, time.Now())
	return schema, stats, err
}

// execute runs the plan once. With a nil sink the result is
// materialized: projected rows are gathered per partition and
// concatenated in partition order, so unordered results and ORDER BY
// ties come out the same on every run; then ORDER BY and LIMIT apply.
// Otherwise rows stream to sink (concurrently for projections).
// began is when the statement's planning started.
func (p *PreparedSelect) execute(ctx context.Context, args []sqltypes.Value, sink RowSink, began time.Time) (*sqltypes.Schema, []sqltypes.Row, *Stats, error) {
	if len(args) != p.numParams {
		return nil, nil, nil, fmt.Errorf("exec: prepared statement expects %d parameter(s), got %d", p.numParams, len(args))
	}
	st := &Stats{Workers: 1, Root: &Span{Name: "statement", Start: began}}
	finish := beginSelectObs(st)
	defer finish()

	schema, rows, err := p.run(ctx, args, sink, st)
	if err != nil {
		return schema, nil, st, err
	}
	if sink != nil {
		for _, r := range rows {
			if err := sink(r); err != nil {
				return schema, nil, st, err
			}
		}
		return schema, nil, st, nil
	}
	if len(p.order) > 0 {
		if err := p.sortRows(args, rows); err != nil {
			return nil, nil, nil, err
		}
	}
	if p.limit != nil && int64(len(rows)) > *p.limit {
		rows = rows[:*p.limit]
	}
	if p.hidden > 0 {
		keep := schema.Len() - p.hidden
		schema = &sqltypes.Schema{Columns: schema.Columns[:keep]}
		for i, r := range rows {
			rows[i] = r[:keep]
		}
	}
	return schema, rows, st, nil
}

// run evaluates the plan into st, returning the rows it produced; a
// streamed projection hands its rows to sink and returns none.
func (p *PreparedSelect) run(ctx context.Context, args []sqltypes.Value, sink RowSink, st *Stats) (*sqltypes.Schema, []sqltypes.Row, error) {
	if p.b == nil {
		row, schema, err := p.evalConst(args)
		if err != nil {
			return nil, nil, err
		}
		st.RowsEmitted = 1
		return schema, []sqltypes.Row{row}, nil
	}

	plan := &Span{Name: "plan", Start: st.Root.Start}
	st.Root.Children = append(st.Root.Children, plan)
	st.hasMerge = p.agg != nil
	set, err := p.getSet(args)
	if err != nil {
		return nil, nil, err
	}
	tail, err := p.tail.scan(ctx, p.b, set.filters)
	p.putSet(set)
	if err != nil {
		return nil, nil, err
	}
	first := p.b.tables[0].table
	nparts := first.Partitions()
	st.Partitions = nparts
	st.Workers = scanWorkers(p.env, nparts)
	st.PartitionRows = make([]int64, nparts)
	st.Plan = plan.finish()

	parts, err := p.scan(ctx, args, tail, sink, st)
	if err != nil {
		return p.schema, nil, err
	}
	if p.agg == nil {
		var rows []sqltypes.Row
		for _, part := range parts {
			st.RowsEmitted += part.emitted
			rows = append(rows, part.rows...)
		}
		return p.schema, rows, nil
	}
	groups := make([]*groupTable, len(parts))
	for i, part := range parts {
		groups[i] = part.groups
	}
	if set, err = p.getSet(args); err != nil {
		return nil, nil, err
	}
	defer p.putSet(set)
	rows, err := p.aggregate(groups, set, st)
	st.RowsEmitted = int64(len(rows))
	return p.schema, rows, err
}

// evalConst evaluates a FROM-less select list once; the output types
// are those of the values.
func (p *PreparedSelect) evalConst(args []sqltypes.Value) (sqltypes.Row, *sqltypes.Schema, error) {
	set, err := p.getSet(args)
	if err != nil {
		return nil, nil, err
	}
	defer p.putSet(set)
	row := make(sqltypes.Row, len(set.items))
	cols := make([]sqltypes.Column, len(set.items))
	for i, ev := range set.items {
		v, err := ev.Eval(nil)
		if err != nil {
			return nil, nil, err
		}
		row[i] = v
		cols[i] = sqltypes.Column{Name: p.schema.Columns[i].Name, Type: v.Type()}
	}
	return row, &sqltypes.Schema{Columns: cols}, nil
}

// partOutput is one partition's share of the result: its projected
// rows in scan order (when materializing) or its aggregate partials.
type partOutput struct {
	rows    []sqltypes.Row
	emitted int64
	groups  *groupTable
}

// scan runs the scan operator over every partition of the driving
// table in parallel, each partition writing only its own output slot.
func (p *PreparedSelect) scan(ctx context.Context, args []sqltypes.Value, tail []sqltypes.Row, sink RowSink, st *Stats) ([]partOutput, error) {
	first := p.b.tables[0].table
	if p.vp != nil {
		// Best-effort: rebuild stale segments up front so the cold path
		// pays one rebuild instead of per-query row fallbacks. Failures
		// are not fatal — stale partitions fall back row-wise, and
		// genuine row-log corruption resurfaces loudly from the row scan.
		_ = first.EnsureSegments()
	}
	nparts := st.Partitions
	parts := make([]partOutput, nparts)
	scanSpan := st.Root.child("scan")
	partSpans := make([]*Span, nparts)
	err := RunParallel(ctx, st.Workers, nparts, func(ctx context.Context, part int) error {
		span := newSpan(fmt.Sprintf("scan[p%d]", part))
		partSpans[part] = span
		set, err := p.getSet(args)
		if err != nil {
			return err
		}
		defer p.putSet(set)
		ps, err := p.scanPartition(ctx, part, tail, set, &parts[part], sink)
		st.PartitionRows[part] = ps.Rows
		span.Rows, span.Bytes = ps.Rows, ps.Bytes
		span.finish()
		return err
	})
	st.Scan = scanSpan.finish()
	finishScanSpan(scanSpan, partSpans, st)
	return parts, err
}

// scanPartition is the one per-partition scan operator. It takes the
// block path when the planner chose it, rerunning the partition
// row-wise if its segment is stale. The row path joins each row with
// the tail, applies the residual WHERE and feeds the projection or the
// aggregate accumulator.
func (p *PreparedSelect) scanPartition(ctx context.Context, part int, tail []sqltypes.Row, set *evalSet, out *partOutput, sink RowSink) (storage.ScanStats, error) {
	emit := func(r sqltypes.Row) error {
		out.emitted++
		if sink != nil {
			return sink(r)
		}
		out.rows = append(out.rows, r.Clone())
		return nil
	}
	if p.vp != nil {
		ps, err := p.vp.scanPartition(ctx, part, emit)
		if !errors.Is(err, storage.ErrSegmentStale) {
			return ps, err
		}
		obs.ColumnarFallbacks.Inc()
	}
	consume := func(flat sqltypes.Row) error {
		for i, ev := range set.items {
			v, err := ev.Eval(flat)
			if err != nil {
				return err
			}
			set.out[i] = v
		}
		return emit(set.out)
	}
	if p.agg != nil {
		out.groups = newGroupTable()
		defer func() { obs.UDFCalls.Add(out.groups.calls) }()
		consume = func(flat sqltypes.Row) error { return out.groups.add(p.agg, set, flat) }
	}
	return p.b.tables[0].table.ScanPartitionStats(ctx, part, func(r sqltypes.Row) error {
		for _, t := range tail {
			copy(set.flat, r)
			copy(set.flat[len(r):], t)
			if set.where != nil {
				keep, err := set.where.Eval(set.flat)
				if err != nil {
					return err
				}
				if keep.IsNull() || !keep.Bool() {
					continue
				}
			}
			if err := consume(set.flat); err != nil {
				return err
			}
		}
		return nil
	})
}

// sortRows stably sorts the materialized output by the ORDER BY keys.
// A bare `ORDER BY ?` bound to an integer is an ordinal, like the
// literal it stands for.
func (p *PreparedSelect) sortRows(args []sqltypes.Value, rows []sqltypes.Row) error {
	set, err := p.getSet(args)
	if err != nil {
		return err
	}
	defer p.putSet(set)
	keys := append([]expr.Evaluator(nil), set.order...)
	for i, o := range p.order {
		if pr, ok := o.Expr.(*sqlparser.ParamRef); ok && args[pr.Index].Type() == sqltypes.TypeBigInt {
			if keys[i], err = p.ordinal(args[pr.Index].Int()); err != nil {
				return err
			}
		}
	}
	var sortErr error
	sort.SliceStable(rows, func(a, c int) bool {
		for i, k := range keys {
			va, err := k.Eval(rows[a])
			if err != nil {
				sortErr = err
				return false
			}
			vc, err := k.Eval(rows[c])
			if err != nil {
				sortErr = err
				return false
			}
			cmp := sqltypes.Compare(va, vc)
			if p.order[i].Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return sortErr
}

type ordinalEval int

func (o ordinalEval) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	return row[int(o)], nil
}

// BindStatementArgs deep-copies stmt with every `?` slot bound to the
// corresponding argument as a literal expression; the db layer's
// prepared-INSERT path executes the bound copy through the general
// executor.
func BindStatementArgs(stmt sqlparser.Statement, args []sqltypes.Value) (sqlparser.Statement, error) {
	lits := make([]sqlparser.Expr, len(args))
	for i, v := range args {
		lits[i] = literalExpr(v)
	}
	return sqlparser.BindParams(stmt, lits)
}

// literalExpr renders a runtime value as a literal expression node.
func literalExpr(v sqltypes.Value) sqlparser.Expr {
	switch v.Type() {
	case sqltypes.TypeNull:
		return &sqlparser.NullLit{}
	case sqltypes.TypeBigInt:
		n := v.Int()
		return &sqlparser.NumberLit{IsInt: true, Int: n, Float: float64(n)}
	case sqltypes.TypeDouble:
		f, _ := v.Float()
		return &sqlparser.NumberLit{Float: f}
	case sqltypes.TypeBool:
		return &sqlparser.BoolLit{Val: v.Bool()}
	default:
		return &sqlparser.StringLit{Val: v.Str()}
	}
}
