package exec

import (
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/engine/obs"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/udf"
)

// aggPlan is the aggregate half of a SELECT plan: the select items
// and HAVING rewritten over the group row [groupValues...,
// aggregateResults...], and the aggregate calls they read.
type aggPlan struct {
	groupBy []sqlparser.Expr
	specs   []aggSpec
	items   []sqlparser.Expr
	having  sqlparser.Expr // nil when absent
}

// planAggregate rewrites the select list and HAVING for the
// post-aggregation phase and checks that, outside aggregate calls,
// they only read GROUP BY expressions.
func planAggregate(sel *sqlparser.Select, items []sqlparser.SelectItem, numParams int, aggs *udf.Registry) (*aggPlan, error) {
	rw := newAggRewriter(sel.GroupBy, numParams, aggs)
	a := &aggPlan{groupBy: sel.GroupBy, items: make([]sqlparser.Expr, len(items))}
	for i, item := range items {
		re, err := rw.rewrite(item.Expr)
		if err != nil {
			return nil, err
		}
		if err := onlyGroupRefs(re, "column"); err != nil {
			return nil, fmt.Errorf("%w (select item %d)", err, i+1)
		}
		a.items[i] = re
	}
	if sel.Having != nil {
		having, err := rw.rewrite(sel.Having)
		if err != nil {
			return nil, err
		}
		if err := onlyGroupRefs(having, "HAVING column"); err != nil {
			return nil, err
		}
		a.having = having
	}
	a.specs = rw.specs
	return a, nil
}

// onlyGroupRefs rejects a rewritten expression that still reads a
// table column.
func onlyGroupRefs(e sqlparser.Expr, what string) error {
	var bad error
	walkRefs(e, func(cr *sqlparser.ColumnRef) {
		if cr.Table != grpQualifier && cr.Table != aggQualifier && bad == nil {
			bad = fmt.Errorf("exec: %s %s must appear in GROUP BY or inside an aggregate", what, cr)
		}
	})
	return bad
}

// resolve maps the synthetic $grp.k/$agg.k references to group-row
// ordinals.
func (a *aggPlan) resolve(table, col string) (int, error) {
	k, err := strconv.Atoi(col)
	if err != nil {
		return 0, fmt.Errorf("exec: internal: bad synthetic column %s.%s", table, col)
	}
	switch table {
	case grpQualifier:
		return k, nil
	case aggQualifier:
		return len(a.groupBy) + k, nil
	}
	return 0, fmt.Errorf("exec: internal: unexpected qualifier %q", table)
}

// groupTable is hash aggregation state (phases 1-2 of the UDF
// protocol for one partition, or the master's merged result). Groups
// keep their first-seen order, so the merge walks partitions in order
// and the output is the same on every run, whatever order the workers
// finish in.
type groupTable struct {
	byKey map[string]*groupState
	order []*groupState
	calls int64 // aggregate-protocol Accumulate calls

	keyBuf  strings.Builder
	keyVals sqltypes.Row
	argBuf  []sqltypes.Value
}

// groupState is the per-group working storage: one UDF state per
// aggregate spec plus the group key values. DISTINCT specs defer
// accumulation: they collect the value set during the scan and fold it
// into the state only after the cross-partition set union, so a value
// seen in two partitions counts once.
type groupState struct {
	key     string
	keyVals sqltypes.Row
	states  []udf.State
	seen    []*distinctSet // per spec; nil when not DISTINCT
}

// distinctSet is one DISTINCT aggregate's argument set in first-seen
// order.
type distinctSet struct {
	keys map[string]bool
	rows []sqltypes.Row
}

func (d *distinctSet) add(args sqltypes.Row) {
	k := distinctKey(args)
	if !d.keys[k] {
		d.keys[k] = true
		d.rows = append(d.rows, args.Clone())
	}
}

func newGroupTable() *groupTable {
	return &groupTable{byKey: make(map[string]*groupState)}
}

func (gt *groupTable) insert(g *groupState) {
	gt.byKey[g.key] = g
	gt.order = append(gt.order, g)
}

// add folds one joined, filtered row into its group.
func (gt *groupTable) add(a *aggPlan, set *evalSet, flat sqltypes.Row) error {
	if cap(gt.keyVals) < len(set.groups) {
		gt.keyVals = make(sqltypes.Row, len(set.groups))
	}
	keyVals := gt.keyVals[:len(set.groups)]
	gt.keyBuf.Reset()
	for i, ev := range set.groups {
		v, err := ev.Eval(flat)
		if err != nil {
			return err
		}
		keyVals[i] = v
		s := v.String()
		gt.keyBuf.WriteString(strconv.Itoa(len(s)))
		gt.keyBuf.WriteByte(':')
		gt.keyBuf.WriteString(s)
	}
	key := gt.keyBuf.String()
	g, ok := gt.byKey[key]
	if !ok {
		ng, err := newGroupState(key, keyVals, a.specs)
		if err != nil {
			return err
		}
		g = ng
		gt.insert(g)
	}
	for i, s := range a.specs {
		var args []sqltypes.Value
		if !s.star {
			evs := set.args[i]
			if cap(gt.argBuf) < len(evs) {
				gt.argBuf = make([]sqltypes.Value, len(evs))
			}
			args = gt.argBuf[:len(evs)]
			for j, ev := range evs {
				v, err := ev.Eval(flat)
				if err != nil {
					return err
				}
				args[j] = v
			}
		}
		if g.seen[i] != nil {
			g.seen[i].add(args) // accumulated after the global set union
			continue
		}
		if err := s.agg.Accumulate(g.states[i], args); err != nil {
			return err
		}
		gt.calls++
	}
	return nil
}

// aggregate merges the per-partition partials in partition order
// (phase 3), then finalizes each group and evaluates HAVING and the
// post-aggregation items (phase 4), returning one row per group in
// first-seen order.
func (p *PreparedSelect) aggregate(parts []*groupTable, set *evalSet, st *Stats) (_ []sqltypes.Row, err error) {
	// Scan-phase panics are contained per partition by RunParallel; this
	// guard covers the merge and finalize phases, which run UDF code
	// (Merge, Finalize) on the coordinating goroutine.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exec: panic during aggregation: %v\n%s", r, debug.Stack())
		}
	}()
	a := p.agg
	mergeSpan := st.Root.child("merge")
	merged := newGroupTable()
	for _, part := range parts {
		for _, src := range part.order {
			dst, ok := merged.byKey[src.key]
			if !ok {
				merged.insert(src)
				continue
			}
			for i, s := range a.specs {
				if dst.seen[i] != nil {
					for _, args := range src.seen[i].rows {
						dst.seen[i].add(args)
					}
					continue
				}
				if err := s.agg.Merge(dst.states[i], src.states[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	st.Merge = mergeSpan.finish()

	// Global aggregate over an empty input still yields one row.
	if len(a.groupBy) == 0 && len(merged.order) == 0 {
		g, err := newGroupState("", nil, a.specs)
		if err != nil {
			return nil, err
		}
		merged.insert(g)
	}

	finalizeSpan := st.Root.child("finalize")
	defer func() { st.Finalize = finalizeSpan.finish() }()
	var rows []sqltypes.Row
	groupRow := make(sqltypes.Row, len(a.groupBy)+len(a.specs))
	for _, g := range merged.order {
		copy(groupRow, g.keyVals)
		for i, s := range a.specs {
			if g.seen[i] != nil {
				// Fold the (now global) distinct set into the state.
				for _, args := range g.seen[i].rows {
					if err := s.agg.Accumulate(g.states[i], args); err != nil {
						return nil, err
					}
				}
				obs.UDFCalls.Add(int64(len(g.seen[i].rows)))
			}
			v, err := s.agg.Finalize(g.states[i])
			if err != nil {
				return nil, err
			}
			groupRow[len(a.groupBy)+i] = v
		}
		if set.having != nil {
			keep, err := set.having.Eval(groupRow)
			if err != nil {
				return nil, err
			}
			if keep.IsNull() || !keep.Bool() {
				continue
			}
		}
		out := make(sqltypes.Row, len(set.items))
		for i, ev := range set.items {
			v, err := ev.Eval(groupRow)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		rows = append(rows, out)
	}
	return rows, nil
}

func newGroupState(key string, keyVals sqltypes.Row, specs []aggSpec) (*groupState, error) {
	g := &groupState{
		key:     key,
		keyVals: keyVals.Clone(),
		states:  make([]udf.State, len(specs)),
		seen:    make([]*distinctSet, len(specs)),
	}
	for i, s := range specs {
		st, err := s.agg.Init(udf.NewHeap(udf.SegmentSize))
		if err != nil {
			return nil, err
		}
		g.states[i] = st
		if s.distinct {
			g.seen[i] = &distinctSet{keys: make(map[string]bool)}
		}
	}
	return g, nil
}

func distinctKey(args []sqltypes.Value) string {
	var b strings.Builder
	for _, v := range args {
		s := v.String()
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	return b.String()
}

// walkRefs visits every column reference in an expression.
func walkRefs(e sqlparser.Expr, fn func(*sqlparser.ColumnRef)) {
	switch e := e.(type) {
	case *sqlparser.ColumnRef:
		fn(e)
	case *sqlparser.UnaryExpr:
		walkRefs(e.X, fn)
	case *sqlparser.BinaryExpr:
		walkRefs(e.L, fn)
		walkRefs(e.R, fn)
	case *sqlparser.FuncCall:
		for _, a := range e.Args {
			walkRefs(a, fn)
		}
	case *sqlparser.CaseExpr:
		for _, w := range e.Whens {
			walkRefs(w.Cond, fn)
			walkRefs(w.Then, fn)
		}
		if e.Else != nil {
			walkRefs(e.Else, fn)
		}
	case *sqlparser.IsNullExpr:
		walkRefs(e.X, fn)
	case *sqlparser.CastExpr:
		walkRefs(e.X, fn)
	case *sqlparser.BetweenExpr:
		walkRefs(e.X, fn)
		walkRefs(e.Lo, fn)
		walkRefs(e.Hi, fn)
	case *sqlparser.InExpr:
		walkRefs(e.X, fn)
		for _, x := range e.List {
			walkRefs(x, fn)
		}
	}
}
