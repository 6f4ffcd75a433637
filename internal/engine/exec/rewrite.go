package exec

import (
	"strconv"
	"strings"

	"repro/internal/engine/expr"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/udf"
)

// aggSpec is one aggregate call extracted from the select list.
type aggSpec struct {
	agg      udf.Aggregate
	args     []sqlparser.Expr
	star     bool
	distinct bool
	key      string // canonical text, for deduplication
}

// grpQualifier and aggQualifier are synthetic table names used by
// rewritten post-aggregation expressions; resolved against the group
// row [groupValues..., aggregateResults...].
const (
	grpQualifier = "$grp"
	aggQualifier = "$agg"
)

// aggRewriter rewrites select-list expressions for the
// post-aggregation evaluation phase: subtrees textually equal to a
// GROUP BY expression become $grp.k references, and aggregate calls
// become $agg.k references while being collected (deduplicated) into
// specs.
type aggRewriter struct {
	aggs      *udf.Registry
	slots     []sqlparser.Expr // slot-numbered stand-ins for `?`, one per parameter
	groupKeys []string         // key of each GROUP BY expression
	specs     []aggSpec
}

func newAggRewriter(groupBy []sqlparser.Expr, numParams int, aggs *udf.Registry) *aggRewriter {
	r := &aggRewriter{aggs: aggs, slots: make([]sqlparser.Expr, numParams)}
	for i := range r.slots {
		r.slots[i] = slotRef{&sqlparser.ParamRef{Index: i}}
	}
	for _, g := range groupBy {
		r.groupKeys = append(r.groupKeys, r.key(g))
	}
	return r
}

// slotRef stands in for a `?` when expressions are compared by text.
// ParamRef prints as a bare "?", so without slot numbers sum(x * ?)
// reading two different slots would collapse into one aggregate.
type slotRef struct{ *sqlparser.ParamRef }

func (s slotRef) String() string { return "?" + strconv.Itoa(s.Index+1) }

// key is e's canonical text with every `?` numbered by slot.
func (r *aggRewriter) key(e sqlparser.Expr) string {
	if len(r.slots) == 0 {
		return e.String()
	}
	return sqlparser.SubstituteParams(e, r.slots).String()
}

// rewrite returns e rewritten over the group row
// [groupValues..., aggregateResults...].
func (r *aggRewriter) rewrite(e sqlparser.Expr) (sqlparser.Expr, error) {
	if len(r.groupKeys) > 0 {
		k := r.key(e)
		for i, g := range r.groupKeys {
			if k == g {
				return &sqlparser.ColumnRef{Table: grpQualifier, Name: strconv.Itoa(i)}, nil
			}
		}
	}
	if fc, ok := e.(*sqlparser.FuncCall); ok {
		name := strings.ToLower(fc.Name)
		if agg, found := r.aggs.Lookup(name); found && (expr.AggregateNames[name] || !isScalarOnly(name)) {
			key := r.key(fc)
			for k, s := range r.specs {
				if s.key == key {
					return &sqlparser.ColumnRef{Table: aggQualifier, Name: strconv.Itoa(k)}, nil
				}
			}
			nargs := len(fc.Args)
			if fc.Star {
				nargs = 0
			}
			if err := agg.CheckArgs(nargs); err != nil {
				return nil, err
			}
			r.specs = append(r.specs, aggSpec{agg: agg, args: fc.Args, star: fc.Star, distinct: fc.Distinct, key: key})
			return &sqlparser.ColumnRef{Table: aggQualifier, Name: strconv.Itoa(len(r.specs) - 1)}, nil
		}
	}
	// Recurse structurally, rebuilding the node.
	var err error
	switch e := e.(type) {
	case *sqlparser.UnaryExpr:
		out := &sqlparser.UnaryExpr{Op: e.Op}
		out.X, err = r.rewrite(e.X)
		return out, err
	case *sqlparser.BinaryExpr:
		out := &sqlparser.BinaryExpr{Op: e.Op}
		if out.L, err = r.rewrite(e.L); err != nil {
			return nil, err
		}
		out.R, err = r.rewrite(e.R)
		return out, err
	case *sqlparser.FuncCall:
		out := &sqlparser.FuncCall{Name: e.Name, Star: e.Star, Distinct: e.Distinct}
		out.Args = make([]sqlparser.Expr, len(e.Args))
		for i, a := range e.Args {
			if out.Args[i], err = r.rewrite(a); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *sqlparser.CaseExpr:
		out := &sqlparser.CaseExpr{}
		for _, w := range e.Whens {
			var nw sqlparser.When
			if nw.Cond, err = r.rewrite(w.Cond); err != nil {
				return nil, err
			}
			if nw.Then, err = r.rewrite(w.Then); err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, nw)
		}
		if e.Else != nil {
			if out.Else, err = r.rewrite(e.Else); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *sqlparser.IsNullExpr:
		out := &sqlparser.IsNullExpr{Negate: e.Negate}
		out.X, err = r.rewrite(e.X)
		return out, err
	case *sqlparser.CastExpr:
		out := &sqlparser.CastExpr{Type: e.Type}
		out.X, err = r.rewrite(e.X)
		return out, err
	case *sqlparser.BetweenExpr:
		out := &sqlparser.BetweenExpr{Negate: e.Negate}
		if out.X, err = r.rewrite(e.X); err != nil {
			return nil, err
		}
		if out.Lo, err = r.rewrite(e.Lo); err != nil {
			return nil, err
		}
		out.Hi, err = r.rewrite(e.Hi)
		return out, err
	case *sqlparser.InExpr:
		out := &sqlparser.InExpr{Negate: e.Negate}
		if out.X, err = r.rewrite(e.X); err != nil {
			return nil, err
		}
		out.List = make([]sqlparser.Expr, len(e.List))
		for i, x := range e.List {
			if out.List[i], err = r.rewrite(x); err != nil {
				return nil, err
			}
		}
		return out, nil
	default:
		// Literals and column refs pass through unchanged.
		return e, nil
	}
}

// isScalarOnly reports whether name should never be treated as an
// aggregate even if somehow present in the aggregate registry.
// Currently no overlaps exist; the hook keeps the namespaces honest.
func isScalarOnly(string) bool { return false }
