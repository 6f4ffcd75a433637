package exec

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/engine/expr"
	"repro/internal/engine/obs"
	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// The columnar execution mode (Env.Columnar / twmd -columnar) swaps the
// row-at-a-time interpreter for block-at-a-time kernels wherever that
// is provably equivalent: n/L/Q summary scans run UpdateBlock over
// segment blocks, and simple projections run compiled vector programs.
// The planner (PrepareSelect) is the only place that chooses the block
// path for a projection. Everything else — and every partition whose
// segment is stale — falls back to the row path, counted by
// engine_columnar_fallbacks_total, so turning the flag on can change
// performance but never results.

// nlqBlocksEligible reports whether the summary scan over cols can use
// block kernels: every selected column must be numeric *by schema
// type*. The row path's Value.Float() succeeds on numeric-looking
// VARCHAR values, so a VARCHAR column would contribute operands on the
// row path that segment blocks don't carry — such scans stay row-wise.
func nlqBlocksEligible(t *storage.Table, cols []int) bool {
	schema := t.Schema()
	for _, c := range cols {
		if c < 0 || c >= schema.Len() || !storage.NumericColumn(schema.Columns[c]) {
			return false
		}
	}
	return true
}

// computeNLQBlocks accumulates partition p of t into s block-wise.
// seen counts every delivered row — including rows masked out for NULL
// values — exactly like the row path's pre-skip counts[p]++, so the
// summary cache's validity stamps are identical in both modes. The
// bool result reports whether the block path ran: a stale segment
// returns (false, nil) before any row is accumulated and the caller
// reruns the partition row-wise.
func computeNLQBlocks(ctx context.Context, t *storage.Table, p int, cols []int, s *core.NLQ, seen *int64) (bool, error) {
	rowValid := make([]bool, 0, 4096)
	_, err := t.ScanPartitionBlocks(ctx, p, cols, func(b *storage.Block) error {
		*seen += int64(b.Rows)
		// AND the per-column validity lanes column-major: each pass is a
		// sequential sweep instead of a strided gather per row.
		rowValid = rowValid[:0]
		if len(b.Valid) == 0 {
			for r := 0; r < b.Rows; r++ {
				rowValid = append(rowValid, true)
			}
		} else {
			rowValid = append(rowValid, b.Valid[0][:b.Rows]...)
			for _, v := range b.Valid[1:] {
				for r, ok := range v[:b.Rows] {
					if !ok {
						rowValid[r] = false
					}
				}
			}
		}
		return s.UpdateBlock(b.Cols, rowValid)
	})
	if errors.Is(err, storage.ErrSegmentStale) {
		return false, nil
	}
	return err == nil, err
}

// errNotVectorizable marks projections the vector path declines (shape
// restrictions beyond CompileVector's, e.g. constant-only items).
var errNotVectorizable = errors.New("exec: projection not vectorizable")

// vecProjection is the plan for a vectorized single-table projection:
// the expressions to recompile per worker plus the union of referenced
// column ordinals, with each program's columns mapped to union slots.
type vecProjection struct {
	items    []sqlparser.SelectItem
	residual sqlparser.Expr
	b        *binding
	vec      func(int) bool
	cols     []int // union of referenced schema ordinals
	slot     map[int]int
}

// planVecProjection validates that a single-table projection can run
// on the vector path: every select item compiles to a numeric vector
// program referencing at least one column (constant-only items keep
// their scalar typing — SELECT 1+1 must stay a BIGINT), and the WHERE
// residual, if any, compiles to a predicate program. Only DOUBLE
// columns are vectorizable here: projecting a BIGINT column through
// float64 blocks would retype the output.
func planVecProjection(items []sqlparser.SelectItem, residual sqlparser.Expr, b *binding) (*vecProjection, error) {
	schema := b.tables[0].table.Schema()
	vec := func(ord int) bool {
		return ord >= 0 && ord < schema.Len() && schema.Columns[ord].Type == sqltypes.TypeDouble
	}
	vp := &vecProjection{items: items, residual: residual, b: b, vec: vec, slot: map[int]int{}}
	add := func(p *expr.VectorProgram) {
		for _, c := range p.Cols() {
			if _, ok := vp.slot[c]; !ok {
				vp.slot[c] = len(vp.cols)
				vp.cols = append(vp.cols, c)
			}
		}
	}
	if residual != nil {
		p, err := expr.CompileVector(residual, b.resolve, vec)
		if err != nil {
			return nil, err
		}
		if !p.IsBool() {
			return nil, errNotVectorizable
		}
		add(p)
	}
	for _, item := range items {
		p, err := expr.CompileVector(item.Expr, b.resolve, vec)
		if err != nil {
			return nil, err
		}
		if p.IsBool() || len(p.Cols()) == 0 {
			return nil, errNotVectorizable
		}
		add(p)
	}
	return vp, nil
}

// scanPartition runs the block path over one partition, emitting the
// projected rows in scan order. A stale segment fails with
// storage.ErrSegmentStale before any row is emitted, so the caller can
// rerun the partition row-wise. Programs are compiled per call: they
// carry evaluation buffers, like the row path's evaluator sets.
func (vp *vecProjection) scanPartition(ctx context.Context, p int, emit RowSink) (storage.ScanStats, error) {
	var whereProg *expr.VectorProgram
	if vp.residual != nil {
		w, err := expr.CompileVector(vp.residual, vp.b.resolve, vp.vec)
		if err != nil {
			return storage.ScanStats{}, err
		}
		whereProg = w
	}
	progs := make([]*expr.VectorProgram, len(vp.items))
	for i, item := range vp.items {
		prog, err := expr.CompileVector(item.Expr, vp.b.resolve, vp.vec)
		if err != nil {
			return storage.ScanStats{}, err
		}
		progs[i] = prog
	}
	// Per-program views of the union block, in the program's slot order.
	view := func(prog *expr.VectorProgram) ([][]float64, [][]bool) {
		refs := prog.Cols()
		return make([][]float64, len(refs)), make([][]bool, len(refs))
	}
	fill := func(prog *expr.VectorProgram, blk *storage.Block, cols [][]float64, valid [][]bool) {
		for i, ord := range prog.Cols() {
			s := vp.slot[ord]
			cols[i] = blk.Cols[s][:blk.Rows]
			valid[i] = blk.Valid[s][:blk.Rows]
		}
	}
	var whereCols [][]float64
	var whereValid [][]bool
	if whereProg != nil {
		whereCols, whereValid = view(whereProg)
	}
	itemCols := make([][][]float64, len(progs))
	itemValid := make([][][]bool, len(progs))
	for i, prog := range progs {
		itemCols[i], itemValid[i] = view(prog)
	}
	var (
		mask  []bool
		ops   int64
		out   = make(sqltypes.Row, len(progs))
		vals  = make([][]float64, len(progs))
		valid = make([][]bool, len(progs))
	)
	defer func() { obs.ColumnarVectorOps.Add(ops) }()
	return vp.b.tables[0].table.ScanPartitionBlocks(ctx, p, vp.cols, func(blk *storage.Block) error {
		if whereProg != nil {
			fill(whereProg, blk, whereCols, whereValid)
			truth, err := whereProg.EvalBool(whereCols, whereValid, blk.Rows, nil)
			if err != nil {
				return err
			}
			ops += whereProg.Ops()
			if cap(mask) < blk.Rows {
				mask = make([]bool, blk.Rows)
			}
			mask = mask[:blk.Rows]
			any := false
			for r := range mask {
				mask[r] = truth[r] == expr.TruthTrue
				any = any || mask[r]
			}
			if !any {
				return nil
			}
		} else {
			mask = nil
		}
		for i, prog := range progs {
			fill(prog, blk, itemCols[i], itemValid[i])
			v, ok, err := prog.EvalNum(itemCols[i], itemValid[i], blk.Rows, mask)
			if err != nil {
				return err
			}
			ops += prog.Ops()
			vals[i], valid[i] = v, ok
		}
		for r := 0; r < blk.Rows; r++ {
			if mask != nil && !mask[r] {
				continue
			}
			for i := range progs {
				if valid[i][r] {
					out[i] = sqltypes.NewDouble(vals[i][r])
				} else {
					out[i] = sqltypes.Null
				}
			}
			if err := emit(out); err != nil {
				return err
			}
		}
		return nil
	})
}
