package exec

import (
	"fmt"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file compiles the common conjunct shapes of a SelFilter — a column
// compared against a constant, BETWEEN two constants, or IS NULL — into
// direct kernels that walk the page's column vector once and write the
// keep mask in place. The generic EvalPredBatch path materializes a
// broadcast column per constant and a result column per node; for the
// single-conjunct scans that dominate point and range queries those
// allocations are most of the scan cost. A kernel touches only the datums the selection references and
// allocates nothing.
//
// Semantics contract: a kernel must drop exactly the rows EvalPredBatch
// would drop (NULL and FALSE) and must fail on exactly the predicates the
// generic path would fail on (incomparable types). A kernel error does not
// need to reproduce the row path's error value: the batch is replayed
// through the original conjunction on any error (selEval.replay), and that
// outcome is authoritative.

// selKernelFn evaluates one compiled conjunct against the filter's view
// batch, writing keep[si] for each logical row si (mapped through
// view.Sel); params are the statement's bound values, which a kernel over
// a ParamExpr reads per call. Any error sends the page to the replay path.
type selKernelFn func(view *RowBatch, keep []bool, params []types.Datum) error

// kernelOperand is a kernel's constant side: a literal value, or the slot
// of a parameter read from the execution's values.
type kernelOperand struct {
	val  types.Datum
	slot int // -1 for a literal
}

// operandOf recognizes a constant kernel operand.
func operandOf(e Expr) (kernelOperand, bool) {
	switch x := e.(type) {
	case *ConstExpr:
		return kernelOperand{val: x.Val, slot: -1}, true
	case *ParamExpr:
		return kernelOperand{slot: x.Slot}, true
	}
	return kernelOperand{}, false
}

// value is the operand's value under params; an unbound parameter is an
// error, which sends the page to the replay path and its error.
func (o kernelOperand) value(params []types.Datum) (types.Datum, error) {
	if o.slot < 0 {
		return o.val, nil
	}
	if o.slot >= len(params) {
		return types.Datum{}, errUnbound{o.slot}
	}
	return params[o.slot], nil
}

// compileSelKernel returns a direct kernel for pred, or nil when the shape
// is not recognized and the conjunct must evaluate through EvalPredBatch.
// pred is the rewritten conjunct: extraction atoms are already slot
// ColExprs, so kernels cover extraction predicates too.
func compileSelKernel(pred Expr) selKernelFn {
	switch x := pred.(type) {
	case *BinExpr:
		switch x.Op {
		case "=", "<>", "<", "<=", ">", ">=":
		default:
			return nil
		}
		if col, ok := x.L.(*ColExpr); ok {
			if c, ok := operandOf(x.R); ok {
				return cmpKernel(x.Op, col.Idx, c, false)
			}
		}
		if col, ok := x.R.(*ColExpr); ok {
			if c, ok := operandOf(x.L); ok {
				return cmpKernel(x.Op, col.Idx, c, true)
			}
		}
	case *BetweenExpr:
		col, okX := x.X.(*ColExpr)
		lo, okLo := operandOf(x.Lo)
		hi, okHi := operandOf(x.Hi)
		if okX && okLo && okHi {
			return betweenKernel(col.Idx, lo, hi, x.Not)
		}
	case *IsNullExpr:
		if col, ok := x.X.(*ColExpr); ok {
			return isNullKernel(col.Idx, x.Not)
		}
	}
	return nil
}

// errSelKernelCmp is the replay trigger for incomparable operands. Never
// surfaced: the replay pass reproduces the row path's own error.
var errSelKernelCmp = fmt.Errorf("exec: selection kernel: incomparable operands")

// cmpKernel compiles `col <op> const` (flip reverses the operand order).
// A NULL constant makes every comparison NULL, which the predicate mask
// drops — the kernel short-circuits to an all-false mask.
func cmpKernel(op string, idx int, c kernelOperand, flip bool) selKernelFn {
	var lt, eq, gt bool // mask outcome by comparison sign
	switch op {
	case "=":
		eq = true
	case "<>":
		lt, gt = true, true
	case "<":
		lt = true
	case "<=":
		lt, eq = true, true
	case ">":
		gt = true
	case ">=":
		gt, eq = true, true
	}
	if flip {
		lt, gt = gt, lt
	}
	return func(view *RowBatch, keep []bool, params []types.Datum) error {
		val, err := c.value(params)
		if err != nil {
			return err
		}
		return cmpMask(view.Cols[idx], view.Sel, view.Len(), keep, val, lt, eq, gt)
	}
}

// cmpMask writes keep[si] for `vals[row] <op> val` over the n logical rows
// of sel, op given by its outcome per comparison sign.
func cmpMask(vals []types.Datum, sel []int32, n int, keep []bool, val types.Datum, lt, eq, gt bool) error {
	if val.IsNull() {
		for si := 0; si < n; si++ {
			keep[si] = false
		}
		return nil
	}
	if val.Typ == types.Text {
		// Point probes over text columns (the common dictionary-string
		// equality) compare inline; rows of any other type replay.
		v := val.Text()
		for si := 0; si < n; si++ {
			d := vals[selIdx(sel, si)]
			if d.IsNull() {
				keep[si] = false
				continue
			}
			if d.Typ != types.Text {
				return errSelKernelCmp
			}
			switch t := d.Text(); {
			case t == v:
				keep[si] = eq
			case t < v:
				keep[si] = lt
			default:
				keep[si] = gt
			}
		}
		return nil
	}
	for si := 0; si < n; si++ {
		d := vals[selIdx(sel, si)]
		if d.IsNull() {
			keep[si] = false
			continue
		}
		c, err := types.Compare(d, val)
		if err != nil {
			return errSelKernelCmp
		}
		switch {
		case c < 0:
			keep[si] = lt
		case c > 0:
			keep[si] = gt
		default:
			keep[si] = eq
		}
	}
	return nil
}

// betweenKernel compiles `col [NOT] BETWEEN lo AND hi` with BetweenExpr's
// three-valued semantics: a definitely-false bound yields NOT (so NOT
// BETWEEN keeps the row), any remaining NULL bound yields NULL (dropped).
func betweenKernel(idx int, loOp, hiOp kernelOperand, not bool) selKernelFn {
	return func(view *RowBatch, keep []bool, params []types.Datum) error {
		lo, err := loOp.value(params)
		if err != nil {
			return err
		}
		hi, err := hiOp.value(params)
		if err != nil {
			return err
		}
		loNull, hiNull := lo.IsNull(), hi.IsNull()
		vals := view.Cols[idx]
		sel := view.Sel
		n := view.Len()
		for si := 0; si < n; si++ {
			d := vals[selIdx(sel, si)]
			var geLo, leHi, geLoNull, leHiNull bool
			if loNull || d.IsNull() {
				geLoNull = true
			} else {
				c, err := types.Compare(d, lo)
				if err != nil {
					return errSelKernelCmp
				}
				geLo = c >= 0
			}
			if hiNull || d.IsNull() {
				leHiNull = true
			} else {
				c, err := types.Compare(d, hi)
				if err != nil {
					return errSelKernelCmp
				}
				leHi = c <= 0
			}
			switch {
			case geLoNull || leHiNull:
				if (!geLoNull && !geLo) || (!leHiNull && !leHi) {
					keep[si] = not
				} else {
					keep[si] = false // NULL
				}
			default:
				keep[si] = (geLo && leHi) != not
			}
		}
		return nil
	}
}

// isNullKernel compiles `col IS [NOT] NULL`.
func isNullKernel(idx int, not bool) selKernelFn {
	return func(view *RowBatch, keep []bool, _ []types.Datum) error {
		vals := view.Cols[idx]
		sel := view.Sel
		n := view.Len()
		for si := 0; si < n; si++ {
			keep[si] = vals[selIdx(sel, si)].IsNull() != not
		}
		return nil
	}
}
