package exec

import (
	"fmt"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// EvalCtx carries the reusable scratch state for batch expression
// evaluation: an argument buffer for function calls and the statement's
// parameter values. One EvalCtx belongs to one operator; it is not safe
// for concurrent use.
type EvalCtx struct {
	argBuf []types.Datum
	// consts caches the broadcast column of each ConstExpr and ParamExpr
	// node across batches (its content never changes during one
	// execution), so constant arguments cost one allocation per query
	// instead of one per batch.
	consts map[Expr][]types.Datum
	// params are the values ParamExprs evaluate to (SetParams).
	params []types.Datum
	// predCol is a scratch result column armed by EvalPredBatch and
	// claimed by at most one node per predicate evaluation. Predicate
	// columns are reduced to a keep mask immediately, so reusing the
	// buffer across batches is safe there — but nowhere else: project
	// results are retained as output columns.
	predCol      []types.Datum
	predColArmed bool
}

// NewEvalCtx returns a fresh evaluation context.
func NewEvalCtx() *EvalCtx { return &EvalCtx{} }

// SetParams gives the context the statement's parameter values; an
// operator sets them before its first EvalBatch.
func (c *EvalCtx) SetParams(params []types.Datum) { c.params = params }

// broadcast returns the cached column of phys copies of v for node e.
func (c *EvalCtx) broadcast(e Expr, v types.Datum, phys int) []types.Datum {
	if c.consts == nil {
		c.consts = make(map[Expr][]types.Datum)
	}
	col := c.consts[e]
	if len(col) < phys {
		col = make([]types.Datum, phys)
		for i := range col {
			col[i] = v
		}
		c.consts[e] = col
	}
	return col[:phys]
}

// EvalBatch evaluates e over every row of b and returns the result column.
//
// Nodes with eager evaluation semantics (comparisons, arithmetic, concat,
// NOT, negation, IS NULL, BETWEEN, LIKE, ANY, CAST, function calls) are
// walked once per batch: each child is materialized as a full column, then
// a tight loop combines them. Nodes with lazy/short-circuit semantics (AND,
// OR, COALESCE, IN-list) evaluate each later operand over a narrowed
// selection of the same batch — the rows the earlier operands left
// undecided — so a skipped operand is truly not evaluated: the same values,
// the same errors and the same evaluations as SQL's row-at-a-time
// semantics. AND is σ_{p∧q} = σ_q∘σ_p: its right side sees the rows its
// left side did not make FALSE.
//
// The returned slice may alias a column of b (ColExpr is free); callers
// must copy before mutating. On error the first failing child is reported,
// and of it the first failing row in row order.
//
// Result columns are physically indexed: they hold PhysLen entries and
// only the positions a selection vector references are written, so parent
// nodes index them exactly like columns of b. Rows outside the selection
// are never evaluated.
func EvalBatch(e Expr, b *RowBatch, ctx *EvalCtx) ([]types.Datum, error) {
	n := b.Len()
	sel := b.Sel
	phys := b.PhysLen()
	switch x := e.(type) {
	case *ColExpr:
		return b.Cols[x.Idx], nil

	case *ConstExpr:
		return ctx.broadcast(x, x.Val, phys), nil

	case *ParamExpr:
		v, err := paramValue(x, ctx.params)
		if err != nil {
			return nil, err
		}
		return ctx.broadcast(x, v, phys), nil

	case *BinExpr:
		if x.Op == "AND" || x.Op == "OR" {
			return evalLogicalBatch(x, b, ctx)
		}
		l, err := EvalBatch(x.L, b, ctx)
		if err != nil {
			return nil, err
		}
		r, err := EvalBatch(x.R, b, ctx)
		if err != nil {
			return nil, err
		}
		out := make([]types.Datum, phys)
		switch x.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			for si := 0; si < n; si++ {
				i := selIdx(sel, si)
				if out[i], err = evalComparison(x.Op, l[i], r[i]); err != nil {
					return nil, err
				}
			}
		case "||":
			for si := 0; si < n; si++ {
				i := selIdx(sel, si)
				if l[i].IsNull() || r[i].IsNull() {
					out[i] = types.NewNull(types.Text)
					continue
				}
				ls, err := types.Cast(l[i], types.Text)
				if err != nil {
					return nil, err
				}
				rs, err := types.Cast(r[i], types.Text)
				if err != nil {
					return nil, err
				}
				out[i] = types.NewText(ls.Text() + rs.Text())
			}
		default:
			for si := 0; si < n; si++ {
				i := selIdx(sel, si)
				if out[i], err = evalArith(x.Op, l[i], r[i]); err != nil {
					return nil, err
				}
			}
		}
		return out, nil

	case *NotExpr:
		in, err := EvalBatch(x.X, b, ctx)
		if err != nil {
			return nil, err
		}
		out := make([]types.Datum, phys)
		for si := 0; si < n; si++ {
			i := selIdx(sel, si)
			t, isNull, err := truth(in[i])
			if err != nil {
				return nil, err
			}
			if isNull {
				out[i] = types.NewNull(types.Bool)
			} else {
				out[i] = types.NewBool(!t)
			}
		}
		return out, nil

	case *NegExpr:
		in, err := EvalBatch(x.X, b, ctx)
		if err != nil {
			return nil, err
		}
		out := make([]types.Datum, phys)
		for si := 0; si < n; si++ {
			i := selIdx(sel, si)
			v := in[i]
			switch {
			case v.IsNull():
				out[i] = v
			case v.Typ == types.Int:
				out[i] = types.NewInt(-v.I)
			case v.Typ == types.Float:
				out[i] = types.NewFloat(-v.Float())
			default:
				return nil, fmt.Errorf("exec: cannot negate %v", v.Typ)
			}
		}
		return out, nil

	case *IsNullExpr:
		in, err := EvalBatch(x.X, b, ctx)
		if err != nil {
			return nil, err
		}
		out := make([]types.Datum, phys)
		for si := 0; si < n; si++ {
			i := selIdx(sel, si)
			out[i] = types.NewBool(in[i].IsNull() != x.Not)
		}
		return out, nil

	case *BetweenExpr:
		xs, err := EvalBatch(x.X, b, ctx)
		if err != nil {
			return nil, err
		}
		lo, err := EvalBatch(x.Lo, b, ctx)
		if err != nil {
			return nil, err
		}
		hi, err := EvalBatch(x.Hi, b, ctx)
		if err != nil {
			return nil, err
		}
		out := make([]types.Datum, phys)
		for si := 0; si < n; si++ {
			i := selIdx(sel, si)
			geLo, err := evalComparison(">=", xs[i], lo[i])
			if err != nil {
				return nil, err
			}
			leHi, err := evalComparison("<=", xs[i], hi[i])
			if err != nil {
				return nil, err
			}
			switch {
			case geLo.IsNull() || leHi.IsNull():
				if (!geLo.IsNull() && !geLo.Bool()) || (!leHi.IsNull() && !leHi.Bool()) {
					out[i] = types.NewBool(x.Not)
				} else {
					out[i] = types.NewNull(types.Bool)
				}
			default:
				out[i] = types.NewBool((geLo.Bool() && leHi.Bool()) != x.Not)
			}
		}
		return out, nil

	case *LikeExpr:
		xs, err := EvalBatch(x.X, b, ctx)
		if err != nil {
			return nil, err
		}
		ps, err := EvalBatch(x.Pattern, b, ctx)
		if err != nil {
			return nil, err
		}
		out := make([]types.Datum, phys)
		for si := 0; si < n; si++ {
			i := selIdx(sel, si)
			if xs[i].IsNull() || ps[i].IsNull() {
				out[i] = types.NewNull(types.Bool)
				continue
			}
			xv, err := types.Cast(xs[i], types.Text)
			if err != nil {
				return nil, err
			}
			pv, err := types.Cast(ps[i], types.Text)
			if err != nil {
				return nil, err
			}
			rx, err := x.compiled(pv.Text())
			if err != nil {
				return nil, err
			}
			out[i] = types.NewBool(rx.MatchString(xv.Text()) != x.Not)
		}
		return out, nil

	case *AnyExpr:
		// Both operands are evaluated for every row (no short circuit
		// between them), so the node is eager. The predicate scratch
		// column is claimed before the operands run, so a lazy operand
		// allocates its own.
		out := ctx.resultCol(phys)
		xs, err := EvalBatch(x.X, b, ctx)
		if err != nil {
			return nil, err
		}
		arrs, err := EvalBatch(x.Array, b, ctx)
		if err != nil {
			return nil, err
		}
		for si := 0; si < n; si++ {
			i := selIdx(sel, si)
			if out[i], err = evalAny(x.Op, xs[i], arrs[i]); err != nil {
				return nil, err
			}
		}
		return out, nil

	case *CastExpr:
		in, err := EvalBatch(x.X, b, ctx)
		if err != nil {
			return nil, err
		}
		out := make([]types.Datum, phys)
		for si := 0; si < n; si++ {
			i := selIdx(sel, si)
			if out[i], err = types.Cast(in[i], x.To); err != nil {
				return nil, err
			}
		}
		return out, nil

	case *CallExpr:
		cols := make([][]types.Datum, len(x.Args))
		for k, a := range x.Args {
			col, err := EvalBatch(a, b, ctx)
			if err != nil {
				return nil, err
			}
			cols[k] = col
		}
		out := make([]types.Datum, phys)
		args := ctx.args(len(x.Args))
		for si := 0; si < n; si++ {
			i := selIdx(sel, si)
			for k := range cols {
				args[k] = cols[k][i]
			}
			v, err := x.Def.Eval(args)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil

	case *CoalesceExpr:
		return evalCoalesceBatch(x, b, ctx)

	case *InListExpr:
		return evalInListBatch(x, b, ctx)

	default:
		return nil, fmt.Errorf("exec: cannot evaluate %T", e)
	}
}

// A lazy node evaluates a later operand over a view of b: a copy of its
// header sharing the columns, null bitmaps and segments, with a selection
// vector of its own — never nil, which would mean every row. b itself —
// its Sel and the frozen vectors it may alias — is never written.

// evalLogicalBatch evaluates AND / OR with Kleene logic: L over the batch's
// selection, R only over the rows L left undecided — not FALSE for AND,
// not TRUE for OR.
func evalLogicalBatch(x *BinExpr, b *RowBatch, ctx *EvalCtx) ([]types.Datum, error) {
	n, sel := b.Len(), b.Sel
	out := ctx.resultCol(b.PhysLen())
	l, err := EvalBatch(x.L, b, ctx)
	if err != nil {
		return nil, err
	}
	// The value that decides the operator: FALSE for AND, TRUE for OR.
	decides := x.Op == "OR"
	rest := make([]int32, 0, n)
	for si := 0; si < n; si++ {
		i := selIdx(sel, si)
		t, isNull, err := truth(l[i])
		if err != nil {
			return nil, err
		}
		if !isNull && t == decides {
			out[i] = types.NewBool(decides)
			continue
		}
		rest = append(rest, int32(i))
	}
	if len(rest) == 0 {
		return out, nil
	}
	view := *b
	view.Sel = rest
	r, err := EvalBatch(x.R, &view, ctx)
	if err != nil {
		return nil, err
	}
	for _, i := range rest {
		t, isNull, err := truth(r[i])
		if err != nil {
			return nil, err
		}
		switch {
		case !isNull && t == decides:
			out[i] = types.NewBool(decides)
		case isNull || l[i].IsNull():
			out[i] = types.NewNull(types.Bool)
		default:
			out[i] = types.NewBool(!decides)
		}
	}
	return out, nil
}

// evalCoalesceBatch evaluates COALESCE: argument k runs only over the rows
// on which arguments 0..k-1 were all NULL. A row's result is the first
// non-NULL argument, or the last argument's NULL (the planner rejects a
// COALESCE without arguments).
func evalCoalesceBatch(x *CoalesceExpr, b *RowBatch, ctx *EvalCtx) ([]types.Datum, error) {
	n := b.Len()
	out := ctx.resultCol(b.PhysLen())
	// pending collects the rows still NULL after each argument.
	pending := make([]int32, 0, n)
	view := *b
	for _, a := range x.Args {
		col, err := EvalBatch(a, &view, ctx)
		if err != nil {
			return nil, err
		}
		// From the second argument on, view's selection is pending itself:
		// the narrowing writes each row at or before where it read it.
		rows, m := view.Sel, view.Len()
		next := pending[:0]
		for si := 0; si < m; si++ {
			i := selIdx(rows, si)
			out[i] = col[i]
			if col[i].IsNull() {
				next = append(next, int32(i))
			}
		}
		if len(next) == 0 {
			break
		}
		view.Sel = next
	}
	return out, nil
}

// evalInListBatch evaluates x [NOT] IN (list): X over the selection, item k
// only over the rows where X is non-NULL and no earlier item matched. A
// NULL item makes an unmatched row's result NULL.
func evalInListBatch(x *InListExpr, b *RowBatch, ctx *EvalCtx) ([]types.Datum, error) {
	n, sel := b.Len(), b.Sel
	out := ctx.resultCol(b.PhysLen())
	xs, err := EvalBatch(x.X, b, ctx)
	if err != nil {
		return nil, err
	}
	pending := make([]int32, 0, n)
	for si := 0; si < n; si++ {
		i := selIdx(sel, si)
		if xs[i].IsNull() {
			out[i] = types.NewNull(types.Bool)
			continue
		}
		out[i] = types.NewBool(x.Not)
		pending = append(pending, int32(i))
	}
	view := *b
	for _, item := range x.List {
		if len(pending) == 0 {
			break
		}
		view.Sel = pending
		vs, err := EvalBatch(item, &view, ctx)
		if err != nil {
			return nil, err
		}
		next := pending[:0]
		for _, i := range pending {
			switch v := vs[i]; {
			case v.IsNull():
				out[i] = types.NewNull(types.Bool)
			case types.Equal(xs[i], v):
				out[i] = types.NewBool(!x.Not)
				continue
			}
			next = append(next, i)
		}
		pending = next
	}
	return out, nil
}

// EvalPredBatch evaluates pred over the batch as a selection mask: keep[si]
// is true when the predicate is TRUE for logical row si (NULL and FALSE
// both drop the row). The mask is logically indexed —
// keep[si] pairs with b.Sel[si] on a selection-carrying batch. The keep
// buffer is reused when large enough.
func EvalPredBatch(pred Expr, b *RowBatch, ctx *EvalCtx, keep []bool) ([]bool, error) {
	n := b.Len()
	sel := b.Sel
	ctx.predColArmed = true
	col, err := EvalBatch(pred, b, ctx)
	ctx.predColArmed = false
	if err != nil {
		return nil, err
	}
	if cap(keep) < n {
		keep = make([]bool, n)
	}
	keep = keep[:n]
	for si := 0; si < n; si++ {
		t, isNull, err := truth(col[selIdx(sel, si)])
		if err != nil {
			return nil, err
		}
		keep[si] = t && !isNull
	}
	return keep, nil
}

// resultCol returns the result column of one expression node: the reusable
// predicate scratch when EvalPredBatch armed it, a fresh column otherwise.
// Predicate evaluation folds the result into a keep mask before the next
// EvalBatch on this ctx, so a reused column is safe there. One consumer
// per predicate — a nested operand result must survive while its parent
// node computes — and stale entries outside the selection are never read.
func (c *EvalCtx) resultCol(phys int) []types.Datum {
	if !c.predColArmed {
		return make([]types.Datum, phys)
	}
	c.predColArmed = false
	if cap(c.predCol) < phys {
		c.predCol = make([]types.Datum, phys)
	}
	return c.predCol[:phys]
}

func (c *EvalCtx) args(n int) []types.Datum {
	if cap(c.argBuf) < n {
		c.argBuf = make([]types.Datum, n)
	}
	return c.argBuf[:n]
}
