package exec

import (
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// EvalCtx carries the reusable scratch state for batch expression
// evaluation: a scratch row for the row-wise fallback, a shared per-batch
// UDF cache, an argument buffer for non-batch function calls, and the
// statement's parameter values. One EvalCtx belongs to one operator; it is
// not safe for concurrent use.
type EvalCtx struct {
	udf     UDFBatchCtx
	scratch storage.Row
	argBuf  []types.Datum
	// consts caches the broadcast column of each ConstExpr and ParamExpr
	// node across batches (its content never changes during one
	// execution), so constant arguments cost one allocation per query
	// instead of one per batch.
	consts map[Expr][]types.Datum
	// params are the values ParamExprs evaluate to (SetParams); bound
	// holds the bound copy (BindParams) of each expression the row-wise
	// fallback evaluated under them, built on first use.
	params []types.Datum
	bound  map[Expr]Expr
	// predCol is a scratch result column armed by EvalPredBatch and
	// consumed by at most one evalBatchFallback per predicate evaluation.
	// Predicate columns are reduced to a keep mask immediately, so reusing
	// the buffer across batches is safe there — but nowhere else: project
	// results are retained as output columns.
	predCol      []types.Datum
	predColArmed bool
}

// NewEvalCtx returns a fresh evaluation context.
func NewEvalCtx() *EvalCtx {
	return &EvalCtx{udf: UDFBatchCtx{Cache: make(map[any]any)}}
}

// SetParams gives the context the statement's parameter values; an
// operator sets them before its first EvalBatch.
func (c *EvalCtx) SetParams(params []types.Datum) { c.params = params }

// rowExpr is e as the row evaluator must see it: e itself without
// parameters, its bound copy with them.
func (c *EvalCtx) rowExpr(e Expr) Expr {
	if c.params == nil {
		return e
	}
	if b, ok := c.bound[e]; ok {
		return b
	}
	if c.bound == nil {
		c.bound = make(map[Expr]Expr)
	}
	b := BindParams(e, c.params)
	c.bound[e] = b
	return b
}

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

// BeginBatch resets per-batch state. Operators call it once before the
// EvalBatch calls of each input batch, so UDF cache entries never outlive
// the batch whose data they were derived from.
func (c *EvalCtx) BeginBatch() {
	clear(c.udf.Cache)
}

// EvalBatch evaluates e over every row of b and returns the result column.
//
// Nodes with eager evaluation semantics (comparisons, arithmetic, concat,
// NOT, negation, IS NULL, BETWEEN, LIKE, ANY, CAST, function calls) are
// walked once per batch: each child is materialized as a full column, then
// a tight loop combines them. Nodes with lazy/short-circuit semantics (AND,
// OR, COALESCE, IN-list) fall back to row-wise Eval inside the batch so
// that skipped operands are truly not evaluated — same values, same errors,
// same side-effect ordering as Eval row by row.
//
// The returned slice may alias a column of b (ColExpr is free); callers
// must copy before mutating. On error the first failing row in row order —
// of the first failing child, for eager nodes — is reported.
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
			return evalBatchFallback(e, b, ctx)
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
				// Rebuild the row-path error via single-row Eval.
				_, err := ctx.rowExpr(e).Eval(b.Row(i, ctx.scratchRow()))
				return nil, err
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
		// Both operands are evaluated for every row by Eval too
		// (no short circuit between them), so the node is eager. The
		// predicate scratch column is claimed before the operands run, so
		// an operand that falls back allocates its own.
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
		if x.Def.EvalBatch != nil && sel == nil {
			// Vectorized UDFs see whole argument columns; on a
			// selection-carrying batch they would evaluate (and could fail
			// on) deselected rows, so those batches take the per-row loop.
			if err := x.Def.EvalBatch(&ctx.udf, cols, out); err != nil {
				return nil, err
			}
			return out, nil
		}
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

	default:
		// AND/OR arrive here too (dispatched above): lazy semantics —
		// evaluate row-wise so short-circuiting skips operands exactly as
		// the row evaluator (Eval) does. Likewise CoalesceExpr, InListExpr, and
		// any Expr this switch does not know.
		return evalBatchFallback(e, b, ctx)
	}
}

// evalBatchFallback evaluates e row by row against the batch — the lazy
// path that preserves short-circuit semantics. Under parameters it
// evaluates e's bound copy.
func evalBatchFallback(e Expr, b *RowBatch, ctx *EvalCtx) ([]types.Datum, error) {
	e = ctx.rowExpr(e)
	n := b.Len()
	sel := b.Sel
	phys := b.PhysLen()
	out := ctx.resultCol(phys)
	row := ctx.scratchRow()
	for si := 0; si < n; si++ {
		i := selIdx(sel, si)
		row = b.Row(i, row)
		v, err := e.Eval(row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	ctx.scratch = row
	return out, nil
}

// EvalPredBatch evaluates pred over the batch as a selection mask: keep[si]
// is true when the predicate is TRUE for logical row si (NULL and FALSE
// both drop the row, matching EvalBool). The mask is logically indexed —
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

func (c *EvalCtx) scratchRow() storage.Row { return c.scratch }

func (c *EvalCtx) args(n int) []types.Datum {
	if cap(c.argBuf) < n {
		c.argBuf = make([]types.Datum, n)
	}
	return c.argBuf[:n]
}
