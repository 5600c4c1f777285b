package exec

import (
	"fmt"
	"sort"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file is the reference the operator tests hold the executor to: each
// operator's answer written as a straight-line function over a row slice,
// with no iterator protocol, no batches, no Close and no size hints. A
// reference function evaluates every row it is given with the row
// evaluator (refEval / refEvalBool) and returns the first error it meets.

// refEval is the row evaluator: e over one row, each node's SQL semantics
// written for a single row, the lazy ones (AND, OR, COALESCE, IN-list)
// evaluating an operand only when the row's result is still undecided. It
// shares the combining helpers (truth, evalComparison, evalArith, evalAny,
// LikeExpr.compiled) with EvalBatch, and nothing else. A ParamExpr has no
// value here.
func refEval(e Expr, row storage.Row) (types.Datum, error) {
	switch x := e.(type) {
	case *ColExpr:
		return row[x.Idx], nil
	case *ConstExpr:
		return x.Val, nil
	case *ParamExpr:
		return types.Datum{}, errUnbound{x.Slot}
	case *BinExpr:
		if x.Op == "AND" || x.Op == "OR" {
			return refLogical(x, row)
		}
		l, err := refEval(x.L, row)
		if err != nil {
			return types.Datum{}, err
		}
		r, err := refEval(x.R, row)
		if err != nil {
			return types.Datum{}, err
		}
		switch x.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			return evalComparison(x.Op, l, r)
		case "||":
			if l.IsNull() || r.IsNull() {
				return types.NewNull(types.Text), nil
			}
			ls, err := types.Cast(l, types.Text)
			if err != nil {
				return types.Datum{}, err
			}
			rs, err := types.Cast(r, types.Text)
			if err != nil {
				return types.Datum{}, err
			}
			return types.NewText(ls.Text() + rs.Text()), nil
		default:
			return evalArith(x.Op, l, r)
		}
	case *NotExpr:
		v, err := refEval(x.X, row)
		if err != nil {
			return types.Datum{}, err
		}
		t, isNull, err := truth(v)
		if err != nil {
			return types.Datum{}, err
		}
		if isNull {
			return types.NewNull(types.Bool), nil
		}
		return types.NewBool(!t), nil
	case *NegExpr:
		v, err := refEval(x.X, row)
		if err != nil {
			return types.Datum{}, err
		}
		if v.IsNull() {
			return v, nil
		}
		switch v.Typ {
		case types.Int:
			return types.NewInt(-v.I), nil
		case types.Float:
			return types.NewFloat(-v.Float()), nil
		default:
			return types.Datum{}, fmt.Errorf("exec: cannot negate %v", v.Typ)
		}
	case *IsNullExpr:
		v, err := refEval(x.X, row)
		if err != nil {
			return types.Datum{}, err
		}
		return types.NewBool(v.IsNull() != x.Not), nil
	case *BetweenExpr:
		v, err := refEval(x.X, row)
		if err != nil {
			return types.Datum{}, err
		}
		lo, err := refEval(x.Lo, row)
		if err != nil {
			return types.Datum{}, err
		}
		hi, err := refEval(x.Hi, row)
		if err != nil {
			return types.Datum{}, err
		}
		geLo, err := evalComparison(">=", v, lo)
		if err != nil {
			return types.Datum{}, err
		}
		leHi, err := evalComparison("<=", v, hi)
		if err != nil {
			return types.Datum{}, err
		}
		if geLo.IsNull() || leHi.IsNull() {
			// FALSE AND NULL is FALSE.
			if (!geLo.IsNull() && !geLo.Bool()) || (!leHi.IsNull() && !leHi.Bool()) {
				return types.NewBool(x.Not), nil
			}
			return types.NewNull(types.Bool), nil
		}
		return types.NewBool((geLo.Bool() && leHi.Bool()) != x.Not), nil
	case *InListExpr:
		v, err := refEval(x.X, row)
		if err != nil {
			return types.Datum{}, err
		}
		if v.IsNull() {
			return types.NewNull(types.Bool), nil
		}
		sawNull := false
		for _, item := range x.List {
			iv, err := refEval(item, row)
			if err != nil {
				return types.Datum{}, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if types.Equal(v, iv) {
				return types.NewBool(!x.Not), nil
			}
		}
		if sawNull {
			return types.NewNull(types.Bool), nil
		}
		return types.NewBool(x.Not), nil
	case *LikeExpr:
		v, err := refEval(x.X, row)
		if err != nil {
			return types.Datum{}, err
		}
		p, err := refEval(x.Pattern, row)
		if err != nil {
			return types.Datum{}, err
		}
		if v.IsNull() || p.IsNull() {
			return types.NewNull(types.Bool), nil
		}
		vs, err := types.Cast(v, types.Text)
		if err != nil {
			return types.Datum{}, err
		}
		ps, err := types.Cast(p, types.Text)
		if err != nil {
			return types.Datum{}, err
		}
		rx, err := x.compiled(ps.Text())
		if err != nil {
			return types.Datum{}, err
		}
		return types.NewBool(rx.MatchString(vs.Text()) != x.Not), nil
	case *AnyExpr:
		v, err := refEval(x.X, row)
		if err != nil {
			return types.Datum{}, err
		}
		arr, err := refEval(x.Array, row)
		if err != nil {
			return types.Datum{}, err
		}
		return evalAny(x.Op, v, arr)
	case *CastExpr:
		v, err := refEval(x.X, row)
		if err != nil {
			return types.Datum{}, err
		}
		return types.Cast(v, x.To)
	case *CoalesceExpr:
		last := types.Datum{Null: true}
		for _, a := range x.Args {
			v, err := refEval(a, row)
			if err != nil {
				return types.Datum{}, err
			}
			if !v.IsNull() {
				return v, nil
			}
			last = v
		}
		return last, nil
	case *CallExpr:
		args := make([]types.Datum, len(x.Args))
		for i, a := range x.Args {
			v, err := refEval(a, row)
			if err != nil {
				return types.Datum{}, err
			}
			args[i] = v
		}
		return x.Def.Eval(args)
	default:
		return types.Datum{}, fmt.Errorf("exec: cannot evaluate %T", e)
	}
}

// refLogical is AND / OR over one row, short-circuiting where the left
// side decides the result.
func refLogical(x *BinExpr, row storage.Row) (types.Datum, error) {
	l, err := refEval(x.L, row)
	if err != nil {
		return types.Datum{}, err
	}
	lt, lnull, err := truth(l)
	if err != nil {
		return types.Datum{}, err
	}
	if x.Op == "AND" && !lnull && !lt {
		return types.NewBool(false), nil
	}
	if x.Op == "OR" && !lnull && lt {
		return types.NewBool(true), nil
	}
	r, err := refEval(x.R, row)
	if err != nil {
		return types.Datum{}, err
	}
	rt, rnull, err := truth(r)
	if err != nil {
		return types.Datum{}, err
	}
	if x.Op == "AND" {
		switch {
		case !rnull && !rt:
			return types.NewBool(false), nil
		case lnull || rnull:
			return types.NewNull(types.Bool), nil
		default:
			return types.NewBool(true), nil
		}
	}
	switch {
	case !rnull && rt:
		return types.NewBool(true), nil
	case lnull || rnull:
		return types.NewNull(types.Bool), nil
	default:
		return types.NewBool(false), nil
	}
}

// refEvalBool evaluates e as a predicate: NULL counts as false.
func refEvalBool(e Expr, row storage.Row) (bool, error) {
	v, err := refEval(e, row)
	if err != nil {
		return false, err
	}
	t, isNull, err := truth(v)
	if err != nil {
		return false, err
	}
	return t && !isNull, nil
}

// refScan returns the live rows of h in heap order.
func refScan(h *storage.Heap) []storage.Row {
	var out []storage.Row
	h.Scan(func(_ storage.RowID, r storage.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

// refFilter keeps the rows pred holds for; a nil pred keeps them all.
func refFilter(rows []storage.Row, pred Expr) ([]storage.Row, error) {
	if pred == nil {
		return rows, nil
	}
	var out []storage.Row
	for _, r := range rows {
		keep, err := refEvalBool(pred, r)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, r)
		}
	}
	return out, nil
}

// refProject evaluates exprs over every row.
func refProject(rows []storage.Row, exprs []Expr) ([]storage.Row, error) {
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		out[i] = make(storage.Row, len(exprs))
		for j, e := range exprs {
			v, err := refEval(e, r)
			if err != nil {
				return nil, err
			}
			out[i][j] = v
		}
	}
	return out, nil
}

// refLimit keeps the first n rows.
func refLimit(rows []storage.Row, n int64) []storage.Row {
	if int64(len(rows)) > n {
		return rows[:n]
	}
	return rows
}

// refSort orders rows by keys, stably: NULLs last ascending, first
// descending.
func refSort(rows []storage.Row, keys []SortKey) ([]storage.Row, error) {
	vals := make([][]types.Datum, len(rows))
	for i, r := range rows {
		vals[i] = make([]types.Datum, len(keys))
		for k, key := range keys {
			v, err := refEval(key.Expr, r)
			if err != nil {
				return nil, err
			}
			vals[i][k] = v
		}
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, key := range keys {
			if c := compareForSort(vals[idx[a]][k], vals[idx[b]][k], key.Desc); c != 0 {
				return c < 0
			}
		}
		return false
	})
	out := make([]storage.Row, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out, nil
}

// refGroup groups rows by the values of groupBy and folds aggs per group.
// It shares nothing with the executor's key table: a row joins the first
// group, in order of appearance, whose key values are all types.KeyEqual
// to its own (found by linear search), and a DISTINCT aggregate skips a
// value KeyEqual to one its group has already folded (linear search too).
// Rows are [groupKeys..., aggResults...] in encoded-key order, ties in
// order of appearance; with no group keys there is exactly one row, even
// over no input.
func refGroup(rows []storage.Row, groupBy []Expr, aggs []*AggSpec) ([]storage.Row, error) {
	type group struct {
		keys   []types.Datum
		states []aggState
		seen   [][]types.Datum // per aggregate, the DISTINCT values folded
	}
	plain := make([]*AggSpec, len(aggs))
	for k, spec := range aggs {
		cp := *spec
		cp.Distinct = false
		plain[k] = &cp
	}
	newGroup := func(keys []types.Datum) *group {
		g := &group{keys: keys, seen: make([][]types.Datum, len(aggs))}
		for _, spec := range plain {
			g.states = append(g.states, aggState{spec: spec})
		}
		return g
	}
	var groups []*group
	if len(groupBy) == 0 {
		groups = append(groups, newGroup(nil))
	}
	for _, r := range rows {
		keys := make([]types.Datum, len(groupBy))
		for i, g := range groupBy {
			v, err := refEval(g, r)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		var g *group
	find:
		for _, cand := range groups {
			for i := range keys {
				if !types.KeyEqual(cand.keys[i], keys[i]) {
					continue find
				}
			}
			g = cand
			break
		}
		if g == nil {
			g = newGroup(keys)
			groups = append(groups, g)
		}
	fold:
		for k, spec := range aggs {
			var v types.Datum
			if spec.Kind != AggCountStar {
				var err error
				if v, err = refEval(spec.Arg, r); err != nil {
					return nil, err
				}
			}
			if !spec.Distinct {
				if err := g.states[k].addValue(v); err != nil {
					return nil, err
				}
				continue
			}
			for _, s := range g.seen[k] {
				if types.KeyEqual(s, v) {
					continue fold
				}
			}
			if !v.IsNull() {
				g.seen[k] = append(g.seen[k], v)
			}
			if err := g.states[k].addValue(v); err != nil {
				return nil, err
			}
		}
	}
	enc := func(g *group) string {
		var b []byte
		for _, k := range g.keys {
			b = k.HashKey(b)
		}
		return string(b)
	}
	sort.SliceStable(groups, func(a, b int) bool { return enc(groups[a]) < enc(groups[b]) })
	out := make([]storage.Row, len(groups))
	for i, g := range groups {
		row := append(storage.Row(nil), g.keys...)
		for k := range g.states {
			row = append(row, g.states[k].result())
		}
		out[i] = row
	}
	return out, nil
}

// refUnique keeps each row that is not types.KeyEqual, column by column,
// to the last row it kept: Unique over sorted rows.
func refUnique(rows []storage.Row) []storage.Row {
	var out []storage.Row
next:
	for _, r := range rows {
		if n := len(out); n > 0 {
			for j, d := range r {
				if !types.KeyEqual(out[n-1][j], d) {
					out = append(out, r)
					continue next
				}
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// refJoin is the inner equi-join as a nested loop: probe × build in that
// order, output rows probeRow ++ buildRow, a row whose key holds a NULL
// never matches, and residual (nil for none) is checked on joined rows.
func refJoin(probe, build []storage.Row, probeKeys, buildKeys []Expr, residual Expr) ([]storage.Row, error) {
	keysOf := func(r storage.Row, keys []Expr) ([]types.Datum, error) {
		out := make([]types.Datum, len(keys))
		for i, k := range keys {
			v, err := refEval(k, r)
			if err != nil || v.IsNull() {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	buildVals := make([][]types.Datum, len(build))
	for i, b := range build {
		var err error
		if buildVals[i], err = keysOf(b, buildKeys); err != nil {
			return nil, err
		}
	}
	var out []storage.Row
	for _, p := range probe {
		pv, err := keysOf(p, probeKeys)
		if err != nil {
			return nil, err
		}
		if pv == nil {
			continue
		}
	build:
		for i, b := range build {
			if buildVals[i] == nil {
				continue
			}
			for k := range pv {
				if !types.Equal(pv[k], buildVals[i][k]) {
					continue build
				}
			}
			joined := append(append(storage.Row(nil), p...), b...)
			if residual != nil {
				keep, err := refEvalBool(residual, joined)
				if err != nil {
					return nil, err
				}
				if !keep {
					continue
				}
			}
			out = append(out, joined)
		}
	}
	return out, nil
}

// sliceBatches replays rows as a stream of batches: the input of an
// operator under test that takes a stream, not a heap.
type sliceBatches struct {
	rows []storage.Row
	// size is the rows per batch, DefaultBatchSize when 0.
	size int
	// sel makes every batch selection-carrying: each row is stored after a
	// decoy row no operator may read, and Sel lists the rows.
	sel bool
	// pruned lists columns left empty, the way a pruning scan leaves the
	// columns no operator above reads; prunedRows is the rows an operator
	// sees then.
	pruned []int
	pos    int
}

func (s *sliceBatches) NextBatch() (*RowBatch, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	size := s.size
	if size == 0 {
		size = DefaultBatchSize
	}
	n := min(size, len(s.rows)-s.pos)
	w := len(s.rows[0])
	b := NewRowBatch(w, 2*n)
	for i, r := range s.rows[s.pos : s.pos+n] {
		if s.sel {
			decoy := make(storage.Row, w)
			for j := range decoy {
				decoy[j] = types.NewInt(int64(-1 - s.pos - i))
			}
			b.AppendRow(decoy)
			b.Sel = append(b.Sel, int32(b.PhysLen()))
		}
		b.AppendRow(r)
	}
	for _, j := range s.pruned {
		b.Cols[j] = b.Cols[j][:0]
	}
	s.pos += n
	return b, nil
}

func (s *sliceBatches) Close() {}

// prunedRows is rows as an operator reads them from a stream that leaves
// the given columns empty: their cells are zero Datums.
func prunedRows(rows []storage.Row, pruned ...int) []storage.Row {
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		out[i] = append(storage.Row(nil), r...)
		for _, j := range pruned {
			out[i][j] = types.Datum{}
		}
	}
	return out
}

// filterOn returns a BatchFilterIter over in keeping the rows pred holds
// for, pred compiled as a plan's FilterNode compiles its predicates.
func filterOn(in BatchIterator, pred Expr, params ...types.Datum) *BatchFilterIter {
	width := 0
	ColumnsUsed(pred, func(j int) { width = max(width, j+1) })
	return &BatchFilterIter{In: in, Filter: CompileSelFilter([]Expr{pred}, width, nil, nil), Params: params}
}

// mustRef returns a check that fails t on a reference error (reference
// inputs are total unless a test says otherwise).
func mustRef(t *testing.T) func([]storage.Row, error) []storage.Row {
	return func(rows []storage.Row, err error) []storage.Row {
		t.Helper()
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		return rows
	}
}
