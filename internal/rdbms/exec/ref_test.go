package exec

import (
	"sort"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file is the reference the operator tests hold the executor to: each
// operator's answer written as a straight-line function over a row slice,
// with no iterator protocol, no batches, no Close and no size hints. A
// reference function evaluates every row it is given with the row
// evaluator (Eval / EvalBool) and returns the first error it meets.

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
		keep, err := EvalBool(pred, r)
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
			v, err := e.Eval(r)
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
			v, err := key.Expr.Eval(r)
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
			v, err := g.Eval(r)
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
				if v, err = spec.Arg.Eval(r); err != nil {
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
			v, err := k.Eval(r)
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
				keep, err := EvalBool(residual, joined)
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
