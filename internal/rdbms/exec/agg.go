package exec

import (
	"fmt"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// AggSpec describes one aggregate computation: kind plus argument
// expression (nil for COUNT(*)).
type AggSpec struct {
	Kind     AggKind
	Arg      Expr
	Distinct bool
}

// aggState accumulates a single aggregate for one group.
type aggState struct {
	spec     *AggSpec
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	hasVal   bool
	minMax   types.Datum
	distinct map[string]struct{}
	buf      []byte
}

func newAggState(spec *AggSpec) *aggState {
	st := &aggState{spec: spec}
	if spec.Distinct {
		st.distinct = make(map[string]struct{})
	}
	return st
}

func (st *aggState) add(row storage.Row) error {
	if st.spec.Kind == AggCountStar {
		st.count++
		return nil
	}
	v, err := st.spec.Arg.Eval(row)
	if err != nil {
		return err
	}
	return st.addValue(v)
}

// addValue accumulates an already-evaluated argument — the entry point the
// batch aggregate uses after materializing argument columns with EvalBatch.
func (st *aggState) addValue(v types.Datum) error {
	if st.spec.Kind == AggCountStar {
		st.count++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	if st.distinct != nil {
		st.buf = v.HashKey(st.buf[:0])
		if _, seen := st.distinct[string(st.buf)]; seen {
			return nil
		}
		st.distinct[string(st.buf)] = struct{}{}
	}
	switch st.spec.Kind {
	case AggCount:
		st.count++
	case AggSum, AggAvg:
		f, ok := v.Float64()
		if !ok {
			return fmt.Errorf("exec: %s requires numeric input, got %v", aggName(st.spec.Kind), v.Typ)
		}
		if v.Typ == types.Float {
			st.isFloat = true
		} else {
			st.sumI += v.I
		}
		st.sumF += f
		st.count++
		st.hasVal = true
	case AggMin, AggMax:
		if !st.hasVal {
			st.minMax = v
			st.hasVal = true
			return nil
		}
		c, err := types.Compare(v, st.minMax)
		if err != nil {
			// Multi-typed attribute: keep the first-seen type's extremum.
			return nil
		}
		if (st.spec.Kind == AggMin && c < 0) || (st.spec.Kind == AggMax && c > 0) {
			st.minMax = v
		}
	}
	return nil
}

// addColumn folds one batch's argument column into st: the n logical rows
// of col, physically indexed through sel. COUNT(*) has no column and just
// adds n.
func (st *aggState) addColumn(col []types.Datum, sel []int32, n int) error {
	if st.spec.Kind == AggCountStar {
		st.count += int64(n)
		return nil
	}
	for si := 0; si < n; si++ {
		var v types.Datum
		if col != nil {
			v = col[selIdx(sel, si)]
		}
		if err := st.addValue(v); err != nil {
			return err
		}
	}
	return nil
}

// merge folds another partial state for the same spec into st — the combine
// step of two-phase parallel aggregation. COUNT/SUM/AVG/MIN/MAX all merge
// exactly; DISTINCT aggregates do not (per-worker distinct sets would
// double-count across partitions), so the planner keeps DISTINCT-aggregate
// plans serial and merge never sees one.
func (st *aggState) merge(o *aggState) error {
	if st.distinct != nil || o.distinct != nil {
		return fmt.Errorf("exec: cannot merge DISTINCT aggregate partials")
	}
	switch st.spec.Kind {
	case AggCount, AggCountStar:
		st.count += o.count
	case AggSum, AggAvg:
		st.sumI += o.sumI
		st.sumF += o.sumF
		st.count += o.count
		st.isFloat = st.isFloat || o.isFloat
		st.hasVal = st.hasVal || o.hasVal
	case AggMin, AggMax:
		if !o.hasVal {
			return nil
		}
		if !st.hasVal {
			st.minMax, st.hasVal = o.minMax, true
			return nil
		}
		c, err := types.Compare(o.minMax, st.minMax)
		if err != nil {
			// Multi-typed attribute: keep the first partition's type, matching
			// the serial accumulator's first-seen-type rule (heap order).
			return nil
		}
		if (st.spec.Kind == AggMin && c < 0) || (st.spec.Kind == AggMax && c > 0) {
			st.minMax = o.minMax
		}
	}
	return nil
}

func (st *aggState) result() types.Datum {
	switch st.spec.Kind {
	case AggCount, AggCountStar:
		return types.NewInt(st.count)
	case AggSum:
		if !st.hasVal {
			return types.NewNull(types.Unknown)
		}
		if st.isFloat {
			return types.NewFloat(st.sumF)
		}
		return types.NewInt(st.sumI)
	case AggAvg:
		if !st.hasVal || st.count == 0 {
			return types.NewNull(types.Float)
		}
		return types.NewFloat(st.sumF / float64(st.count))
	case AggMin, AggMax:
		if !st.hasVal {
			return types.NewNull(types.Unknown)
		}
		return st.minMax
	}
	return types.NewNull(types.Unknown)
}

func aggName(k AggKind) string {
	switch k {
	case AggCount, AggCountStar:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return "?"
}

// aggGroup is one group of a hash or sorted aggregate: its key values, its
// aggregate states and its encoded key (the hash-table key and the output
// order of the hash aggregates).
type aggGroup struct {
	keyVals []types.Datum
	states  []*aggState
	encKey  string
}

func newAggGroup(keyVals []types.Datum, encKey string, aggs []*AggSpec) *aggGroup {
	g := &aggGroup{keyVals: keyVals, encKey: encKey, states: make([]*aggState, len(aggs))}
	for i, spec := range aggs {
		g.states[i] = newAggState(spec)
	}
	return g
}

// GroupAggIter computes grouped aggregates over input already sorted by the
// group keys (the planner places a Sort below it). It streams one output
// row per group boundary.
type GroupAggIter struct {
	In      Iterator
	GroupBy []Expr
	Aggs    []*AggSpec

	cur     *aggGroup
	pending storage.Row
	eof     bool
	buf     []byte
}

// Next implements Iterator.
func (g *GroupAggIter) Next() (storage.Row, bool, error) {
	if g.eof && g.cur == nil {
		return nil, false, nil
	}
	for {
		var row storage.Row
		if g.pending != nil {
			row = g.pending
			g.pending = nil
		} else {
			var ok bool
			var err error
			row, ok, err = g.In.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				g.eof = true
				if g.cur != nil {
					out := g.emit()
					g.cur = nil
					return out, true, nil
				}
				return nil, false, nil
			}
		}
		g.buf = g.buf[:0]
		keyVals := make([]types.Datum, len(g.GroupBy))
		for i, ge := range g.GroupBy {
			v, err := ge.Eval(row)
			if err != nil {
				return nil, false, err
			}
			keyVals[i] = v
			g.buf = v.HashKey(g.buf)
		}
		if g.cur == nil {
			g.cur = newAggGroup(keyVals, string(g.buf), g.Aggs)
		} else if g.cur.encKey != string(g.buf) {
			out := g.emit()
			g.cur = newAggGroup(keyVals, string(g.buf), g.Aggs)
			for _, st := range g.cur.states {
				if err := st.add(row); err != nil {
					return nil, false, err
				}
			}
			return out, true, nil
		}
		for _, st := range g.cur.states {
			if err := st.add(row); err != nil {
				return nil, false, err
			}
		}
	}
}

func (g *GroupAggIter) emit() storage.Row {
	row := make(storage.Row, 0, len(g.cur.keyVals)+len(g.cur.states))
	row = append(row, g.cur.keyVals...)
	for _, st := range g.cur.states {
		row = append(row, st.result())
	}
	return row
}

// Close implements Iterator.
func (g *GroupAggIter) Close() { g.In.Close() }
