package exec

import (
	"fmt"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// AggSpec describes one aggregate computation: kind plus argument
// expression (nil for COUNT(*)).
type AggSpec struct {
	Kind     AggKind
	Arg      Expr
	Distinct bool
}

// aggState accumulates a single aggregate for one group. The hash
// aggregate keeps every group's states in one flat slice, so the zero
// value plus its spec is a fresh state; a DISTINCT aggregate's set of seen
// values is a one-column key table made on its first value.
type aggState struct {
	spec     *AggSpec
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	hasVal   bool
	minMax   types.Datum
	distinct *keyTable
}

// addValue accumulates one evaluated argument (COUNT(*) ignores it).
func (st *aggState) addValue(v types.Datum) error {
	if st.spec.Kind == AggCountStar {
		st.count++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	if st.spec.Distinct {
		if st.distinct == nil {
			st.distinct = newKeyTable(1)
		}
		if !st.distinct.insertValue(v) {
			return nil
		}
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
