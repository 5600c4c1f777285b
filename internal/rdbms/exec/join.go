package exec

import (
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// MergeJoinIter is an inner equi-join over two inputs sorted ascending on
// their join keys (the planner inserts Sorts). Equal-key runs on the right
// are buffered so m×n matches are produced.
type MergeJoinIter struct {
	Left      Iterator
	Right     Iterator
	LeftKeys  []Expr
	RightKeys []Expr
	Residual  Expr

	leftRow   storage.Row
	leftKey   []types.Datum
	leftOK    bool
	rightRow  storage.Row
	rightKey  []types.Datum
	rightOK   bool
	started   bool
	runRows   []storage.Row // current right-side equal-key run
	runKey    []types.Datum
	runIx     int
	inRun     bool
	exhausted bool
}

// Next implements Iterator.
func (m *MergeJoinIter) Next() (storage.Row, bool, error) {
	if !m.started {
		m.started = true
		if err := m.advanceLeft(); err != nil {
			return nil, false, err
		}
		if err := m.advanceRight(); err != nil {
			return nil, false, err
		}
	}
	for {
		if m.inRun {
			for m.runIx < len(m.runRows) {
				r := m.runRows[m.runIx]
				m.runIx++
				out := make(storage.Row, 0, len(m.leftRow)+len(r))
				out = append(out, m.leftRow...)
				out = append(out, r...)
				if m.Residual != nil {
					keep, err := EvalBool(m.Residual, out)
					if err != nil {
						return nil, false, err
					}
					if !keep {
						continue
					}
				}
				return out, true, nil
			}
			// Finished this left row against the run; advance left and see
			// if it has the same key.
			if err := m.advanceLeft(); err != nil {
				return nil, false, err
			}
			if m.leftOK && keysEqual(m.leftKey, m.runKey) {
				m.runIx = 0
				continue
			}
			m.inRun = false
		}
		if !m.leftOK || !m.rightOK {
			return nil, false, nil
		}
		c, err := compareKeySlices(m.leftKey, m.rightKey)
		if err != nil {
			return nil, false, err
		}
		switch {
		case c < 0:
			if err := m.advanceLeft(); err != nil {
				return nil, false, err
			}
		case c > 0:
			if err := m.advanceRight(); err != nil {
				return nil, false, err
			}
		default:
			// Buffer the right-side run with this key.
			m.runRows = m.runRows[:0]
			m.runKey = m.rightKey
			for m.rightOK && keysEqual(m.rightKey, m.runKey) {
				m.runRows = append(m.runRows, m.rightRow)
				if err := m.advanceRight(); err != nil {
					return nil, false, err
				}
			}
			m.runIx = 0
			m.inRun = true
		}
	}
}

func (m *MergeJoinIter) advanceLeft() error {
	for {
		row, ok, err := m.Left.Next()
		if err != nil {
			return err
		}
		if !ok {
			m.leftOK = false
			return nil
		}
		key, null, err := evalKeys(row, m.LeftKeys)
		if err != nil {
			return err
		}
		if null {
			continue // NULL keys never join
		}
		m.leftRow, m.leftKey, m.leftOK = row, key, true
		return nil
	}
}

func (m *MergeJoinIter) advanceRight() error {
	for {
		row, ok, err := m.Right.Next()
		if err != nil {
			return err
		}
		if !ok {
			m.rightOK = false
			return nil
		}
		key, null, err := evalKeys(row, m.RightKeys)
		if err != nil {
			return err
		}
		if null {
			continue
		}
		m.rightRow, m.rightKey, m.rightOK = row, key, true
		return nil
	}
}

func evalKeys(row storage.Row, keys []Expr) ([]types.Datum, bool, error) {
	out := make([]types.Datum, len(keys))
	for i, k := range keys {
		v, err := k.Eval(row)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			return nil, true, nil
		}
		out[i] = v
	}
	return out, false, nil
}

func compareKeySlices(a, b []types.Datum) (int, error) {
	for i := range a {
		c, err := compareForSort(a[i], b[i], false)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return c, nil
		}
	}
	return 0, nil
}

// Close implements Iterator.
func (m *MergeJoinIter) Close() {
	m.Left.Close()
	m.Right.Close()
}

// NestedLoopIter is an inner join for arbitrary conditions: the inner side
// is materialized (CollectBatches) and rescanned per outer row.
type NestedLoopIter struct {
	Outer Iterator
	Inner BatchIterator
	Cond  Expr // may be nil (cross join)

	innerRows []storage.Row
	built     bool
	err       error
	outerRow  storage.Row
	innerIx   int
	haveOuter bool
}

// Next implements Iterator.
func (n *NestedLoopIter) Next() (storage.Row, bool, error) {
	if !n.built {
		n.built = true
		rows, err := CollectBatches(n.Inner)
		if err != nil {
			n.err = err
		}
		n.innerRows = rows
	}
	if n.err != nil {
		return nil, false, n.err
	}
	for {
		if !n.haveOuter {
			row, ok, err := n.Outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			n.outerRow = row
			n.innerIx = 0
			n.haveOuter = true
		}
		for n.innerIx < len(n.innerRows) {
			inner := n.innerRows[n.innerIx]
			n.innerIx++
			out := make(storage.Row, 0, len(n.outerRow)+len(inner))
			out = append(out, n.outerRow...)
			out = append(out, inner...)
			if n.Cond != nil {
				keep, err := EvalBool(n.Cond, out)
				if err != nil {
					return nil, false, err
				}
				if !keep {
					continue
				}
			}
			return out, true, nil
		}
		n.haveOuter = false
	}
}

// Close implements Iterator.
func (n *NestedLoopIter) Close() {
	n.Outer.Close()
	n.Inner.Close()
}
