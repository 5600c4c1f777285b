package plan

import "github.com/sinewdata/sinew/internal/rdbms/exec"

// pruneScanColumns pushes referenced-column sets down into scans.
// Starting from each projection-like node (Project, HashAggregate,
// GroupAggregate) it collects the columns that node reads and walks down
// through column-transparent operators (Filter, Limit, Sort), adding their
// referenced columns, until it reaches a ScanNode — which then only
// materializes the referenced columns into its batches. Joins, DISTINCT's
// Unique, and unknown nodes conservatively keep full-width scans, as does
// any expression the ColumnsUsed walker does not understand.
func pruneScanColumns(n Node) {
	if n == nil {
		return
	}
	switch x := n.(type) {
	case *ProjectNode:
		set := map[int]bool{}
		pruneChain(x.Child, set, addExprCols(set, x.Exprs...))
	case *HashAggNode:
		set := map[int]bool{}
		ok := addExprCols(set, x.GroupBy...)
		for _, a := range x.Aggs {
			ok = ok && addExprCols(set, a.Arg)
		}
		pruneChain(x.Child, set, ok)
	case *GroupAggNode:
		set := map[int]bool{}
		ok := addExprCols(set, x.GroupBy...)
		for _, a := range x.Aggs {
			ok = ok && addExprCols(set, a.Arg)
		}
		pruneChain(x.Child, set, ok)
	default:
		for _, c := range n.Children() {
			pruneScanColumns(c)
		}
	}
}

// pruneChain continues a pruning walk below a projection-like node: set
// holds the columns known to be read from the rows n produces, ok is false
// once some consumer was not analyzable (the walk then degrades to the
// generic recursion so deeper plans still get pruned).
func pruneChain(n Node, set map[int]bool, ok bool) {
	if !ok {
		pruneScanColumns(n)
		return
	}
	switch x := n.(type) {
	case *FilterNode:
		pruneChain(x.Child, set, addExprCols(set, x.Preds...))
	case *LimitNode:
		pruneChain(x.Child, set, true)
	case *MultiExtractNode:
		// Columns the node appends don't exist below it; what the kernel
		// reads is the serialized data column.
		childW := len(x.Child.Layout().Cols)
		nset := map[int]bool{x.DataIdx: true}
		for j := range set {
			if j < childW {
				nset[j] = true
			}
		}
		pruneChain(x.Child, nset, true)
	case *SortNode:
		sok := true
		for _, k := range x.Keys {
			sok = sok && addExprCols(set, k.Expr)
		}
		pruneChain(x.Child, set, sok)
	case *TopNNode:
		sok := true
		for _, k := range x.Keys {
			sok = sok && addExprCols(set, k.Expr)
		}
		pruneChain(x.Child, set, sok)
	case *ScanNode:
		if !addExprCols(set, x.Preds...) {
			return
		}
		width := len(x.Heap.Schema().Cols)
		if len(set) >= width {
			return
		}
		cols := make([]int, 0, len(set))
		for j := 0; j < width; j++ {
			if set[j] {
				cols = append(cols, j)
			}
		}
		x.NeedCols = cols
	default:
		pruneScanColumns(n)
	}
}

// addExprCols records every column the expressions read into set and
// reports whether all of them were fully analyzable.
func addExprCols(set map[int]bool, es ...exec.Expr) bool {
	ok := true
	for _, e := range es {
		if e == nil {
			continue
		}
		ok = ok && exec.ColumnsUsed(e, func(i int) { set[i] = true })
	}
	return ok
}
