package plan

import (
	"slices"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
)

// pruneScanColumns pushes referenced-column sets down into scans.
// Starting from each projection-like node (Project, HashAggregate,
// GroupAggregate) it collects the columns that node reads and walks down
// through column-transparent operators (Filter, Limit, Sort) and into both
// sides of a join, adding their referenced columns, until it reaches a
// ScanNode — which then only materializes the referenced columns into its
// batches. DISTINCT's Unique and unknown nodes conservatively keep
// full-width scans, as does any expression the ColumnsUsed walker does not
// understand.
//
// A column set maps each column read to whether it is read as values
// (true) or only by operators that take a frozen page's segment column
// undecoded (false): the segment kernel of a fused extraction stacked on
// the scan, and a Top-N, which decodes the rows it keeps. The scan learns
// which of its columns no operator above reads as values
// (ScanNode.LazyCols).
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
	case *MultiExtractNode:
		// Columns the node appends don't exist below it; what the kernel
		// reads is the serialized data column. Segments pass through a
		// stack of extractions down to the scan, and through nothing else
		// but a Top-N.
		childW := len(x.Child.Layout().Cols)
		nset := map[int]bool{}
		for j, v := range set {
			if j < childW {
				nset[j] = v
			}
		}
		if _, read := nset[x.DataIdx]; !read {
			nset[x.DataIdx] = false
		}
		pruneChain(x.Child, nset, true)
	case *TopNNode:
		// A Top-N decodes a segment column it is handed undecoded for the
		// rows it keeps: what only the operators above it read is read as
		// values by nothing below.
		for j := range set {
			set[j] = false
		}
		sok := true
		for _, k := range x.Keys {
			sok = sok && addExprCols(set, k.Expr)
		}
		pruneChain(x.Child, set, sok)
	case *ScanNode:
		var values []int // read as values above the scan
		for j, v := range set {
			if v {
				values = append(values, j)
			}
		}
		if !addExprCols(set, x.Preds...) {
			return
		}
		width := len(x.Heap.Schema().Cols)
		cols := make([]int, 0, len(set)) // empty, not nil: no column at all
		var lazy []int
		for j := 0; j < width; j++ {
			if _, read := set[j]; read {
				cols = append(cols, j)
				if !slices.Contains(values, j) {
					lazy = append(lazy, j)
				}
			}
		}
		x.LazyCols = lazy
		if len(cols) < width {
			x.NeedCols = cols
		}
	default:
		// Every other operator reads its input's columns as values.
		for j := range set {
			set[j] = true
		}
		switch x := n.(type) {
		case *FilterNode:
			pruneChain(x.Child, set, addExprCols(set, x.Preds...))
		case *LimitNode:
			pruneChain(x.Child, set, true)
		case *SortNode:
			sok := true
			for _, k := range x.Keys {
				sok = sok && addExprCols(set, k.Expr)
			}
			pruneChain(x.Child, set, sok)
		case *HashJoinNode:
			pruneJoin(set, x.Probe, x.Build, x.ProbeKeys, x.BuildKeys, x.Residual)
		case *MergeJoinNode:
			pruneJoin(set, x.Left, x.Right, x.LeftKeys, x.RightKeys, x.Residual)
		case *NestedLoopNode:
			pruneJoin(set, x.Outer, x.Inner, nil, nil, x.Cond)
		default:
			pruneScanColumns(n)
		}
	}
}

// pruneJoin continues a pruning walk into both sides of a join whose rows
// are left ++ right: each side is asked for the columns of its half that
// the operators above and the join's residual read, plus its join keys.
// The join copies every column of its inputs, and one a side did not
// materialize yields what it yields for a pruned scan column.
func pruneJoin(set map[int]bool, left, right Node, leftKeys, rightKeys, residual []exec.Expr) {
	ok := addExprCols(set, residual...)
	leftW := len(left.Layout().Cols)
	lset, rset := map[int]bool{}, map[int]bool{}
	for j := range set {
		if j < leftW {
			lset[j] = true
		} else {
			rset[j-leftW] = true
		}
	}
	pruneChain(left, lset, ok && addExprCols(lset, leftKeys...))
	pruneChain(right, rset, ok && addExprCols(rset, rightKeys...))
}

// addExprCols records every column the expressions read into set, as read
// as values, and reports whether all of them were fully analyzable.
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
