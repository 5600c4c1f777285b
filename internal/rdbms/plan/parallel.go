package plan

import (
	"fmt"
	"runtime"
	"slices"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements the morsel-driven parallelization pass, the one
// source of parallelism in a plan: after the plan is built, fused, and
// pruned, parallelize replaces eligible pipeline fragments — a scan with
// predicates, SCAN→FILTER→PROJECT chains, hash aggregations and sorts over
// such chains, and hash-join probes — with a GatherNode that runs the whole
// fragment once per heap partition and merges the worker streams. A
// fragment is eligible when every expression in it is parallel-safe (no
// volatile UDFs), the aggregate (if any) is mergeable (no DISTINCT; MIN/MAX
// over a statically typed argument), it is not under a LIMIT (row budgets
// do not cross goroutines, and workers would read ahead into their
// partitions for rows the limit discards, so LIMIT is a barrier), and the
// table is large enough for the configured worker count to exceed one.

// GatherNode runs its input fragment once per heap partition and merges
// the per-worker streams. Every scan is serial by itself; a GatherNode is
// what makes a plan parallel. The merge follows from Input's type:
//
//	ordered          — a Filter/Project/MultiExtract chain over Scan (or
//	                   Scan alone): partition streams drained in partition
//	                   order; output order identical to the serial pipeline.
//	two-phase agg    — a HashAggNode over such a chain: per-worker partial
//	                   hash tables merged, then sorted group emission.
//	partitioned probe— a HashJoinNode probing such a chain: shared hash-join
//	                   build table, workers probe their partitions.
//	sorted           — a SortNode or TopNNode over such a chain: partitions
//	                   sort locally with appended key columns, k-way merge.
type GatherNode struct {
	baseNode
	// Input is the parallelized subtree, displayed as the EXPLAIN child.
	Input Node
	// Scan is the scan at the bottom of Input's chain; the workers split
	// its heap.
	Scan    *ScanNode
	Workers int
}

// MergeStrategy names how worker streams are combined (EXPLAIN).
func (g *GatherNode) MergeStrategy() string {
	switch g.Input.(type) {
	case *HashAggNode:
		return "two-phase agg"
	case *HashJoinNode:
		return "partitioned probe"
	case *SortNode, *TopNNode:
		return "sorted"
	default:
		return "ordered"
	}
}

// Label implements Node.
func (g *GatherNode) Label() string { return "Gather" }

// Details implements Node.
func (g *GatherNode) Details() []string {
	return []string{fmt.Sprintf("Workers: %d  Merge: %s", g.Workers, g.MergeStrategy())}
}

// Children implements Node.
func (g *GatherNode) Children() []Node { return []Node{g.Input} }

// Open implements Node. The view is resolved once and every worker opens
// its fragment with the fragment's own Open, under a context that reads
// that view over the worker's partition (exec.ExecCtx.ForPartition), so
// all workers scan the page table the partitions were computed from.
func (g *GatherNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	v := execView(ec, g.Scan.Heap)
	owner := v.Owner()
	parts := v.Partitions(g.Workers)
	if len(parts) > 1 {
		owner.RecordParallelWorkers(len(parts))
		if v.Segmented() {
			owner.RecordParallelStriped(1)
		}
	}
	fragment := func(n Node) exec.PipelineBuild {
		return func(r storage.PageRange) exec.BatchIterator {
			return n.Open(ec.ForPartition(v, r))
		}
	}
	switch x := g.Input.(type) {
	case *HashAggNode:
		return exec.NewParallelHashAgg(parts, fragment(x.Child), x.GroupBy, x.Aggs)
	case *HashJoinNode:
		return exec.NewParallelHashJoin(parts, fragment(x.Probe), x.Build.Open(ec),
			x.ProbeKeys, x.BuildKeys, conjoinExec(x.Residual), len(x.Build.Layout().Cols))
	case *SortNode:
		owner.RecordSortedMergeParts(int64(len(parts)))
		return exec.NewParallelSortedMerge(parts, fragment(x), x.Keys, -1)
	case *TopNNode:
		owner.RecordSortedMergeParts(int64(len(parts)))
		return exec.NewParallelSortedMerge(parts, fragment(x), x.Keys, x.N)
	default:
		return exec.NewParallelPipeline(parts, fragment(g.Input))
	}
}

// pipelineWorkers computes the worker count for a pipeline over h: one
// worker per ParallelScanMinPages pages, bounded by GOMAXPROCS and by the
// max_parallel_workers session setting (0 = GOMAXPROCS default, 1 = force
// serial).
func (p *Planner) pipelineWorkers(h storage.ReadView) int {
	if p.Cfg.MaxParallelWorkers == 1 || p.Cfg.ParallelScanMinPages <= 0 {
		return 1
	}
	w := h.NumPages() / p.Cfg.ParallelScanMinPages
	maxW := runtime.GOMAXPROCS(0)
	if p.Cfg.MaxParallelWorkers > 0 && p.Cfg.MaxParallelWorkers < maxW {
		maxW = p.Cfg.MaxParallelWorkers
	}
	if w > maxW {
		w = maxW
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelize rewrites the plan tree, wrapping eligible fragments in
// GatherNodes. It returns the (possibly replaced) node.
func (p *Planner) parallelize(n Node) Node {
	return p.parallelizeNode(n, false)
}

func (p *Planner) parallelizeNode(n Node, underLimit bool) Node {
	switch x := n.(type) {
	case *LimitNode:
		x.Child = p.parallelizeNode(x.Child, true)
		return x
	case *SortNode:
		// A sort over a parallelizable chain sorts each partition locally
		// and k-way-merges the sorted streams — no chainWorthwhile gate: the
		// O(n log n) sort itself is the work worth spreading; otherwise it
		// remains a full barrier (a LIMIT above it cannot early-stop the
		// child).
		if g := p.gather(x, x.Child, sortExprs(x.Keys)...); g != nil {
			x.AppendKeys = true
			return g
		}
		x.Child = p.parallelizeNode(x.Child, false)
		return x
	case *TopNNode:
		// Top-N pushes its bound into each partition: workers keep at most
		// N rows, the merge stops after emitting N.
		if g := p.gather(x, x.Child, sortExprs(x.Keys)...); g != nil {
			x.AppendKeys = true
			return g
		}
		x.Child = p.parallelizeNode(x.Child, false)
		return x
	case *UniqueNode:
		x.Child = p.parallelizeNode(x.Child, underLimit)
		return x
	case *HashAggNode:
		if aggsMergeable(x.Aggs) {
			if g := p.gather(x, x.Child, aggExprs(x)...); g != nil {
				return g
			}
		}
		x.Child = p.parallelizeNode(x.Child, false)
		return x
	case *GroupAggNode:
		x.Child = p.parallelizeNode(x.Child, underLimit)
		return x
	case *HashJoinNode:
		if !underLimit {
			if g := p.gather(x, x.Probe, slices.Concat(x.ProbeKeys, x.BuildKeys, x.Residual)...); g != nil {
				x.Build = p.parallelizeNode(x.Build, false)
				return g
			}
		}
		x.Probe = p.parallelizeNode(x.Probe, underLimit)
		x.Build = p.parallelizeNode(x.Build, false)
		return x
	case *MergeJoinNode:
		x.Left = p.parallelizeNode(x.Left, false)
		x.Right = p.parallelizeNode(x.Right, false)
		return x
	case *NestedLoopNode:
		x.Outer = p.parallelizeNode(x.Outer, underLimit)
		x.Inner = p.parallelizeNode(x.Inner, false)
		return x
	case *ScanNode, *FilterNode, *ProjectNode, *MultiExtractNode:
		// A bare scan is the zero-operator chain: with predicates it gathers
		// like any other, without them chainWorthwhile keeps it serial.
		if !underLimit && chainWorthwhile(n) {
			if g := p.gather(n, n); g != nil {
				return g
			}
		}
		switch c := n.(type) {
		case *FilterNode:
			c.Child = p.parallelizeNode(c.Child, underLimit)
		case *ProjectNode:
			c.Child = p.parallelizeNode(c.Child, underLimit)
		case *MultiExtractNode:
			c.Child = p.parallelizeNode(c.Child, underLimit)
		}
		return n
	default:
		return n
	}
}

// gather wraps root in a GatherNode whose workers each run root over one
// partition of the heap at the bottom of chain — root itself or root's
// input — when chain is a parallel-safe chain (safeChainScan), root's own
// expressions exprs are parallel-safe, and the heap is large enough for
// more than one worker.
func (p *Planner) gather(root, chain Node, exprs ...exec.Expr) *GatherNode {
	scan := safeChainScan(chain)
	if scan == nil || !parallelSafe(exprs) {
		return nil
	}
	w := p.pipelineWorkers(scan.Heap)
	if w <= 1 {
		return nil
	}
	return &GatherNode{
		baseNode: baseNode{layout: root.Layout(), rows: root.Rows(), cost: root.Cost()},
		Input:    root,
		Scan:     scan,
		Workers:  w,
	}
}

// safeChainScan returns the scan at the bottom of n when n is a
// Filter/Project/MultiExtract chain over a ScanNode whose every expression
// (the scan's pushed-down predicates included) is parallel-safe, and nil
// otherwise.
func safeChainScan(n Node) *ScanNode {
	for {
		var exprs []exec.Expr
		switch x := n.(type) {
		case *ScanNode:
			if !parallelSafe(x.Preds) {
				return nil
			}
			return x
		case *FilterNode:
			exprs, n = x.Preds, x.Child
		case *ProjectNode:
			exprs, n = x.Exprs, x.Child
		case *MultiExtractNode:
			n = x.Child
		default:
			return nil
		}
		if !parallelSafe(exprs) {
			return nil
		}
	}
}

// parallelSafe reports whether every one of exprs is exec.ParallelSafe.
func parallelSafe(exprs []exec.Expr) bool {
	for _, e := range exprs {
		if !exec.ParallelSafe(e) {
			return false
		}
	}
	return true
}

// chainWorthwhile reports whether the chain n does enough per-row work for
// a gather to pay off: a predicate, an extraction or a computed column.
// Plain column projections over a filterless scan are excluded — they are
// served by the fused collector (fusedCollect) or run at memory speed, and
// a gather would only add clone+merge overhead.
func chainWorthwhile(n Node) bool {
	for {
		switch x := n.(type) {
		case *ScanNode:
			return len(x.Preds) > 0
		case *FilterNode, *MultiExtractNode:
			return true
		case *ProjectNode:
			for _, e := range x.Exprs {
				if _, plain := e.(*exec.ColExpr); !plain {
					return true
				}
			}
			n = x.Child
		default:
			return false
		}
	}
}

// sortExprs lists a sort's key expressions.
func sortExprs(keys []exec.SortKey) []exec.Expr {
	exprs := make([]exec.Expr, len(keys))
	for i, k := range keys {
		exprs[i] = k.Expr
	}
	return exprs
}

// aggsMergeable reports whether two-phase aggregation is exact for aggs:
// DISTINCT aggregates are not (per-worker distinct sets double-count), and
// MIN/MAX over a statically untyped argument could pick a different
// first-seen type than the serial heap-order accumulator.
func aggsMergeable(aggs []*exec.AggSpec) bool {
	for _, a := range aggs {
		if a.Distinct {
			return false
		}
		if (a.Kind == exec.AggMin || a.Kind == exec.AggMax) && a.Arg != nil && a.Arg.Type() == types.Unknown {
			return false
		}
	}
	return true
}

// aggExprs lists a hash aggregate's group keys and aggregate arguments.
func aggExprs(h *HashAggNode) []exec.Expr {
	exprs := slices.Clone(h.GroupBy)
	for _, a := range h.Aggs {
		if a.Arg != nil {
			exprs = append(exprs, a.Arg)
		}
	}
	return exprs
}
