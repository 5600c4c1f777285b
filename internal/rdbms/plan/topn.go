package plan

import (
	"fmt"
	"math"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// rewriteTopN substitutes a bounded Top-N for a SortNode feeding a LIMIT —
// directly (LIMIT → SORT) or through a cardinality-preserving projection
// (LIMIT → PROJECT → SORT). The LimitNode stays in place (its truncation
// is a no-op over the already bounded stream, and DISTINCT or other
// shapes above the sort keep their semantics); only the sort below stops
// materializing more than N rows.
func (p *Planner) rewriteTopN(n Node) Node {
	l, ok := n.(*LimitNode)
	if !ok || l.N <= 0 {
		return n
	}
	switch c := l.Child.(type) {
	case *SortNode:
		l.Child = p.newTopN(c, l.N)
	case *ProjectNode:
		if s, sok := c.Child.(*SortNode); sok {
			c.Child = p.newTopN(s, l.N)
		}
	}
	return n
}

// newTopN converts a SortNode into a TopNNode bounded at limit rows. The
// cost model replaces the full n·log n sort with an n·log N heap pass.
func (p *Planner) newTopN(s *SortNode, limit int64) Node {
	in := math.Max(s.Child.Rows(), 1)
	bound := math.Min(float64(limit), in)
	cost := s.Child.Cost() + in*math.Log2(bound+1)*p.Cfg.CPUOperatorCost*2 + bound*p.Cfg.CPUTupleCost
	return &TopNNode{
		baseNode: baseNode{layout: s.Layout(), rows: math.Min(s.Rows(), float64(limit)), cost: cost},
		Child:    s.Child,
		Keys:     append([]exec.SortKey(nil), s.Keys...),
		N:        limit,
	}
}

// deriveTopNSkip bounds the page reads of a Top-N over a bare scan
// by its own limit: when the first sort key is a physical column whose
// per-page min/max the summaries track, the scan gets a skip factory that
// runs storage.HeapChunkIter.TopNSkip at every iterator open — per
// execution, because a cached plan outlives loads. A scan with predicates
// does not qualify: the pages' live counts say nothing about how many rows
// pass.
func deriveTopNSkip(t *TopNNode) {
	s, ok := t.Child.(*ScanNode)
	if !ok || len(s.Preds) > 0 || len(t.Keys) == 0 {
		return
	}
	c, ok := t.Keys[0].Expr.(*exec.ColExpr)
	if !ok || !storage.RangeTracked(c.Typ) {
		return
	}
	col, desc, n := c.Idx, t.Keys[0].Desc, t.N
	s.Skip = func(it *storage.HeapChunkIter, _ []types.Datum) func(*storage.PageSummary) bool {
		return it.TopNSkip(col, desc, n)
	}
	s.SkipSource = fmt.Sprintf("top-n bound (%s, %d)", sortKeyDisplay(t.Keys[:1]), n)
}
