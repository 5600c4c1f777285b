package plan

import (
	"math"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
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
		Batch:    s.Batch,
	}
}
