package plan

import (
	"math"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
)

// orderJoins combines the per-table relations into a single join tree using
// greedy smallest-output-first ordering. Estimated cardinalities drive both
// the order and the join algorithm choice, so plans genuinely change when
// the estimates change — which is the mechanism Table 2 of the paper
// demonstrates for virtual vs. physical columns.
func (p *Planner) orderJoins(rels []*relation, conjuncts []*conjunct) (Node, *Layout, error) {
	for len(rels) > 1 {
		type candidate struct {
			i, j     int
			edges    []*conjunct
			rows     float64
			hasEdges bool
		}
		best := candidate{i: -1}
		for i := 0; i < len(rels); i++ {
			for j := i + 1; j < len(rels); j++ {
				edges := edgesBetween(conjuncts, rels[i], rels[j])
				rows := p.estimateJoinRows(rels[i], rels[j], edges)
				c := candidate{i: i, j: j, edges: edges, rows: rows, hasEdges: len(edges) > 0}
				if best.i < 0 ||
					(c.hasEdges && !best.hasEdges) ||
					(c.hasEdges == best.hasEdges && c.rows < best.rows) {
					best = c
				}
			}
		}
		left, right := rels[best.i], rels[best.j]
		joined, err := p.buildJoin(left, right, best.edges, best.rows, conjuncts)
		if err != nil {
			return nil, nil, err
		}
		// Replace the pair with the joined relation.
		out := rels[:0]
		for k, r := range rels {
			if k != best.i && k != best.j {
				out = append(out, r)
			}
		}
		rels = append(out, joined)
	}
	return rels[0].node, rels[0].layout, nil
}

// edgesBetween returns the unused equi-join conjuncts connecting a and b.
func edgesBetween(conjuncts []*conjunct, a, b *relation) []*conjunct {
	var out []*conjunct
	for _, cj := range conjuncts {
		if cj.used || !cj.isEdge {
			continue
		}
		if (a.tables[cj.lTable] && b.tables[cj.rTable]) ||
			(a.tables[cj.rTable] && b.tables[cj.lTable]) {
			out = append(out, cj)
		}
	}
	return out
}

// estimateJoinRows estimates |A ⋈ B| as |A|·|B| / Π max(nd(keyA), nd(keyB)),
// falling back to the cross product when no equi edges exist.
func (p *Planner) estimateJoinRows(a, b *relation, edges []*conjunct) float64 {
	rows := math.Max(a.node.Rows(), 1) * math.Max(b.node.Rows(), 1)
	esA := p.estimator(a.layout, a.node.Rows())
	esB := p.estimator(b.layout, b.node.Rows())
	for _, e := range edges {
		lhs, rhs := e.lhs, e.rhs
		if !a.tables[e.lTable] {
			lhs, rhs = rhs, lhs
		}
		nd := math.Max(esA.ndistinct(lhs), esB.ndistinct(rhs))
		if nd < 1 {
			nd = 1
		}
		rows /= nd
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// buildJoin constructs the physical join of two relations, choosing hash vs
// merge vs nested-loop and attaching any residual predicates that become
// applicable.
func (p *Planner) buildJoin(a, b *relation, edges []*conjunct, estRows float64, conjuncts []*conjunct) (*relation, error) {
	unionTables := make(map[string]bool, len(a.tables)+len(b.tables))
	for t := range a.tables {
		unionTables[t] = true
	}
	for t := range b.tables {
		unionTables[t] = true
	}

	// Orient edges so lhs belongs to a and rhs to b; compile keys against
	// each side's layout.
	var aKeys, bKeys []exec.Expr

	for _, e := range edges {
		lhs, rhs := e.lhs, e.rhs
		if !a.tables[e.lTable] {
			lhs, rhs = rhs, lhs
		}
		ak, err := CompileExpr(lhs, a.layout, p.Funcs, "JOIN")
		if err != nil {
			return nil, err
		}
		bk, err := CompileExpr(rhs, b.layout, p.Funcs, "JOIN")
		if err != nil {
			return nil, err
		}
		aKeys = append(aKeys, ak)
		bKeys = append(bKeys, bk)
		e.used = true
	}

	outLayout := Concat(a.layout, b.layout)
	outLayout.Rows = estRows

	// Residuals: unused non-edge conjuncts now fully covered, and not
	// local to either single side (those were pushed into scans).
	var residASTs []sqlparse.Expr
	for _, cj := range conjuncts {
		if cj.used {
			continue
		}
		if subsetOf(cj.tables, unionTables) && !subsetOf(cj.tables, a.tables) && !subsetOf(cj.tables, b.tables) {
			residASTs = append(residASTs, cj.ast)
			cj.used = true
		}
	}
	var residual []exec.Expr
	residSel := 1.0
	es := p.estimator(outLayout, estRows)
	for _, ra := range residASTs {
		ce, err := CompileExpr(ra, outLayout, p.Funcs, "JOIN")
		if err != nil {
			return nil, err
		}
		residual = append(residual, ce)
		residSel *= es.selectivity(ra)
	}
	estRows = math.Max(estRows*residSel, 1)
	outLayout.Rows = estRows

	rowsA, rowsB := math.Max(a.node.Rows(), 1), math.Max(b.node.Rows(), 1)
	ct, co := p.Cfg.CPUTupleCost, p.Cfg.CPUOperatorCost

	var node Node
	switch {
	case len(edges) == 0:
		// Cross / non-equi join: nested loop with the smaller side inner.
		outer, inner := a, b
		if rowsB > rowsA {
			outer, inner = b, a
			// Layout must match outer ++ inner ordering.
			outLayout = Concat(outer.layout, inner.layout)
			outLayout.Rows = estRows
			residual = residual[:0]
			for _, ra := range residASTs {
				ce, err := CompileExpr(ra, outLayout, p.Funcs, "JOIN")
				if err != nil {
					return nil, err
				}
				residual = append(residual, ce)
			}
		}
		cost := outer.node.Cost() + inner.node.Cost() +
			math.Max(outer.node.Rows(), 1)*math.Max(inner.node.Rows(), 1)*(co+exprCostOf(residual))
		node = &NestedLoopNode{
			baseNode: baseNode{layout: outLayout, rows: estRows, cost: cost},
			Outer:    outer.node, Inner: inner.node, Cond: residual,
		}
	case math.Min(rowsA, rowsB) <= p.Cfg.HashJoinMaxBuildRows:
		// Hash join; build on the smaller side. Output layout is
		// probe ++ build.
		probe, build := a, b
		probeKeys, buildKeys := aKeys, bKeys
		if rowsA < rowsB {
			probe, build = b, a
			probeKeys, buildKeys = bKeys, aKeys
		}
		outLayout = Concat(probe.layout, build.layout)
		outLayout.Rows = estRows
		residual, err := compileAll(residASTs, outLayout, p.Funcs)
		if err != nil {
			return nil, err
		}
		cost := probe.node.Cost() + build.node.Cost() +
			math.Max(build.node.Rows(), 1)*ct*1.5 +
			math.Max(probe.node.Rows(), 1)*(ct+exprCostOf(probeKeys)) +
			estRows*(co+exprCostOf(residual))
		node = &HashJoinNode{
			baseNode: baseNode{layout: outLayout, rows: estRows, cost: cost},
			Probe:    probe.node, Build: build.node,
			ProbeKeys: probeKeys, BuildKeys: buildKeys, Residual: residual,
		}
	default:
		// Merge join with sorts below both inputs.
		aSortKeys := make([]exec.SortKey, len(aKeys))
		for i, k := range aKeys {
			aSortKeys[i] = exec.SortKey{Expr: k}
		}
		bSortKeys := make([]exec.SortKey, len(bKeys))
		for i, k := range bKeys {
			bSortKeys[i] = exec.SortKey{Expr: k}
		}
		leftSorted := p.newSort(a.node, a.layout, aSortKeys)
		rightSorted := p.newSort(b.node, b.layout, bSortKeys)
		cost := leftSorted.Cost() + rightSorted.Cost() +
			(rowsA+rowsB)*ct + estRows*(co+exprCostOf(residual))
		node = &MergeJoinNode{
			baseNode: baseNode{layout: outLayout, rows: estRows, cost: cost},
			Left:     leftSorted, Right: rightSorted,
			LeftKeys: aKeys, RightKeys: bKeys, Residual: residual,
		}
	}
	return &relation{node: node, layout: node.Layout(), tables: unionTables}, nil
}

func compileAll(asts []sqlparse.Expr, layout *Layout, funcs *exec.Registry) ([]exec.Expr, error) {
	out := make([]exec.Expr, len(asts))
	for i, a := range asts {
		e, err := CompileExpr(a, layout, funcs, "JOIN")
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}
