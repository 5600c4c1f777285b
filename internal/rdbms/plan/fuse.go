package plan

import (
	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements the fused-extraction rewrite: when a batch
// projection evaluates two or more fusable extraction calls — calls of the
// form f(col, 'key') whose FuncDef carries a FuseFamily with a registered
// MultiExtractFactory — over the same serialized column, the calls are
// replaced by references to columns appended by a single MultiExtractNode
// below the projection. One kernel invocation then decodes each record
// once for all keys, instead of N independent UDF evaluations re-walking
// the record per key.
//
// Calls inside lazily evaluated expressions (COALESCE, AND/OR, IN, ANY)
// are left alone: the batch evaluator runs them only over the rows an
// earlier branch left undecided (the COALESCE-for-dirty-columns contract,
// §3.1.4), and a fused kernel would evaluate them for every row.

// fuseSlotKey identifies one distinct extraction request within a plan's
// projection: the call family, the input column, and the (key, type)
// request.
type fuseSlotKey struct {
	family  string
	dataIdx int
	key     string
	typ     uint8
	any     bool
}

// fuseExtracts walks the plan tree and applies the fusion rewrite to every
// projection and to sort / Top-N keys (a sort key like
// extract_int(data, 'k') otherwise re-parses every record row-wise inside
// the sort's key evaluation, even over a striped scan).
func (p *Planner) fuseExtracts(n Node) {
	if n == nil {
		return
	}
	// Children first: fusing a sort's keys widens the sort's output (the
	// appended key columns pass through it), and every ancestor's column
	// arithmetic must see the widened layout.
	for _, c := range n.Children() {
		p.fuseExtracts(c)
	}
	switch x := n.(type) {
	case *ProjectNode:
		p.fuseProject(x)
	case *SortNode:
		x.Child = p.fuseSortKeys(x.Child, x.Keys)
		// The appended key columns ride through the sort: republish its
		// layout so parents index past them.
		x.layout = &Layout{Rows: x.layout.Rows, Cols: x.Child.Layout().Cols}
	case *TopNNode:
		x.Child = p.fuseSortKeys(x.Child, x.Keys)
		x.layout = &Layout{Rows: x.layout.Rows, Cols: x.Child.Layout().Cols}
	}
}

// fuseProject rewrites one projection in place when it contains ≥2
// distinct fusable requests over the same column.
func (p *Planner) fuseProject(pn *ProjectNode) {
	slots := make([]*exec.Expr, len(pn.Exprs))
	for i := range pn.Exprs {
		slots[i] = &pn.Exprs[i]
	}
	pn.Child = p.fuseSlots(pn.Child, slots)
}

// fuseSortKeys applies the fusion rewrite to sort-key expressions: fused
// keys become references to columns appended below the sort, so key
// evaluation is one vectorized kernel pass (segment vectors on striped
// scans) instead of a per-row record parse. The appended columns ride
// through the sort as ordinary payload.
func (p *Planner) fuseSortKeys(child Node, keys []exec.SortKey) Node {
	slots := make([]*exec.Expr, len(keys))
	for i := range keys {
		slots[i] = &keys[i].Expr
	}
	return p.fuseSlots(child, slots)
}

// fuseSlots is the shared fusion body: it collects fusable extraction
// calls from the expression slots, inserts MultiExtractNodes above child
// for every group worth fusing, rewrites the slots to reference the
// appended columns, and returns the (possibly unchanged) child.
func (p *Planner) fuseSlots(child Node, exprSlots []*exec.Expr) Node {
	childW := len(child.Layout().Cols)

	type slot struct {
		req  exec.MultiExtractReq
		name string
	}
	var order []fuseSlotKey
	slots := map[fuseSlotKey]*slot{}

	// fusableCall resolves e to its slot key when it is a fusable
	// extraction call over a child column.
	fusableCall := func(x *exec.CallExpr) (fuseSlotKey, bool) {
		d := x.Def
		if d == nil || d.FuseFamily == "" || len(x.Args) != 2 {
			return fuseSlotKey{}, false
		}
		ce, okc := x.Args[0].(*exec.ColExpr)
		ke, okk := x.Args[1].(*exec.ConstExpr)
		if !okc || !okk || ce.Idx < 0 || ce.Idx >= childW ||
			ke.Val.IsNull() || ke.Val.Typ != types.Text {
			return fuseSlotKey{}, false
		}
		if _, ok := p.Funcs.MultiExtract(d.FuseFamily); !ok {
			return fuseSlotKey{}, false
		}
		return fuseSlotKey{d.FuseFamily, ce.Idx, ke.Val.Text(), d.FuseType, d.FuseAny}, true
	}

	var collect func(e exec.Expr)
	collect = func(e exec.Expr) {
		switch x := e.(type) {
		case *exec.CallExpr:
			if sk, ok := fusableCall(x); ok {
				if _, seen := slots[sk]; !seen {
					ret := types.Unknown
					if x.Def.RetType != nil {
						ret = x.Def.RetType(nil)
					}
					slots[sk] = &slot{
						req:  exec.MultiExtractReq{Key: sk.key, Type: sk.typ, Any: sk.any, Ret: ret},
						name: x.String(),
					}
					order = append(order, sk)
				}
				return
			}
			for _, a := range x.Args {
				collect(a)
			}
		case *exec.CoalesceExpr, *exec.InListExpr, *exec.AnyExpr:
			// Lazy contexts: leave their arguments to the evaluator's
			// narrowed selections.
		case *exec.BinExpr:
			if x.Op != "AND" && x.Op != "OR" {
				collect(x.L)
				collect(x.R)
			}
		case *exec.NotExpr:
			collect(x.X)
		case *exec.NegExpr:
			collect(x.X)
		case *exec.IsNullExpr:
			collect(x.X)
		case *exec.BetweenExpr:
			collect(x.X)
			collect(x.Lo)
			collect(x.Hi)
		case *exec.LikeExpr:
			collect(x.X)
			collect(x.Pattern)
		case *exec.CastExpr:
			collect(x.X)
		}
	}
	for _, e := range exprSlots {
		collect(*e)
	}

	// Group the requests by (family, input column); each group with ≥2
	// distinct requests becomes one MultiExtractNode.
	type groupKey struct {
		family  string
		dataIdx int
	}
	type group struct {
		gk   groupKey
		keys []fuseSlotKey
	}
	var groups []*group
	byGK := map[groupKey]*group{}
	for _, sk := range order {
		gk := groupKey{sk.family, sk.dataIdx}
		g, ok := byGK[gk]
		if !ok {
			g = &group{gk: gk}
			byGK[gk] = g
			groups = append(groups, g)
		}
		g.keys = append(g.keys, sk)
	}

	cur := child
	colBase := childW
	replaced := map[fuseSlotKey]*exec.ColExpr{}
	for _, g := range groups {
		// Fusing needs ≥2 keys to pay off on the row path (one decode for
		// all keys); a single key still fuses over a striped-eligible scan,
		// where only a MultiExtractNode can reach the segment vectors.
		if len(g.keys) < 2 && !p.segmentFusable(g.gk.family, child) {
			continue
		}
		factory, _ := p.Funcs.MultiExtract(g.gk.family)
		lay := &Layout{Rows: cur.Layout().Rows}
		lay.Cols = append(lay.Cols, cur.Layout().Cols...)
		reqs := make([]exec.MultiExtractReq, 0, len(g.keys))
		for i, sk := range g.keys {
			s := slots[sk]
			reqs = append(reqs, s.req)
			lay.Cols = append(lay.Cols, LayoutCol{Name: s.name, Typ: s.req.Ret})
			replaced[sk] = &exec.ColExpr{Idx: colBase + i, Typ: s.req.Ret, Name: s.name}
		}
		src := ""
		if g.gk.dataIdx < len(child.Layout().Cols) {
			src = child.Layout().Cols[g.gk.dataIdx].Name
		}
		cur = &MultiExtractNode{
			baseNode: baseNode{
				layout: lay,
				rows:   cur.Rows(),
				// One decode pass per row regardless of key count; charge a
				// fraction of the per-call UDF cost per key.
				cost: cur.Cost() + cur.Rows()*float64(len(reqs))*0.01,
			},
			Child:   cur,
			DataIdx: g.gk.dataIdx,
			Reqs:    reqs,
			Factory: factory,
			Family:  g.gk.family,
			Source:  src,
		}
		colBase += len(reqs)
	}
	if cur == child {
		return child
	}

	var rewrite func(e exec.Expr) exec.Expr
	rewrite = func(e exec.Expr) exec.Expr {
		switch x := e.(type) {
		case *exec.CallExpr:
			if sk, ok := fusableCall(x); ok {
				if rc, done := replaced[sk]; done {
					return rc
				}
				return x
			}
			for i := range x.Args {
				x.Args[i] = rewrite(x.Args[i])
			}
		case *exec.BinExpr:
			if x.Op != "AND" && x.Op != "OR" {
				x.L = rewrite(x.L)
				x.R = rewrite(x.R)
			}
		case *exec.NotExpr:
			x.X = rewrite(x.X)
		case *exec.NegExpr:
			x.X = rewrite(x.X)
		case *exec.IsNullExpr:
			x.X = rewrite(x.X)
		case *exec.BetweenExpr:
			x.X = rewrite(x.X)
			x.Lo = rewrite(x.Lo)
			x.Hi = rewrite(x.Hi)
		case *exec.LikeExpr:
			x.X = rewrite(x.X)
			x.Pattern = rewrite(x.Pattern)
		case *exec.CastExpr:
			x.X = rewrite(x.X)
		}
		return e
	}
	for _, e := range exprSlots {
		*e = rewrite(*e)
	}
	return cur
}
