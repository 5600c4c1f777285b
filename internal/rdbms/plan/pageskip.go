package plan

import (
	"fmt"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file derives page-skip predicates from scan filters. Every heap
// page carries an optional summary: the sorted set of Sinew attribute IDs
// present in its serialized column plus min/max ranges for physical
// columns (storage.PageSummary). A filter conjunct lets a page be skipped
// when the summary proves the conjunct cannot be TRUE for any row of the
// page — then no row passes the AND of conjuncts and the page need not be
// read (or charged to the pager).
//
// The derivation rests on NULL-strictness. For a conjunct e we use two
// properties:
//
//	P(e): if a given atom inside e evaluates to NULL, e does not evaluate
//	      to TRUE (it is NULL or FALSE). Holds for comparisons, BETWEEN,
//	      [NOT] IN, [NOT] LIKE, ANY, IS NOT NULL — all strict in SQL.
//	V(e): if the atom is NULL, e's *value* is NULL. Holds for arithmetic,
//	      casts, negation, and extraction calls themselves.
//
// Extraction calls f(col, 'key') return NULL when the key is absent from
// the record, so "page lacks every attribute ID for 'key'" implies the
// atom is NULL on every row, which under P implies the conjunct is never
// TRUE. Barriers that stop the descent: OR, NOT (NOT(x AND FALSE) can be
// TRUE with x NULL), IS NULL, COALESCE, and calls to non-extraction
// functions (unknown NULL behaviour).

// skipCond is one page-level exclusion test.
type skipCond struct {
	// attr: skip the page when it lacks every attribute ID the dictionary
	// maps key to, for serialized column col. The key is resolved to IDs at
	// execution time (once per iterator open), not plan time: cached plans
	// outlive dictionary growth (a later load can mint a new ID for the
	// key), while during one execution the statement's table locks keep new
	// IDs off the scanned pages. Otherwise: a range test "col op val must
	// hold for some row".
	// zone: skip the page when, for EVERY attribute ID the dictionary maps
	// key to, the page either lacks the ID outright or carries a segment
	// zone map proving no present value can satisfy "atom op val". Zone
	// conditions only exist for typed extraction atoms compared against
	// constants; they extend attr conditions from "key absent" to "key
	// present but out of range", using the min/max the segment already
	// knows (the freeze-time analogue of Sinew's catalog
	// statistics).
	attr bool
	zone bool
	col  int
	key  string
	op   string
	val  types.Datum
	// slot, when not -1, names the parameter val is read from at open: a
	// cached shape's plan tests each execution's own value.
	slot int
}

// deriveSkips walks the plan and installs page-skip predicates on scans:
// from their filters, and from the bound of a Top-N over a bare
// scan (deriveTopNSkip). It runs after fusion/pruning, on plain ScanNodes
// (whose predicates still contain raw extraction calls — fusion only
// rewrites projections).
func (p *Planner) deriveSkips(n Node) {
	if n == nil {
		return
	}
	switch x := n.(type) {
	case *ScanNode:
		p.deriveScanSkip(x, nil)
		return
	case *TopNNode:
		deriveTopNSkip(x)
	case *FilterNode:
		// A residual filter directly above a scan evaluates over the scan's
		// layout, so its conjuncts can contribute skip conditions too.
		if sc, ok := x.Child.(*ScanNode); ok {
			p.deriveScanSkip(sc, x.Preds)
			return
		}
	}
	for _, c := range n.Children() {
		p.deriveSkips(c)
	}
}

func (p *Planner) deriveScanSkip(s *ScanNode, extra []exec.Expr) {
	resolver := p.Funcs.AttrResolverFn()
	var conds []skipCond
	for _, e := range s.Preds {
		conds = append(conds, condsP(e, resolver)...)
	}
	for _, e := range extra {
		conds = append(conds, condsP(e, resolver)...)
	}
	if len(conds) == 0 {
		return
	}
	s.Skip = makeSkip(conds, resolver, s.Heap.Owner())
	s.SkipSource = fmt.Sprintf("%d conds", len(conds))
}

// makeSkip compiles conds into a factory of per-page tests. The factory
// runs at iterator open — after the statement took its table locks — and
// resolves every key to its current attribute IDs exactly once, so the
// per-page check does no dictionary lookups and each execution of a
// cached plan still sees the live dictionary. Any single condition
// proving exclusion suffices: each derives from a top-level conjunct, and
// one always-false conjunct kills the whole AND.
//
// A condition over a parameter reads the execution's value here too, beside
// the attribute IDs: a cached shape's plan is shared by executions with
// different values. One without a value (none bound, or NULL) proves
// nothing.
func makeSkip(conds []skipCond, resolver exec.AttrResolver, h *storage.Heap) func(*storage.HeapChunkIter, []types.Datum) func(*storage.PageSummary) bool {
	// openCond is one condition as one execution tests it.
	type openCond struct {
		skipCond
		off bool     // a parameter without a usable value: proves nothing
		ids []uint32 // the key's attribute IDs (attr and zone)
		// Per-ID singleton slices for the zone test's LacksAllAttrs probes,
		// allocated at open: the factory is shared by every execution of a
		// cached plan, so it must not write shared scratch.
		singles [][]uint32
	}
	return func(_ *storage.HeapChunkIter, params []types.Datum) func(*storage.PageSummary) bool {
		open := make([]openCond, len(conds))
		for i, c := range conds {
			o := &open[i]
			o.skipCond = c
			if c.slot >= 0 {
				if c.slot >= len(params) || params[c.slot].IsNull() {
					o.off = true
					continue
				}
				o.val = params[c.slot]
			}
			if c.attr || c.zone {
				o.ids = resolver(c.key)
			}
			if c.zone {
				for _, id := range o.ids {
					o.singles = append(o.singles, []uint32{id})
				}
			}
		}
		return func(sum *storage.PageSummary) bool {
			for i := range open {
				c := &open[i]
				if c.off {
					continue
				}
				if c.attr {
					if ids := c.ids; ids != nil && sum.LacksAllAttrs(c.col, ids) {
						return true
					}
					continue
				}
				if c.zone {
					ids := c.ids
					if len(ids) == 0 {
						continue
					}
					excluded := true
					for j, id := range ids {
						if sum.LacksAllAttrs(c.col, c.singles[j]) {
							continue
						}
						z, ok := sum.AttrZone(c.col, id)
						if !ok || !zoneExcludes(z, c.op, c.val) {
							excluded = false
							break
						}
					}
					if excluded {
						if h != nil {
							h.RecordZoneSkips(1)
						}
						return true
					}
					continue
				}
				min, max, ok := sum.ColRange(c.col)
				if !ok {
					continue
				}
				if rangeExcludes(min, max, c.op, c.val) {
					return true
				}
			}
			return false
		}
	}
}

// rangeExcludes reports whether a [min, max] value range proves that no
// value in it satisfies "value op val". Incomparable datums prove
// nothing (Compare errors are conservative no-skips).
func rangeExcludes(min, max types.Datum, op string, val types.Datum) bool {
	switch op {
	case "=":
		if lt, err := types.Compare(val, min); err == nil && lt < 0 {
			return true
		}
		if gt, err := types.Compare(val, max); err == nil && gt > 0 {
			return true
		}
	case "<":
		if r, err := types.Compare(min, val); err == nil && r >= 0 {
			return true
		}
	case "<=":
		if r, err := types.Compare(min, val); err == nil && r > 0 {
			return true
		}
	case ">":
		if r, err := types.Compare(max, val); err == nil && r <= 0 {
			return true
		}
	case ">=":
		if r, err := types.Compare(max, val); err == nil && r < 0 {
			return true
		}
	}
	return false
}

// zoneExcludes reports whether one attribute's zone map proves no row of
// the page can satisfy "atom op val" through this attribute ID. A zone
// with zero present values excludes trivially (the atom is NULL wherever
// it would resolve via this ID); otherwise the zone's min/max must
// exclude the range. Zones without ranges (strings, bools, nested
// values, NaN-poisoned floats) prove nothing.
func zoneExcludes(z storage.AttrZone, op string, val types.Datum) bool {
	if z.Present == 0 {
		return true
	}
	if !z.HasRange {
		return false
	}
	return rangeExcludes(z.Min, z.Max, op, val)
}

// condsP derives exclusion conditions from conjunct e using property P:
// every returned condition, when proven by a page summary, implies e is
// not TRUE on any row of the page.
func condsP(e exec.Expr, resolver exec.AttrResolver) []skipCond {
	switch x := e.(type) {
	case *exec.BinExpr:
		switch x.Op {
		case "AND":
			// Both sides must be TRUE, so either side's conditions apply.
			return append(condsP(x.L, resolver), condsP(x.R, resolver)...)
		case "=", "<>", "<", "<=", ">", ">=":
			conds := append(condsV(x.L, resolver), condsV(x.R, resolver)...)
			if x.Op != "<>" {
				if rc, ok := rangeCond(x.L, x.R, x.Op); ok {
					conds = append(conds, rc)
				} else if rc, ok := rangeCond(x.R, x.L, flipOp(x.Op)); ok {
					conds = append(conds, rc)
				}
				if zc, ok := zoneCond(x.L, x.R, x.Op, resolver); ok {
					conds = append(conds, zc)
				} else if zc, ok := zoneCond(x.R, x.L, flipOp(x.Op), resolver); ok {
					conds = append(conds, zc)
				}
			}
			return conds
		default:
			// OR and value-level operators in boolean position: a NULL/zero
			// value is not TRUE only for strict value trees.
			return nil
		}
	case *exec.BetweenExpr:
		conds := condsV(x.X, resolver)
		if x.Not {
			// NOT BETWEEN is TRUE when X is outside [Lo, Hi]; NULL bounds
			// make it NULL, but a page-range proof would need both bounds,
			// so only the X-is-NULL condition is used.
			return conds
		}
		conds = append(conds, condsV(x.Lo, resolver)...)
		conds = append(conds, condsV(x.Hi, resolver)...)
		if rc, ok := rangeCond(x.X, x.Lo, ">="); ok {
			conds = append(conds, rc)
		}
		if rc, ok := rangeCond(x.X, x.Hi, "<="); ok {
			conds = append(conds, rc)
		}
		if zc, ok := zoneCond(x.X, x.Lo, ">=", resolver); ok {
			conds = append(conds, zc)
		}
		if zc, ok := zoneCond(x.X, x.Hi, "<=", resolver); ok {
			conds = append(conds, zc)
		}
		return conds
	case *exec.InListExpr:
		// NULL X makes both IN and NOT IN evaluate to NULL.
		return condsV(x.X, resolver)
	case *exec.LikeExpr:
		return append(condsV(x.X, resolver), condsV(x.Pattern, resolver)...)
	case *exec.AnyExpr:
		return append(condsV(x.X, resolver), condsV(x.Array, resolver)...)
	case *exec.IsNullExpr:
		if x.Not {
			// IS NOT NULL is FALSE when X is NULL.
			return condsV(x.X, resolver)
		}
		// IS NULL is TRUE when X is NULL — missing attributes SATISFY it.
		return nil
	case *exec.CallExpr, *exec.CastExpr, *exec.NegExpr:
		// A bare value expression in boolean position: NULL value → NULL
		// truth → not TRUE.
		return condsV(e, resolver)
	default:
		// NotExpr is a barrier: NOT(NULL AND FALSE) = NOT FALSE = TRUE even
		// though an atom was NULL. COALESCE masks NULLs by design.
		return nil
	}
}

// condsV derives conditions under property V: each returned condition,
// when proven, implies e's value is NULL on every row of the page.
func condsV(e exec.Expr, resolver exec.AttrResolver) []skipCond {
	switch x := e.(type) {
	case *exec.CallExpr:
		if col, key, ok := extractionAtom(x, resolver); ok {
			return []skipCond{{attr: true, col: col, key: key, slot: -1}}
		}
		// Non-extraction calls may map NULL args to non-NULL results.
		return nil
	case *exec.BinExpr:
		switch x.Op {
		case "+", "-", "*", "/", "%", "||":
			return append(condsV(x.L, resolver), condsV(x.R, resolver)...)
		}
		return nil
	case *exec.CastExpr:
		return condsV(x.X, resolver)
	case *exec.NegExpr:
		return condsV(x.X, resolver)
	default:
		return nil
	}
}

// extractionAtom matches f(col, 'key') where f is a registered extraction
// function (FuseFamily set — these return NULL for absent keys). The key
// itself is returned; ID resolution happens at execution time, once per
// iterator open (see skipCond and makeSkip). Without a resolver no
// condition is emitted.
func extractionAtom(x *exec.CallExpr, resolver exec.AttrResolver) (col int, key string, ok bool) {
	if resolver == nil || x.Def == nil || x.Def.FuseFamily == "" || len(x.Args) != 2 {
		return 0, "", false
	}
	ce, okc := x.Args[0].(*exec.ColExpr)
	ke, okk := x.Args[1].(*exec.ConstExpr)
	if !okc || !okk || ke.Val.IsNull() || ke.Val.Typ != types.Text {
		return 0, "", false
	}
	return ce.Idx, ke.Val.Text(), true
}

// zoneCond matches extraction-atom-vs-constant comparisons for segment
// zone-map pruning. Any-probe extractions are excluded: they return the
// textual form of whatever typed attribute matches, so the zone's
// numeric extrema do not bound the atom's comparison behaviour.
func zoneCond(l, r exec.Expr, op string, resolver exec.AttrResolver) (skipCond, bool) {
	call, okc := l.(*exec.CallExpr)
	val, slot, okk := skipConst(r)
	if !okc || !okk || call.Def == nil || call.Def.FuseAny {
		return skipCond{}, false
	}
	col, key, ok := extractionAtom(call, resolver)
	if !ok {
		return skipCond{}, false
	}
	return skipCond{zone: true, col: col, key: key, op: op, val: val, slot: slot}, true
}

// rangeCond matches col-vs-constant comparisons for min/max pruning.
func rangeCond(l, r exec.Expr, op string) (skipCond, bool) {
	ce, okc := l.(*exec.ColExpr)
	val, slot, okk := skipConst(r)
	if !okc || !okk {
		return skipCond{}, false
	}
	return skipCond{col: ce.Idx, op: op, val: val, slot: slot}, true
}

// skipConst matches the constant side of a skip condition: a non-NULL
// literal (slot -1), or a parameter whose value the test reads at open.
func skipConst(e exec.Expr) (val types.Datum, slot int, ok bool) {
	switch x := e.(type) {
	case *exec.ConstExpr:
		return x.Val, -1, !x.Val.IsNull()
	case *exec.ParamExpr:
		return types.Datum{}, x.Slot, true
	}
	return types.Datum{}, 0, false
}

// flipOp mirrors a comparison when its operands are swapped (5 < col ⇒
// col > 5).
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}
