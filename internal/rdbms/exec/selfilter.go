package exec

import (
	"sort"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements in-scan predicate evaluation over frozen pages: the
// pushed-down conjuncts are compiled once at plan time into a SelFilter,
// and the batch scan evaluates them page by page directly against the
// frozen page's column vectors, emitting a selection vector (RowBatch.Sel)
// instead of a compacted copy. Extraction atoms inside the conjuncts
// (json_int(data, 'key') and friends) are rewritten to read shared slot
// columns filled by one segment-kernel pass per page, so a predicate over
// a striped attribute never parses a serialized record.
//
// Conjuncts run in a statically ranked order (cheapest/most selective
// first) and each one sees only the rows surviving the previous ones, so
// later, more expensive conjuncts touch a shrinking selection; a conjunct
// only forces materialization of the columns it actually reads, and a
// page whose selection empties out is abandoned before the remaining
// columns are ever decoded.
//
// Error discipline: reordering and skipping rows changes which evaluation
// error (if any) a query surfaces. Whenever the selection path errors on
// a page, the page is replayed with the original conjunction over every
// row in row order — exactly what the hoisted-filter pipeline did — and
// that outcome (error or keep mask) is authoritative.

// SelConjunct is one compiled conjunct of a SelFilter.
type SelConjunct struct {
	// Pred is the conjunct with extraction atoms rewritten to slot
	// ColExprs (Idx >= Width); Orig is the conjunct as pushed down.
	Pred Expr
	Orig Expr
	// Cols lists the physical scan columns Pred reads. When AllCols is
	// set the reader set is unknown and every scan-materialized column is
	// filled before evaluation.
	Cols    []int
	AllCols bool
	// Slots marks conjuncts reading extraction slot columns.
	Slots bool
	// Kern is the direct evaluation kernel for recognized conjunct shapes
	// (see selkernel.go); nil conjuncts evaluate through EvalPredBatch.
	Kern selKernelFn

	rank float64
}

// SelFilter is the compiled in-scan filter of a batch scan's frozen pages. It is
// immutable after compilation and shared by every execution of a cached
// plan; each scan instantiates its own evaluation state.
type SelFilter struct {
	Conjuncts []SelConjunct
	// Filter is the full conjunction in pushed-down form — the row-form
	// page filter and the error-replay predicate.
	Filter Expr
	// Width is the physical scan width; slot ColExprs index Width+k.
	Width int
	// DataIdx is the scan column holding serialized records for slot
	// extraction (-1 when no conjunct uses slots).
	DataIdx int
	// Reqs are the deduplicated extraction requests behind the slots.
	Reqs []MultiExtractReq
	// SegFactory (optional) builds the segment-kernel fast path;
	// RowFactory builds the record-decoding fallback kernel.
	SegFactory SegExtractFactory
	RowFactory MultiExtractFactory
}

// selSlotKey identifies one distinct extraction request within the
// filter's conjuncts (the data column is fixed per SelFilter).
type selSlotKey struct {
	key string
	typ uint8
	any bool
}

type selCompiler struct {
	width     int
	segLookup func(string) (SegExtractFactory, bool)
	rowLookup func(string) (MultiExtractFactory, bool)

	family  string
	dataIdx int
	segF    SegExtractFactory
	rowF    MultiExtractFactory
	reqs    []MultiExtractReq
	slots   map[selSlotKey]int
}

// CompileSelFilter compiles pushed-down conjuncts into a SelFilter for a
// scan of the given physical width. The lookups resolve an
// extraction family to its kernel factories (nil-able; without a row
// factory the family's atoms are left un-rewritten and evaluate as plain
// calls). Returns nil when preds is empty.
func CompileSelFilter(preds []Expr, width int,
	segLookup func(string) (SegExtractFactory, bool),
	rowLookup func(string) (MultiExtractFactory, bool)) *SelFilter {
	if len(preds) == 0 {
		return nil
	}
	if segLookup == nil {
		segLookup = func(string) (SegExtractFactory, bool) { return nil, false }
	}
	if rowLookup == nil {
		rowLookup = func(string) (MultiExtractFactory, bool) { return nil, false }
	}
	c := &selCompiler{
		width:     width,
		segLookup: segLookup,
		rowLookup: rowLookup,
		dataIdx:   -1,
		slots:     map[selSlotKey]int{},
	}
	sf := &SelFilter{Width: width}
	var filter Expr
	for _, p := range preds {
		if filter == nil {
			filter = p
		} else {
			filter = &BinExpr{Op: "AND", L: filter, R: p}
		}
		pred, usesSlots := c.rewrite(p)
		cj := SelConjunct{Pred: pred, Orig: p, Slots: usesSlots,
			Kern: compileSelKernel(pred), rank: conjunctRank(p)}
		seen := map[int]bool{}
		known := ColumnsUsed(pred, func(idx int) {
			if idx >= 0 && idx < width && !seen[idx] {
				seen[idx] = true
				cj.Cols = append(cj.Cols, idx)
			}
		})
		if !known {
			cj.Cols, cj.AllCols = nil, true
		} else {
			sort.Ints(cj.Cols)
		}
		sf.Conjuncts = append(sf.Conjuncts, cj)
	}
	sort.SliceStable(sf.Conjuncts, func(i, j int) bool {
		return sf.Conjuncts[i].rank < sf.Conjuncts[j].rank
	})
	sf.Filter = filter
	sf.DataIdx = c.dataIdx
	sf.Reqs = c.reqs
	sf.SegFactory = c.segF
	sf.RowFactory = c.rowF
	return sf
}

// atomSlot resolves a call to its slot index when it is a rewritable
// extraction atom: a registered fuse family applied to (data column,
// constant key), with the whole filter sharing one (family, column) pair.
func (c *selCompiler) atomSlot(x *CallExpr) (int, bool) {
	d := x.Def
	if d == nil || d.FuseFamily == "" || len(x.Args) != 2 {
		return 0, false
	}
	ce, okc := x.Args[0].(*ColExpr)
	ke, okk := x.Args[1].(*ConstExpr)
	if !okc || !okk || ce.Idx < 0 || ce.Idx >= c.width ||
		ke.Val.IsNull() || ke.Val.Typ != types.Text {
		return 0, false
	}
	if c.rowF == nil {
		rf, ok := c.rowLookup(d.FuseFamily)
		if !ok {
			return 0, false
		}
		c.family, c.dataIdx, c.rowF = d.FuseFamily, ce.Idx, rf
		c.segF, _ = c.segLookup(d.FuseFamily)
	} else if d.FuseFamily != c.family || ce.Idx != c.dataIdx {
		return 0, false
	}
	sk := selSlotKey{key: ke.Val.Text(), typ: d.FuseType, any: d.FuseAny}
	if i, ok := c.slots[sk]; ok {
		return i, true
	}
	ret := types.Unknown
	if d.RetType != nil {
		ret = d.RetType(nil)
	}
	i := len(c.reqs)
	c.reqs = append(c.reqs, MultiExtractReq{Key: sk.key, Type: sk.typ, Any: sk.any, Ret: ret})
	c.slots[sk] = i
	return i, true
}

// rewrite returns e with extraction atoms replaced by slot ColExprs,
// copying nodes along rewritten paths (the original tree is shared with
// the row-form page filter and EXPLAIN and must not be mutated). Lazy
// contexts (AND/OR, COALESCE, IN-list, ANY) are left untouched: their
// operands evaluate over the rows the earlier operands left undecided,
// where an unrewritten atom still works through the scan's materialized
// data column.
func (c *selCompiler) rewrite(e Expr) (Expr, bool) {
	switch x := e.(type) {
	case *CallExpr:
		if slot, ok := c.atomSlot(x); ok {
			return &ColExpr{Idx: c.width + slot, Typ: c.reqs[slot].Ret, Name: x.String()}, true
		}
		var args []Expr
		used := false
		for i, a := range x.Args {
			na, u := c.rewrite(a)
			if u && args == nil {
				args = make([]Expr, len(x.Args))
				copy(args, x.Args[:i])
			}
			if args != nil {
				args[i] = na
			}
			used = used || u
		}
		if used {
			return &CallExpr{Def: x.Def, Args: args}, true
		}
		return x, false
	case *BinExpr:
		if x.Op == "AND" || x.Op == "OR" {
			return x, false
		}
		l, ul := c.rewrite(x.L)
		r, ur := c.rewrite(x.R)
		if ul || ur {
			return &BinExpr{Op: x.Op, L: l, R: r}, true
		}
		return x, false
	case *NotExpr:
		if nx, u := c.rewrite(x.X); u {
			return &NotExpr{X: nx}, true
		}
		return x, false
	case *NegExpr:
		if nx, u := c.rewrite(x.X); u {
			return &NegExpr{X: nx}, true
		}
		return x, false
	case *IsNullExpr:
		if nx, u := c.rewrite(x.X); u {
			return &IsNullExpr{X: nx, Not: x.Not}, true
		}
		return x, false
	case *BetweenExpr:
		nx, ux := c.rewrite(x.X)
		lo, ul := c.rewrite(x.Lo)
		hi, uh := c.rewrite(x.Hi)
		if ux || ul || uh {
			return &BetweenExpr{X: nx, Lo: lo, Hi: hi, Not: x.Not}, true
		}
		return x, false
	case *LikeExpr:
		nx, ux := c.rewrite(x.X)
		np, up := c.rewrite(x.Pattern)
		if ux || up {
			// Fresh node (never a struct copy: LikeExpr embeds the
			// compiled-pattern cache and its mutex).
			return &LikeExpr{X: nx, Pattern: np, Not: x.Not}, true
		}
		return x, false
	case *CastExpr:
		if nx, u := c.rewrite(x.X); u {
			return &CastExpr{X: nx, To: x.To}, true
		}
		return x, false
	default:
		return e, false
	}
}

// conjunctRank orders conjuncts for evaluation: an estimated selectivity
// by predicate shape (mirroring the optimizer's default selectivities —
// equality and IS NULL prune hardest, range comparisons least) plus a
// small per-row cost term so cheap conjuncts break ties. Ranked on the
// original conjunct so extraction expense is counted even after atoms are
// rewritten to slot reads.
func conjunctRank(e Expr) float64 {
	sel := 0.5
	switch x := e.(type) {
	case *IsNullExpr:
		if x.Not {
			sel = 0.9
		} else {
			sel = 0.1
		}
	case *BetweenExpr:
		sel = 0.25
	case *LikeExpr:
		sel = 0.45
	case *InListExpr:
		sel = 0.3
	case *BinExpr:
		switch x.Op {
		case "=":
			sel = 0.15
		case "<", "<=", ">", ">=":
			sel = 0.35
		case "<>":
			sel = 0.85
		}
	}
	cost := e.Cost()
	if cost > 1 {
		cost = 1
	}
	return sel + 0.1*cost
}

// selScanState is the per-scan evaluation state of a SelFilter: the eval
// facade batch (physical columns plus slot columns), lazily instantiated
// kernels, and reusable selection/keep buffers. One state belongs to one
// scan.
type selScanState struct {
	sf   *SelFilter
	segK SegExtractKernel
	rowK MultiExtractKernel
	// kernelsBroken disables slot evaluation after a factory error; pages
	// then take the replay path, which needs no kernels.
	kernelsBroken bool
	built         bool

	// view is the predicate-evaluation facade: Cols[0:Width] alias the
	// page shell's columns as they are filled, Cols[Width+k] the slot
	// columns. Never pooled, never returned downstream.
	view        *RowBatch
	slotCols    [][]types.Datum
	slotsFilled bool
	selBuf      []int32
	keep        []bool
}

func newSelScanState(sf *SelFilter) *selScanState {
	k := len(sf.Reqs)
	return &selScanState{
		sf: sf,
		view: &RowBatch{
			Cols:  make([][]types.Datum, sf.Width+k),
			Nulls: make([]NullBitmap, sf.Width+k),
		},
		slotCols: make([][]types.Datum, k),
	}
}

// buildKernels instantiates the slot kernels on first use, so every scan
// has kernel state of its own. A factory failure is not fatal: the filter
// is still fully evaluable through replay, it just loses the vectorized
// slot path.
func (st *selScanState) buildKernels() {
	if st.built {
		return
	}
	st.built = true
	sf := st.sf
	if len(sf.Reqs) == 0 {
		return
	}
	if sf.RowFactory == nil {
		st.kernelsBroken = true
		return
	}
	rowK, err := sf.RowFactory(sf.Reqs)
	if err != nil || rowK == nil {
		st.kernelsBroken = true
		return
	}
	st.rowK = rowK
	if sf.SegFactory != nil {
		if segK, err := sf.SegFactory(sf.Reqs); err == nil {
			st.segK = segK
		}
	}
}

// beginPage resets the per-page slot tracking.
func (st *selScanState) beginPage() {
	st.slotsFilled = false
	st.view.Sel = nil
}

// frozenSelBatch evaluates the scan's SelFilter against one frozen page
// and returns the page as a selection-carrying alias batch. A fully
// filtered page returns (nil, nil): the caller reads the next page.
// Segment columns are decoded at the rows the selection keeps when they
// are filled: a conjunct's at the rows the earlier ones left, the
// operators' above at the rows the filter passes.
func (s *BatchScanIter) frozenSelBatch(fp *storage.FrozenPage) (*RowBatch, error) {
	if s.selState == nil {
		if s.sf == nil {
			s.sf = CompileSelFilter([]Expr{s.Filter}, s.width, nil, nil)
		}
		s.selState = newSelScanState(s.sf)
	}
	st := s.selState
	st.buildKernels()
	sf := s.sf
	phys := fp.NumRows()
	b := s.beginFrozen(fp)
	st.beginPage()

	st.view.n = phys
	sel, replay, err := s.evalConjuncts(fp, phys)
	if err != nil {
		return nil, err
	}
	if replay {
		// The selection path failed somewhere: re-run the original
		// conjunction over the whole page. Its outcome — error or keep
		// mask — is what the non-selective pipeline produces.
		if err := s.fillNeeded(nil, true); err != nil {
			return nil, err
		}
		b.n = phys
		keep, err := EvalPredBatch(sf.Filter, b, s.ctx, st.keep)
		if err != nil {
			return nil, err
		}
		st.keep = keep
		sel = s.selSlice(phys)
		for i := 0; i < phys; i++ {
			if keep[i] {
				sel = append(sel, int32(i))
			}
		}
		if len(sel) == phys {
			sel = nil
		}
	}
	if sel != nil && len(sel) == 0 {
		return nil, nil
	}
	if err := s.fillNeeded(sel, false); err != nil {
		return nil, err
	}
	s.attachSegs(b, fp)
	b.n = phys
	b.Sel = sel
	if sel != nil {
		s.selBatches++
	}
	return b, nil
}

// evalConjuncts runs the ranked conjuncts over the page, intersecting
// selections. It reports replay=true when any evaluation step errors —
// the caller then re-evaluates the page through the original filter.
func (s *BatchScanIter) evalConjuncts(fp *storage.FrozenPage, phys int) (sel []int32, replay bool, err error) {
	st := s.selState
	for ci := range s.sf.Conjuncts {
		c := &s.sf.Conjuncts[ci]
		if sel != nil && len(sel) == 0 {
			return sel, false, nil
		}
		var ferr error
		if c.AllCols {
			ferr = s.fillNeeded(sel, true)
		} else {
			for _, j := range c.Cols {
				if ferr = s.fill(j, sel); ferr != nil {
					break
				}
			}
		}
		if ferr == nil && c.Slots {
			ferr = s.fillSlots(fp, sel, phys)
		}
		if ferr != nil {
			return nil, true, nil
		}
		st.view.Sel = sel
		var keep []bool
		var kerr error
		if c.Kern != nil {
			n := st.view.Len()
			if cap(st.keep) < n {
				st.keep = make([]bool, n)
			}
			keep = st.keep[:n]
			kerr = c.Kern(st.view, keep, s.ctx.params)
		} else {
			keep, kerr = EvalPredBatch(c.Pred, st.view, s.ctx, st.keep)
		}
		if kerr != nil {
			return nil, true, nil
		}
		st.keep = keep
		if sel == nil {
			kept := 0
			for i := 0; i < phys; i++ {
				if keep[i] {
					kept++
				}
			}
			if kept == phys {
				continue
			}
			sel = s.selSlice(phys)
			for i := 0; i < phys; i++ {
				if keep[i] {
					sel = append(sel, int32(i))
				}
			}
		} else {
			w := 0
			for si := range keep {
				if keep[si] {
					sel[w] = sel[si]
					w++
				}
			}
			sel = sel[:w]
		}
	}
	return sel, false, nil
}

// fillSlots runs the extraction kernels once for the page, preferring the
// segment kernel when the data column is striped and recognized, falling
// back to record decoding over the data column decoded at the rows of sel.
// Kernels fill every physical row — rows a previous conjunct dropped read
// as whatever the kernel makes of them, matching BatchMultiExtractIter;
// later conjuncts only look at rows of narrower selections.
func (s *BatchScanIter) fillSlots(fp *storage.FrozenPage, sel []int32, phys int) error {
	st := s.selState
	if st.slotsFilled {
		return nil
	}
	if st.kernelsBroken {
		return errSelKernels
	}
	sf := st.sf
	for k := range sf.Reqs {
		if cap(st.slotCols[k]) < phys {
			st.slotCols[k] = make([]types.Datum, phys)
		}
		st.slotCols[k] = st.slotCols[k][:phys]
	}
	handled := false
	if st.segK != nil {
		if _, _, seg := fp.Col(sf.DataIdx); seg != nil && seg.NumRows() == phys {
			var err error
			if handled, err = st.segK(seg, st.slotCols); err != nil {
				return err
			}
		}
	}
	if !handled {
		if err := s.fill(sf.DataIdx, sel); err != nil {
			return err
		}
		if err := st.rowK(st.view.Cols[sf.DataIdx], st.slotCols); err != nil {
			return err
		}
	}
	for k := range sf.Reqs {
		st.view.Cols[sf.Width+k] = st.slotCols[k]
	}
	st.slotsFilled = true
	return nil
}

// errSelKernels is the internal "no kernels" sentinel; it only ever
// triggers replay and is never surfaced.
var errSelKernels = &selKernelErr{}

type selKernelErr struct{}

func (*selKernelErr) Error() string { return "exec: selection-filter kernels unavailable" }

// selSlice returns the scan-owned selection buffer, emptied, with capacity
// for the page.
func (s *BatchScanIter) selSlice(phys int) []int32 {
	st := s.selState
	if cap(st.selBuf) < phys {
		st.selBuf = make([]int32, 0, phys)
	}
	return st.selBuf[:0]
}

// frozenShell returns the cleared frozen-page shell batch. It is never
// pooled and never Reset — both would corrupt the aliased page storage.
func (s *BatchScanIter) frozenShell() *RowBatch {
	b := s.shell
	if b == nil {
		b = &RowBatch{
			Cols:  make([][]types.Datum, s.width),
			Nulls: make([]NullBitmap, s.width),
			Segs:  make([]storage.ColumnSegment, s.width),
		}
		s.shell = b
	}
	for j := 0; j < s.width; j++ {
		b.Cols[j] = nil
		b.Nulls[j] = nil
		b.Segs[j] = nil
	}
	b.n = 0
	b.Sel = nil
	return b
}
