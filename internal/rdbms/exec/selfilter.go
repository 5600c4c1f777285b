package exec

import (
	"slices"
	"sort"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements predicate evaluation as narrowing a selection
// vector, the one way the executor drops rows: the conjuncts are compiled
// once at plan time into a SelFilter, and the batch scan runs it over every
// batch it reads — a frozen page's column vectors or a transposed run of
// row-form rows — as a filter above a join or an aggregate runs it over its
// input, publishing the rows that pass through RowBatch.Sel instead of
// compacting or copying them. Extraction atoms inside a scan's conjuncts
// (json_int(data, 'key') and friends) are rewritten to read shared slot
// columns filled by one kernel pass per batch, so a predicate over a
// striped attribute never parses a serialized record.
//
// Conjuncts run in a statically ranked order (cheapest/most selective
// first) and each one sees only the rows surviving the previous ones, so
// later, more expensive conjuncts touch a shrinking selection; a conjunct
// only forces decoding of the segment columns it actually reads, and a
// page whose selection empties out is abandoned before the remaining
// columns are ever decoded.
//
// Error discipline: reordering and skipping rows changes which evaluation
// error (if any) a query surfaces. Whenever a conjunct errors on a batch,
// the batch is replayed with the original conjunction over every row in
// row order, and that outcome (error or kept rows) is authoritative.

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

// SelFilter is the compiled filter of a batch scan or a BatchFilterIter. It
// is immutable after compilation and shared by every execution of a cached
// plan; each operator instantiates its own evaluation state.
type SelFilter struct {
	Conjuncts []SelConjunct
	// Filter is the full conjunction as written — the error-replay
	// predicate.
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
// the replay predicate and EXPLAIN and must not be mutated). Lazy
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

// selEval is one operator's evaluation state of a SelFilter: the view the
// conjuncts read (the batch's columns, then the slot columns), the slot
// kernels, built on first use so every operator has kernel state of its
// own, and reusable keep and selection buffers.
type selEval struct {
	sf   *SelFilter
	segK SegExtractKernel
	rowK MultiExtractKernel
	// kernelsBroken disables slot evaluation after a factory error;
	// batches then take the replay path, which needs no kernels.
	kernelsBroken bool

	// view is what the conjuncts read: Cols[0:Width] alias the batch's
	// columns (a scan fills a frozen page's segment columns in as
	// conjuncts ask for them), Cols[Width+k] the slot columns, and Sel the
	// rows still in play.
	view        *RowBatch
	slotCols    [][]types.Datum
	slotsFilled bool
	sel         []int32
	keep        []bool
}

// newSelEval returns the evaluation state of sf over batches of width
// columns.
func newSelEval(sf *SelFilter, width int) *selEval {
	k := len(sf.Reqs)
	e := &selEval{
		sf: sf,
		view: &RowBatch{
			Cols:  make([][]types.Datum, width+k),
			Nulls: make([]NullBitmap, width+k),
		},
		slotCols: make([][]types.Datum, k),
	}
	if k == 0 {
		return e
	}
	// A factory failure is not fatal: the filter is still fully evaluable
	// through replay, it just loses the vectorized slot path.
	if sf.RowFactory == nil {
		e.kernelsBroken = true
		return e
	}
	rowK, err := sf.RowFactory(sf.Reqs)
	if err != nil || rowK == nil {
		e.kernelsBroken = true
		return e
	}
	e.rowK = rowK
	if sf.SegFactory != nil {
		if segK, err := sf.SegFactory(sf.Reqs); err == nil {
			e.segK = segK
		}
	}
	return e
}

// begin points the view at b, every row of b's selection in play and no
// slot filled.
func (e *selEval) begin(b *RowBatch) {
	v := e.view
	copy(v.Cols, b.Cols)
	copy(v.Nulls, b.Nulls)
	v.Segs, v.Sel, v.n = b.Segs, b.Sel, b.PhysLen()
	e.slotsFilled = false
}

// narrow runs the ranked conjuncts over the view, each over the rows the
// earlier ones kept, and returns the rows that pass them all: nil when the
// view had no selection and every row passes. A scan, when given, fills
// in what each conjunct reads first. The first error, a fill's or a
// conjunct's, is returned as is; the caller replays the batch.
func (e *selEval) narrow(ctx *EvalCtx, scan *BatchScanIter) ([]int32, error) {
	v := e.view
	for ci := range e.sf.Conjuncts {
		if v.Sel != nil && len(v.Sel) == 0 {
			break
		}
		c := &e.sf.Conjuncts[ci]
		if scan != nil {
			if err := scan.fillConjunct(c, v.Sel); err != nil {
				return nil, err
			}
		}
		var err error
		if c.Kern != nil {
			n := v.Len()
			if cap(e.keep) < n {
				e.keep = make([]bool, n)
			}
			e.keep = e.keep[:n]
			err = c.Kern(v, e.keep, ctx.params)
		} else {
			var keep []bool
			if keep, err = EvalPredBatch(c.Pred, v, ctx, e.keep); err == nil {
				e.keep = keep
			}
		}
		if err != nil {
			return nil, err
		}
		v.Sel = narrowSel(&e.sel, v.Sel, e.keep)
	}
	return v.Sel, nil
}

// replay evaluates the whole conjunction, as written, over b's rows in row
// order — what a row-at-a-time filter does — and returns the rows that
// pass. Its outcome, error or rows, is the batch's: reordering conjuncts
// and skipping rows must not change which error a statement surfaces.
func (e *selEval) replay(b *RowBatch, ctx *EvalCtx) ([]int32, error) {
	keep, err := EvalPredBatch(e.sf.Filter, b, ctx, e.keep)
	if err != nil {
		return nil, err
	}
	e.keep = keep
	return narrowSel(&e.sel, b.Sel, keep), nil
}

// narrowSel returns the rows of a batch that keep marks (keep[si] for its
// si-th logical row: sel[si], or row si when sel is nil), written into
// *buf, which sel may share since rows only move down. A nil sel stays nil
// when every row is kept; when none is, the result is empty, not nil.
func narrowSel(buf *[]int32, sel []int32, keep []bool) []int32 {
	if sel == nil && !slices.Contains(keep, false) {
		return nil
	}
	if cap(*buf) < len(keep) {
		*buf = make([]int32, 0, len(keep))
	}
	out := (*buf)[:0]
	for si, k := range keep {
		if k {
			out = append(out, int32(selIdx(sel, si)))
		}
	}
	return out
}

// fillConjunct puts in place what c reads, at the rows of sel: the
// segment columns it reads (every needed one when they are unknown) and
// the slot columns.
func (s *BatchScanIter) fillConjunct(c *SelConjunct, sel []int32) error {
	if c.AllCols {
		if err := s.fillNeeded(sel, true); err != nil {
			return err
		}
	}
	for _, j := range c.Cols {
		if err := s.fill(j, sel); err != nil {
			return err
		}
	}
	if c.Slots {
		return s.fillSlots()
	}
	return nil
}

// fillSlots runs the extraction kernels once per batch, over every
// physical row: rows an earlier conjunct dropped read as whatever the
// kernel makes of them, as in BatchMultiExtractIter, and later conjuncts
// only look at rows of narrower selections.
func (s *BatchScanIter) fillSlots() error {
	e := s.eval
	if e.slotsFilled {
		return nil
	}
	if e.kernelsBroken {
		return errSelKernels
	}
	sf, phys := e.sf, e.view.PhysLen()
	for k := range sf.Reqs {
		if cap(e.slotCols[k]) < phys {
			e.slotCols[k] = make([]types.Datum, phys)
		}
		e.slotCols[k] = e.slotCols[k][:phys]
	}
	if err := extract(e.view, sf.DataIdx, e.segK, e.rowK, &s.dec, e.slotCols); err != nil {
		return err
	}
	for k := range sf.Reqs {
		e.view.Cols[sf.Width+k] = e.slotCols[k]
	}
	e.slotsFilled = true
	return nil
}

// errSelKernels is the internal "no kernels" sentinel; it only ever
// triggers replay and is never surfaced.
var errSelKernels = &selKernelErr{}

type selKernelErr struct{}

func (*selKernelErr) Error() string { return "exec: selection-filter kernels unavailable" }
