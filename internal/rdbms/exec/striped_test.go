package exec

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// heapOf builds a pager-backed heap holding rows over colTypes.
func heapOf(t *testing.T, colTypes []types.Type, rows []storage.Row) (*storage.Heap, *storage.Pager) {
	t.Helper()
	cols := make([]storage.Column, len(colTypes))
	for i, tp := range colTypes {
		cols[i] = storage.Column{Name: string(rune('a' + i)), Typ: tp}
	}
	schema, err := storage.NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	p := storage.NewPager()
	h := storage.NewHeap(schema, p)
	for _, r := range rows {
		if err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	p.Reset()
	return h, p
}

// edgeRows draws a row count above two full batches, so every operator
// over a scan of them meets batch boundaries mid-stream.
func edgeRows(r *rand.Rand) int { return 2*DefaultBatchSize + 1 + r.Intn(DefaultBatchSize) }

// drawRows keeps small, a property test's usual row count — which can be
// empty, less than one batch or one page — for two inputs in three, and
// draws edgeRows for the third.
func drawRows(r *rand.Rand, small int) int {
	if r.Intn(3) == 0 {
		return edgeRows(r)
	}
	return small
}

// vecSegment is a test ColumnSegment: a copied datum vector standing in
// for the upper layer's striped record segments. When decoded is set it
// counts the values read out.
type vecSegment struct {
	vals    []types.Datum
	ids     []uint32
	decoded *int
}

func (s *vecSegment) NumRows() int      { return len(s.vals) }
func (s *vecSegment) AttrIDs() []uint32 { return s.ids }
func (s *vecSegment) SizeBytes() int64  { return int64(len(s.vals)) * 24 }
func (s *vecSegment) Values(dst []types.Datum, lo int, _ *storage.ValueArena) error {
	if s.decoded != nil {
		*s.decoded += len(dst)
	}
	copy(dst, s.vals[lo:])
	return nil
}

// freezeCols installs a segmenter striping the listed columns and runs
// ANALYZE, which freezes every full page, returning how many froze.
func freezeCols(h *storage.Heap, stripe map[int]bool) int {
	h.SetColumnSegmenter(func(col int, vals []types.Datum) (storage.ColumnSegment, error) {
		if !stripe[col] {
			return nil, nil
		}
		cp := make([]types.Datum, len(vals))
		copy(cp, vals)
		return &vecSegment{vals: cp, ids: []uint32{uint32(col)}}, nil
	})
	before := h.NumFrozenPages()
	storage.Analyze(h)
	return h.NumFrozenPages() - before
}

// TestPropertyStripedMatchesRow extends the differential test with the
// frozen-segment leg: over heaps whose full pages are frozen into column
// segments, the pipeline must agree with the reference — before and after
// an Update un-freezes a page mid-table, leaving a frozen/row mix.
func TestPropertyStripedMatchesRow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text}
		for n := r.Intn(3); n > 0; n-- {
			colTypes = append(colTypes,
				[]types.Type{types.Int, types.Float, types.Text, types.Bool}[r.Intn(4)])
		}
		rows := randBatchRows(r, colTypes, drawRows(r, 128+r.Intn(400)))
		h, _ := heapOf(t, colTypes, rows)
		stripe := map[int]bool{r.Intn(len(colTypes)): true}
		if r.Intn(2) == 0 {
			stripe[0] = true
		}
		frozen := freezeCols(h, stripe)
		if frozen == 0 {
			t.Fatalf("seed %d: no pages froze", seed)
		}

		pred := randPred(r, colTypes, 3, true)
		projs := make([]Expr, 1+r.Intn(3))
		for i := range projs {
			if r.Intn(3) == 0 {
				projs[i] = randTextExpr(r, colTypes, 2)
			} else {
				projs[i] = randNumExpr(r, colTypes, 2, true)
			}
		}
		check := func(phase string) {
			ref := mustRef(t)
			want := ref(refProject(ref(refFilter(refScan(h), pred)), projs))
			// A filter above the scan remains a supported operator shape
			// (residual predicates land there).
			hoisted := collectBatches(t, &BatchProjectIter{Exprs: projs,
				In: &BatchFilterIter{Pred: pred, In: NewBatchScan(h, nil)}})
			rowsEqual(t, hoisted, want)
			// The planner path proper: predicates compiled into the in-scan
			// selection filter, survivors carried by a selection vector.
			sf := CompileSelFilter([]Expr{pred}, len(colTypes), nil, nil)
			selScan := NewBatchScan(h, pred)
			selScan.SetSelFilter(sf)
			selLeg := collectBatches(t, &BatchProjectIter{Exprs: projs, In: selScan})
			rowsEqual(t, selLeg, want)
		}
		check("frozen")

		// Update a row on a mid-table frozen page: it un-freezes back to
		// row form and the scan now crosses a frozen/row mix.
		id := storage.RowID{Page: frozen / 2, Slot: 3}
		if _, err := h.Update(id, rows[len(rows)-1]); err != nil {
			t.Fatalf("seed %d: un-freezing update: %v", seed, err)
		}
		if h.NumFrozenPages() != frozen-1 {
			t.Fatalf("seed %d: update left %d frozen pages, want %d",
				seed, h.NumFrozenPages(), frozen-1)
		}
		check("mixed")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStripedMixedHeap holds the scan's one loop to the reference
// on a heap that has every kind of stretch at once: frozen pages, one page
// un-frozen by an UPDATE between them and holed by DELETEs, a row-form run
// of more than two batches with deleted slots in it, and a short tail —
// scanned with and without predicates, with NeedCols and with a page-skip
// test, and collected under projections and LIMITs.
func TestPropertyStripedMixedHeap(t *testing.T) {
	const frozenPages, runPages = 5, 17
	per := storage.PageCapacity
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text, types.Float}
		rows := randBatchRows(r, colTypes, (frozenPages+runPages)*per+1+r.Intn(per-1))
		for i := range rows {
			rows[i][0] = types.NewInt(int64(i)) // monotone: page ranges are disjoint
		}
		h, pager := heapOf(t, colTypes, rows[:frozenPages*per])
		if n := freezeCols(h, map[int]bool{1: true}); n != frozenPages {
			t.Fatalf("seed %d: froze %d pages, want %d", seed, n, frozenPages)
		}
		for _, row := range rows[frozenPages*per:] {
			if err := h.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		thawed := storage.RowID{Page: 2, Slot: r.Intn(per)}
		upd := rows[thawed.Page*per+thawed.Slot].Clone()
		upd[1] = types.NewText("thawed")
		if _, err := h.Update(thawed, upd); err != nil {
			t.Fatalf("seed %d: un-freezing update: %v", seed, err)
		}
		for _, slot := range []int{0, 17, 90} {
			if _, err := h.Delete(storage.RowID{Page: thawed.Page, Slot: slot}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1+r.Intn(per/2); i++ {
			// Deleting a deleted slot again fails; that is fine here.
			_, _ = h.Delete(storage.RowID{Page: frozenPages + 2, Slot: r.Intn(per)})
		}
		if h.NumFrozenPages() != frozenPages-1 || h.NumPages() != frozenPages+runPages+1 {
			t.Fatalf("seed %d: %d frozen of %d pages", seed, h.NumFrozenPages(), h.NumPages())
		}
		// check runs one scan set-up and compares it with the reference's
		// answer over the needed columns.
		check := func(leg string, pred Expr, need []int, skip func(*storage.PageSummary) bool) {
			out := need
			if out == nil {
				out = []int{0, 1, 2}
			}
			projs := make([]Expr, len(out))
			for i, j := range out {
				projs[i] = col(j, colTypes[j])
			}
			ref := mustRef(t)
			want := ref(refProject(ref(refFilter(refScan(h), pred)), projs))
			var sf *SelFilter // nil on odd seeds: the scan compiles its own
			if pred != nil && seed%2 == 0 {
				sf = CompileSelFilter([]Expr{pred}, len(colTypes), nil, nil)
			}
			scan := NewBatchScan(h, pred)
			scan.NeedCols = need
			if skip != nil {
				scan.SetPageSkip(func(*storage.HeapChunkIter, []types.Datum) func(*storage.PageSummary) bool { return skip })
			}
			scan.SetSelFilter(sf)
			pager.Reset()
			rowsEqual(t, collectBatches(t, &BatchProjectIter{Exprs: projs, In: scan}), want)
			if skipped, _ := pager.ExecStats(); skip != nil && skipped == 0 {
				t.Fatalf("seed %d %s: the skip test skipped no page", seed, leg)
			}
		}

		pred := randPred(r, colTypes, 3, true)
		check("bare", nil, nil, nil)
		check("filtered", pred, nil, nil)

		used := map[int]bool{0: true}
		ColumnsUsed(pred, func(j int) { used[j] = true })
		var need []int
		for j := range colTypes {
			if used[j] {
				need = append(need, j)
			}
		}
		check("needcols", pred, need, nil)
		check("needcols bare", nil, []int{2}, nil)

		// c0 >= k excludes every page whose summary tops out below k: the
		// frozen pages before it and the row-form ones alike (the thawed
		// page lost its summary and is read).
		k := int64((frozenPages+1)*per + r.Intn(2*per))
		ranged := &BinExpr{Op: "AND", R: pred,
			L: &BinExpr{Op: ">=", L: col(0, types.Int), R: lit(types.NewInt(k))}}
		check("skip", ranged, nil, func(s *storage.PageSummary) bool {
			_, max, ok := s.ColRange(0)
			return ok && max.I < k
		})

		// Collected projections — contiguous, reordered, duplicated and
		// single-column, over the striped column 1 and the plain column 2 —
		// under LIMITs that end inside a frozen page, inside the thawed
		// page, inside the holed run and past the end. Every result row is
		// capped at its own width, and a LIMIT inside the first page reads
		// one segment.
		live := h.NumRows()
		limits := []int64{-1, 0, 50, int64(2*per) + 30, int64((frozenPages+2)*per) + 30, live, live + 9}
		for _, out := range [][]int{{0, 1, 2}, {1, 2}, {2, 0}, {1, 0, 1}, {1}, {2}} {
			projs := make([]Expr, len(out))
			for i, j := range out {
				projs[i] = col(j, colTypes[j])
			}
			ref := mustRef(t)
			all := ref(refProject(refScan(h), projs))
			for _, limit := range limits {
				want := all
				var it BatchIterator = &BatchProjectIter{Exprs: projs, In: NewBatchScan(h, nil)}
				if limit >= 0 {
					want = refLimit(all, limit)
					it = &BatchLimitIter{N: limit, In: it}
				}
				pager.Reset()
				got, err := CollectBatches(it)
				if err != nil {
					t.Fatalf("seed %d cols %v limit %d: %v", seed, out, limit, err)
				}
				rowsEqual(t, got, want)
				for i, row := range got {
					if cap(row) != len(out) {
						t.Fatalf("seed %d cols %v limit %d: row %d has cap %d", seed, out, limit, i, cap(row))
					}
				}
				scanned, _ := pager.SegStats()
				if limit < 0 && scanned != frozenPages-1 || limit == 50 && scanned != 1 {
					t.Fatalf("seed %d cols %v limit %d: %d segments scanned", seed, out, limit, scanned)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBatchScanShapes pins the batches the scan emits on the two extremes
// of a heap's life, as captured on the commit that still had a striped and
// a non-striped mode: DefaultBatchSize-row batches from a heap that was
// never frozen, one batch per page from a fully frozen one.
func TestBatchScanShapes(t *testing.T) {
	lens := func(it BatchIterator) (out []int) {
		defer it.Close()
		for {
			b, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				return out
			}
			out = append(out, b.Len())
		}
	}
	pages := func(n ...int) (out []int) {
		for i := 0; i < n[0]; i++ {
			out = append(out, storage.PageCapacity)
		}
		return append(out, n[1:]...)
	}
	pred := &BinExpr{Op: "<", L: col(0, types.Int), R: lit(types.NewInt(1500))}
	never := intHeap(t, 3000)
	frozen := intHeap(t, 24*storage.PageCapacity)
	if n := freezeCols(frozen, map[int]bool{1: true}); n != 24 {
		t.Fatalf("froze %d pages, want 24", n)
	}
	for _, tc := range []struct {
		name string
		h    *storage.Heap
		pred Expr
		want []int
	}{
		{"never frozen", never, nil, []int{1024, 1024, 952}},
		{"never frozen, filtered", never, pred, []int{1024, 476}},
		{"fully frozen", frozen, nil, pages(24)},
		{"fully frozen, filtered", frozen, pred, pages(11, 92)},
	} {
		if got := lens(NewBatchScan(tc.h, tc.pred)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: batch lengths %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPropertyStripedSelConsumers drives selection-carrying batches from
// in-scan sel filters through the operators that change or consume
// cardinality — LIMIT, GROUP BY aggregation, and hash joins — against the
// reference, on all-frozen and mixed frozen/row-form heaps.
func TestPropertyStripedSelConsumers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text, types.Float}
		rows := randBatchRows(r, colTypes, drawRows(r, 200+r.Intn(300)))
		h, _ := heapOf(t, colTypes, rows)
		stripe := map[int]bool{0: true}
		if r.Intn(2) == 0 {
			stripe[2] = true
		}
		frozen := freezeCols(h, stripe)
		if frozen == 0 {
			t.Fatalf("seed %d: no pages froze", seed)
		}
		pred := randPred(r, colTypes, 2, true)
		sf := CompileSelFilter([]Expr{pred}, len(colTypes), nil, nil)
		selScan := func() *BatchScanIter {
			s := NewBatchScan(h, pred)
			s.SetSelFilter(sf)
			return s
		}

		check := func(phase string) {
			ref := mustRef(t)
			filtered := ref(refFilter(refScan(h), pred))
			// LIMIT: truncateBatch trims a selection-carrying batch by
			// shortening Sel. Striped scans emit in heap order, so the
			// limit sees the same prefix as the reference.
			n := int64(1 + r.Intn(300))
			wantL := refLimit(filtered, n)
			gotL := collectBatches(t, &BatchLimitIter{N: n, In: selScan()})
			rowsEqual(t, gotL, wantL)

			// GROUP BY (or none) over sel batches.
			groupBy := []Expr{col(0, types.Int)}
			if r.Intn(2) == 0 {
				groupBy = nil
			}
			aggs := func() []*AggSpec {
				return []*AggSpec{
					{Kind: AggCountStar},
					{Kind: AggSum, Arg: col(0, types.Int)},
					{Kind: AggMax, Arg: col(1, types.Text)},
				}
			}
			wantA := ref(refGroup(filtered, groupBy, aggs()))
			rowsEqual(t, collectBatches(t, &BatchHashAggIter{
				In: selScan(), GroupBy: groupBy, Aggs: aggs()}), wantA)

			// Hash joins probing from sel batches.
			build := make([]storage.Row, 1+r.Intn(20))
			for i := range build {
				build[i] = storage.Row{
					types.NewInt(int64(r.Intn(9) - 4)), types.NewInt(int64(i))}
			}
			keys := []Expr{col(0, types.Int)}
			wantJ := ref(refJoin(filtered, build, keys, keys, nil))
			gotJ := collectBatches(t, &BatchHashJoinIter{
				Probe: selScan(), Build: &sliceBatches{rows: build},
				ProbeKeys: keys, BuildKeys: keys, BuildWidth: 2})
			rowsEqual(t, gotJ, wantJ)
		}
		check("frozen")

		id := storage.RowID{Page: frozen / 2, Slot: 5}
		if _, err := h.Update(id, rows[0]); err != nil {
			t.Fatalf("seed %d: un-freezing update: %v", seed, err)
		}
		check("mixed")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestStripedSegKernelFastPath pins the segment-aware extraction contract:
// frozen pages reach the SegKernel with the page's segment and full row
// count, row-tail pages fall back to the row Kernel, and a SegKernel that
// declines (handled=false) falls back too.
func TestStripedSegKernelFastPath(t *testing.T) {
	colTypes := []types.Type{types.Int, types.Text}
	rows := randBatchRows(rand.New(rand.NewSource(3)), colTypes, 300)
	h, _ := heapOf(t, colTypes, rows)
	if n := freezeCols(h, map[int]bool{1: true}); n != 2 {
		t.Fatalf("frozen pages = %d, want 2", n)
	}

	kernel := func(data []types.Datum, out [][]types.Datum) error {
		for i := range data {
			out[0][i] = types.NewInt(int64(i))
		}
		return nil
	}
	segCalls, segDeclined := 0, false
	segKernel := func(seg storage.ColumnSegment, out [][]types.Datum) (bool, error) {
		if _, ok := seg.(*vecSegment); !ok {
			t.Fatalf("SegKernel saw %T", seg)
		}
		if segDeclined {
			return false, nil
		}
		segCalls++
		for i := 0; i < seg.NumRows(); i++ {
			out[0][i] = types.NewInt(int64(i))
		}
		return true, nil
	}
	run := func(segK SegExtractKernel) []storage.Row {
		return collectBatches(t, &BatchMultiExtractIter{
			In: NewBatchScan(h, nil), DataIdx: 1, K: 1, Kernel: kernel, SegKernel: segK})
	}

	want := run(nil) // row Kernel everywhere
	got := run(segKernel)
	rowsEqual(t, got, want)
	if segCalls != 2 {
		t.Errorf("SegKernel handled %d pages, want 2 (frozen pages only)", segCalls)
	}
	segDeclined = true
	rowsEqual(t, run(segKernel), want) // declining kernel falls back
}

// TestScanDecodesPerStatement pins who decodes a frozen page's segment
// column, and for which rows: a statement that reads it as values decodes
// it again each time, at the rows its filter keeps; a lazy column a
// segment kernel handles is never decoded, one the kernel declines is
// decoded once, by the extraction, for every row the batch carries, and
// one a Top-N keeps is decoded for the rows it keeps.
func TestScanDecodesPerStatement(t *testing.T) {
	colTypes := []types.Type{types.Int, types.Text}
	rows := randBatchRows(rand.New(rand.NewSource(5)), colTypes, 300)
	for i := range rows {
		rows[i][0] = types.NewInt(int64(i))
	}
	h, _ := heapOf(t, colTypes, rows)
	decoded := 0
	h.SetColumnSegmenter(func(col int, vals []types.Datum) (storage.ColumnSegment, error) {
		if col != 1 {
			return nil, nil
		}
		return &vecSegment{vals: slices.Clone(vals), decoded: &decoded}, nil
	})
	storage.Analyze(h)
	if h.NumFrozenPages() != 2 {
		t.Fatalf("frozen pages = %d, want 2", h.NumFrozenPages())
	}
	ref := mustRef(t)
	count := func(name string, want int, run func() []storage.Row, wantRows []storage.Row) {
		t.Helper()
		decoded = 0
		rowsEqual(t, run(), wantRows)
		if decoded != want {
			t.Errorf("%s: decoded %d values, want %d", name, decoded, want)
		}
	}

	// Read as values: every row of both frozen pages, each time.
	project := []Expr{col(1, types.Text)}
	all := ref(refProject(refScan(h), project))
	for range 2 {
		count("projection", 2*storage.PageCapacity, func() []storage.Row {
			return collectBatches(t, &BatchProjectIter{Exprs: project, In: NewBatchScan(h, nil)})
		}, all)
	}
	// Filtered: only the rows the filter keeps (ten on the first page).
	pred := &BinExpr{Op: "<", L: col(0, types.Int), R: &ConstExpr{Val: types.NewInt(10)}}
	some := ref(refProject(ref(refFilter(refScan(h), pred)), project))
	for range 2 {
		count("filtered projection", 10, func() []storage.Row {
			s := NewBatchScan(h, pred)
			s.SetSelFilter(CompileSelFilter([]Expr{pred}, 2, nil, nil))
			return collectBatches(t, &BatchProjectIter{Exprs: project, In: s})
		}, some)
	}

	// Read by a fused extraction only: the scan leaves it lazy.
	kernel := func(data []types.Datum, out [][]types.Datum) error {
		for i, d := range data {
			out[0][i] = types.NewInt(int64(len(d.String())))
		}
		return nil
	}
	declined := false
	segKernel := func(seg storage.ColumnSegment, out [][]types.Datum) (bool, error) {
		if declined {
			return false, nil
		}
		vals := seg.(*vecSegment).vals
		for i, d := range vals {
			out[0][i] = types.NewInt(int64(len(d.String())))
		}
		return true, nil
	}
	extract := func() []storage.Row {
		s := NewBatchScan(h, nil)
		s.NeedCols, s.LazyCols = []int{1}, []int{1}
		return collectBatches(t, &BatchProjectIter{Exprs: []Expr{col(2, types.Int)},
			In: &BatchMultiExtractIter{In: s, DataIdx: 1, K: 1, Kernel: kernel, SegKernel: segKernel}})
	}
	declined = true
	want := extract()
	declined = false
	count("segment kernel", 0, extract, want)
	declined = true
	count("declined segment kernel", 2*storage.PageCapacity, extract, want)

	// Kept by a Top-N only: it decodes the rows that enter its heap, the
	// first five here, as rows arrive in key order.
	topN := func(lazy bool) []storage.Row {
		s := NewBatchScan(h, nil)
		if lazy {
			s.LazyCols = []int{1}
		}
		return collectBatches(t, &BatchTopNIter{In: s, Keys: []SortKey{{Expr: col(0, types.Int)}}, N: 5})
	}
	want = topN(false)
	count("Top-N", 5, func() []storage.Row { return topN(true) }, want)
}
