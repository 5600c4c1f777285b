package exec

import (
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"
	"time"

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
// over a scan of them meets batch boundaries mid-stream, and each of two
// partitions still fills a batch.
func edgeRows(r *rand.Rand) int { return 2*DefaultBatchSize + 1 + r.Intn(DefaultBatchSize) }

// drawRows keeps small, a property test's usual row count — which can be
// empty, less than one batch, one page, or fewer pages than workers — for
// two inputs in three, and draws edgeRows for the third.
func drawRows(r *rand.Rand, small int) int {
	if r.Intn(3) == 0 {
		return edgeRows(r)
	}
	return small
}

// chainBuild returns a PipelineBuild running scan→filter→project over one
// partition, the fragment a gather's workers open for such a chain.
func chainBuild(h *storage.Heap, pred Expr, projs []Expr) PipelineBuild {
	return func(r storage.PageRange) BatchIterator {
		var cur BatchIterator = NewBatchScanRange(h, nil, r.Start, r.End)
		if pred != nil {
			cur = &BatchFilterIter{In: cur, Pred: pred}
		}
		if projs != nil {
			cur = &BatchProjectIter{In: cur, Exprs: projs}
		}
		return cur
	}
}

// TestPropertyParallelMatchesSerial is the differential test backing the
// morsel-driven pipelines: over random schemas, data, predicates, and
// projections, the serial pipeline and the parallel pipeline (several
// worker counts) must produce the reference's output — same rows, same
// order (the partition merge preserves heap order exactly).
func TestPropertyParallelMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text}
		for n := r.Intn(3); n > 0; n-- {
			colTypes = append(colTypes,
				[]types.Type{types.Int, types.Float, types.Text, types.Bool}[r.Intn(4)])
		}
		rows := randBatchRows(r, colTypes, drawRows(r, r.Intn(300)))
		h, _ := heapOf(t, colTypes, rows)
		pred := randPred(r, colTypes, 3, true)
		projs := make([]Expr, 1+r.Intn(3))
		for i := range projs {
			if r.Intn(3) == 0 {
				projs[i] = randTextExpr(r, colTypes, 2)
			} else {
				projs[i] = randNumExpr(r, colTypes, 2, true)
			}
		}

		ref := mustRef(t)
		want := ref(refProject(ref(refFilter(rows, pred)), projs))
		batch := collectBatches(t, &BatchProjectIter{Exprs: projs,
			In: &BatchFilterIter{Pred: pred, In: NewBatchScan(h, nil)}})
		rowsEqual(t, batch, want)
		for _, workers := range []int{2, 3, 5} {
			par := collectBatches(t, NewParallelPipeline(
				h.Partitions(workers), chainBuild(h, pred, projs)))
			rowsEqual(t, par, want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyParallelAggMatchesSerial checks two-phase parallel hash
// aggregation — GROUP BY with COUNT/SUM/AVG/MIN/MAX, the same without GROUP
// BY (the one group folds whole batches), plus the grouped DISTINCT case
// (no aggregates) — against the serial aggregate and the reference.
func TestPropertyParallelAggMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Int, types.Float, types.Text}
		rows := randBatchRows(r, colTypes, drawRows(r, r.Intn(400)))
		h, _ := heapOf(t, colTypes, rows)
		var groupBy []Expr
		switch r.Intn(3) {
		case 1:
			groupBy = []Expr{col(0, types.Int)}
		case 2:
			groupBy = []Expr{col(0, types.Int), col(3, types.Text)}
		}
		specs := func() []*AggSpec {
			return []*AggSpec{
				{Kind: AggCountStar},
				{Kind: AggCount, Arg: col(1, types.Int)},
				{Kind: AggSum, Arg: col(1, types.Int)},
				{Kind: AggAvg, Arg: col(2, types.Float)},
				{Kind: AggMin, Arg: col(2, types.Float)},
				{Kind: AggMax, Arg: col(3, types.Text)},
			}
		}
		ref := mustRef(t)
		want := ref(refGroup(rows, groupBy, specs()))
		// Serial, parallel and the reference all emit in encoded-key order.
		rowsEqual(t, collectBatches(t, &BatchHashAggIter{
			In: NewBatchScan(h, nil), GroupBy: groupBy, Aggs: specs()}), want)
		for _, workers := range []int{2, 4} {
			par := collectBatches(t, NewParallelHashAgg(
				h.Partitions(workers), chainBuild(h, nil, nil), groupBy, specs()))
			rowsEqual(t, par, want)
		}

		// Grouped DISTINCT: group-by columns, no aggregate states.
		parD := collectBatches(t, NewParallelHashAgg(
			h.Partitions(3), chainBuild(h, nil, nil), groupBy, nil))
		rowsEqual(t, parD, ref(refGroup(rows, groupBy, nil)))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAggMergeRejectsDistinct pins the planner contract: DISTINCT
// aggregates cannot be merged across partitions (per-worker distinct sets
// would double-count), so merge() must refuse them.
func TestAggMergeRejectsDistinct(t *testing.T) {
	spec := &AggSpec{Kind: AggCount, Arg: col(0, types.Int), Distinct: true}
	a, b := aggState{spec: spec}, aggState{spec: spec}
	if err := a.merge(&b); err == nil {
		t.Fatal("merge of DISTINCT aggregate states unexpectedly succeeded")
	}
}

// TestPropertyParallelJoinMatchesSerial checks the partitioned-probe hash
// join against the reference join: same build side, probe side scanned in
// parallel partitions, identical output order, and on the larger inputs
// workers filling more than one output batch each.
func TestPropertyParallelJoinMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text}
		rows := randBatchRows(r, colTypes, drawRows(r, r.Intn(300)))
		h, _ := heapOf(t, colTypes, rows)
		build := make([]storage.Row, 1+r.Intn(30))
		for i := range build {
			key := types.NewInt(int64(r.Intn(9) - 4))
			if r.Intn(8) == 0 {
				key = types.NewNull(types.Int)
			}
			build[i] = storage.Row{key, types.NewInt(int64(i))}
		}
		probeKeys := []Expr{col(0, types.Int)}
		buildKeys := []Expr{col(0, types.Int)}
		var residual Expr
		if r.Intn(2) == 0 {
			residual = &BinExpr{Op: "<>", L: col(1, types.Text), R: lit(types.NewText("b"))}
		}
		want := mustRef(t)(refJoin(rows, build, probeKeys, buildKeys, residual))
		for _, workers := range []int{2, 4} {
			par := collectBatches(t, NewParallelHashJoin(
				h.Partitions(workers), chainBuild(h, nil, nil),
				&sliceBatches{rows: build}, probeKeys, buildKeys, residual, 2))
			rowsEqual(t, par, want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// vecSegment is a test ColumnSegment: a copied datum vector standing in
// for the upper layer's striped record segments.
type vecSegment struct {
	vals []types.Datum
	ids  []uint32
}

func (s *vecSegment) NumRows() int      { return len(s.vals) }
func (s *vecSegment) AttrIDs() []uint32 { return s.ids }
func (s *vecSegment) SizeBytes() int64  { return int64(len(s.vals)) * 24 }
func (s *vecSegment) Values(dst []types.Datum) error {
	copy(dst, s.vals)
	return nil
}

// freezeCols installs a segmenter striping the listed columns and freezes
// every full page, returning how many froze.
func freezeCols(h *storage.Heap, stripe map[int]bool) int {
	h.SetColumnSegmenter(func(col int, vals []types.Datum) (storage.ColumnSegment, error) {
		if !stripe[col] {
			return nil, nil
		}
		cp := make([]types.Datum, len(vals))
		copy(cp, vals)
		return &vecSegment{vals: cp, ids: []uint32{uint32(col)}}, nil
	})
	return h.FreezeColdPages()
}

// selChainBuild is chainBuild with the predicate pushed into the scan:
// frozen pages filter through the SelFilter (shared across partitions,
// per-partition state instantiated on the worker goroutine; nil makes the
// scan compile its own), row-form pages compact in place. With no
// projection it is the zero-operator gather of a bare filtered scan.
func selChainBuild(h *storage.Heap, pred Expr, projs []Expr, sf *SelFilter) PipelineBuild {
	return func(rg storage.PageRange) BatchIterator {
		scan := NewBatchScanRange(h, pred, rg.Start, rg.End)
		scan.SetSelFilter(sf)
		var cur BatchIterator = scan
		if projs != nil {
			cur = &BatchProjectIter{In: cur, Exprs: projs}
		}
		return cur
	}
}

// TestPropertyStripedMatchesRow extends the differential test with the
// frozen-segment leg: over heaps whose full pages are frozen into column
// segments, the serial and parallel pipelines must agree with the
// reference — before and after an Update un-freezes a page mid-table,
// leaving a frozen/row mix.
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
			for _, workers := range []int{2, 3} {
				par := collectBatches(t, NewParallelPipeline(
					h.Partitions(workers), chainBuild(h, pred, projs)))
				rowsEqual(t, par, want)
				selPar := collectBatches(t, NewParallelPipeline(
					h.Partitions(workers), selChainBuild(h, pred, projs, sf)))
				rowsEqual(t, selPar, want)
				// The zero-operator gather of a bare filtered scan, the
				// projection above the merge.
				scanPar := collectBatches(t, &BatchProjectIter{Exprs: projs,
					In: NewParallelPipeline(h.Partitions(workers), selChainBuild(h, pred, nil, sf))})
				rowsEqual(t, scanPar, want)
			}
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
// un-frozen by an UPDATE between them, a row-form run of more than two
// batches with deleted slots in it, and a short tail — scanned with and
// without predicates, with NeedCols, with a page-skip test, serially and
// in three partitions whose boundaries fall inside the row-form run.
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
		for i := 0; i < 1+r.Intn(per/2); i++ {
			// Deleting a deleted slot again fails; that is fine here.
			_, _ = h.Delete(storage.RowID{Page: frozenPages + 2, Slot: r.Intn(per)})
		}
		if h.NumFrozenPages() != frozenPages-1 || h.NumPages() != frozenPages+runPages+1 {
			t.Fatalf("seed %d: %d frozen of %d pages", seed, h.NumFrozenPages(), h.NumPages())
		}
		whole := storage.PageRange{Start: 0, End: h.NumPages()}
		parts := []storage.PageRange{
			{Start: 0, End: frozenPages + 1},
			{Start: frozenPages + 1, End: frozenPages + 3},
			{Start: frozenPages + 3, End: h.NumPages()},
		}
		// check runs one scan set-up serially and partitioned and compares
		// both with the reference's answer over the needed columns.
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
			build := func(rg storage.PageRange) BatchIterator {
				s := NewBatchScanRange(h, pred, rg.Start, rg.End)
				s.NeedCols = need
				if skip != nil {
					s.SetPageSkip(func(*storage.HeapChunkIter, []types.Datum) func(*storage.PageSummary) bool { return skip })
				}
				s.SetSelFilter(sf)
				return s
			}
			serial := build(whole)
			pager.Reset()
			rowsEqual(t, collectBatches(t, &BatchProjectIter{Exprs: projs, In: serial}), want)
			if skipped, _ := pager.ExecStats(); skip != nil && skipped == 0 {
				t.Fatalf("seed %d %s: the skip test skipped no page", seed, leg)
			}
			rowsEqual(t, collectBatches(t, &BatchProjectIter{Exprs: projs,
				In: NewParallelPipeline(parts, build)}), want)
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
// cardinality — LIMIT, GROUP BY aggregation, and hash joins — comparing
// serial and parallel legs against the reference, on all-frozen and mixed
// frozen/row-form heaps.
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
			// shortening Sel. Serial striped scans emit in heap order and
			// the parallel merge preserves partition order, so both legs
			// see the same prefix as the reference.
			n := int64(1 + r.Intn(300))
			wantL := refLimit(filtered, n)
			gotL := collectBatches(t, &BatchLimitIter{N: n, In: selScan()})
			rowsEqual(t, gotL, wantL)
			gotLP := collectBatches(t, &BatchLimitIter{N: n,
				In: NewParallelPipeline(h.Partitions(3), selChainBuild(h, pred, nil, sf))})
			rowsEqual(t, gotLP, wantL)

			// GROUP BY (or none) over sel batches, serial and two-phase
			// parallel.
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
			parA := collectBatches(t, NewParallelHashAgg(
				h.Partitions(3), selChainBuild(h, pred, nil, sf), groupBy, aggs()))
			rowsEqual(t, parA, wantA)

			// Hash joins probing from sel batches, serial and partitioned.
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
			parJ := collectBatches(t, NewParallelHashJoin(
				h.Partitions(2), selChainBuild(h, pred, nil, sf),
				&sliceBatches{rows: build}, keys, keys, nil, 2))
			rowsEqual(t, parJ, wantJ)
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

// waitGoroutines polls until the goroutine count drops back to base
// (worker shutdown is asynchronous after Close returns the merge side).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
}

// TestParallelPipelinesReleaseOnEarlyClose abandons every parallel
// iterator mid-stream and checks (a) all worker goroutines exit and (b)
// the pager is charged no more than one full scan of the heap — i.e.
// partition scans flushed their partial accounting instead of dropping or
// double-charging it.
func TestParallelPipelinesReleaseOnEarlyClose(t *testing.T) {
	colTypes := []types.Type{types.Int, types.Text}
	r := rand.New(rand.NewSource(11))
	rows := randBatchRows(r, colTypes, 4000)
	h, pager := heapOf(t, colTypes, rows)
	full := h.SizeBytes()
	groupBy := []Expr{col(0, types.Int)}
	aggs := []*AggSpec{{Kind: AggCountStar}}
	build := []storage.Row{{types.NewInt(1), types.NewInt(2)}}

	mk := map[string]func() BatchIterator{
		"pipeline": func() BatchIterator {
			return NewParallelPipeline(h.Partitions(4), chainBuild(h, nil, nil))
		},
		"agg": func() BatchIterator {
			return NewParallelHashAgg(h.Partitions(4), chainBuild(h, nil, nil), groupBy, aggs)
		},
		"join": func() BatchIterator {
			return NewParallelHashJoin(h.Partitions(4), chainBuild(h, nil, nil),
				&sliceBatches{rows: build}, []Expr{col(0, types.Int)}, []Expr{col(0, types.Int)},
				nil, 2)
		},
	}
	for name, make := range mk {
		base := runtime.NumGoroutine()
		for i := 0; i < 10; i++ {
			pager.Reset()
			it := make()
			if _, err := it.NextBatch(); err != nil {
				t.Fatalf("%s: first batch: %v", name, err)
			}
			it.Close()
			it.Close() // idempotent
			read, _ := pager.Stats()
			if read > full {
				t.Fatalf("%s: pager charged %d bytes for early close, heap is %d", name, read, full)
			}
		}
		waitGoroutines(t, base)
	}

	// Close before any NextBatch: workers may not even have started.
	for name, make := range mk {
		base := runtime.NumGoroutine()
		it := make()
		it.Close()
		waitGoroutines(t, base)
		_ = name
	}

	// A fragment that fails on partition 0's first page, while the other
	// partitions run on: every merge returns the serial plan's error and
	// stops the others when closed.
	bad := make([]storage.Row, len(rows))
	for i := range bad {
		s := "x"
		if i >= storage.PageCapacity {
			s = strconv.Itoa(i)
		}
		bad[i] = storage.Row{types.NewInt(int64(i)), types.NewText(s)}
	}
	bh, _ := heapOf(t, colTypes, bad)
	fails := &BinExpr{Op: ">=", L: &CastExpr{X: col(1, types.Text), To: types.Int}, R: lit(types.NewInt(0))}
	_, want := CollectBatches(&BatchFilterIter{In: NewBatchScan(bh, nil), Pred: fails})
	if want == nil {
		t.Fatal("the failing predicate passed every row")
	}
	keys := []SortKey{{Expr: col(0, types.Int), Desc: true}}
	for name, it := range map[string]func() BatchIterator{
		"pipeline": func() BatchIterator {
			return NewParallelPipeline(bh.Partitions(4), chainBuild(bh, fails, nil))
		},
		"agg": func() BatchIterator {
			return NewParallelHashAgg(bh.Partitions(4), chainBuild(bh, fails, nil), groupBy, aggs)
		},
		"join": func() BatchIterator {
			return NewParallelHashJoin(bh.Partitions(4), chainBuild(bh, fails, nil),
				&sliceBatches{rows: build}, []Expr{col(0, types.Int)}, []Expr{col(0, types.Int)},
				nil, 2)
		},
		"sort": func() BatchIterator {
			return NewParallelSortedMerge(bh.Partitions(4), sortChainBuild(bh, fails, keys, -1), keys, -1)
		},
	} {
		base := runtime.NumGoroutine()
		_, err := CollectBatches(it())
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v, want the serial plan's %v", name, err, want)
		}
		waitGoroutines(t, base)
	}
}
