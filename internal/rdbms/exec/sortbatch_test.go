package exec

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// randSortKeys returns 1–3 sort keys over random columns or shallow
// expressions, each with a random direction, so multi-key ASC/DESC orders
// and NULL placement (last ascending, first descending) are all exercised.
func randSortKeys(r *rand.Rand, colTypes []types.Type) []SortKey {
	keys := make([]SortKey, 1+r.Intn(3))
	for i := range keys {
		var e Expr
		switch r.Intn(4) {
		case 0:
			e = randNumExpr(r, colTypes, 1, true)
		case 1:
			e = randTextExpr(r, colTypes, 1)
		default:
			j := r.Intn(len(colTypes))
			e = col(j, colTypes[j])
		}
		keys[i] = SortKey{Expr: e, Desc: r.Intn(2) == 0}
	}
	return keys
}

// sortChainBuild is a sorted-merge gather's fragment: scan→(filter)→sorter
// with AppendKeys, one per partition. limit < 0
// builds a full BatchSortIter, otherwise a BatchTopNIter bounded at limit.
func sortChainBuild(h *storage.Heap, pred Expr, keys []SortKey, limit int64) PipelineBuild {
	return func(r storage.PageRange) BatchIterator {
		var cur BatchIterator = NewBatchScanRange(h, nil, r.Start, r.End)
		if pred != nil {
			cur = &BatchFilterIter{In: cur, Pred: pred}
		}
		if limit >= 0 {
			return &BatchTopNIter{In: cur, Keys: keys, N: limit, AppendKeys: true}
		}
		return &BatchSortIter{In: cur, Keys: keys, AppendKeys: true}
	}
}

// TestPropertyBatchSortMatchesRowSort is the differential test backing the
// sort: over random schemas, data (with NULLs), multi-key ASC/DESC orders,
// and filters, the serial BatchSortIter and the parallel sorted-merge
// gather must produce the reference's output — same rows, same order
// (local stable sorts over ascending page ranges plus a partition-index
// tie-break reproduce the serial stable sort exactly) — over inputs from
// empty to more than two batches.
func TestPropertyBatchSortMatchesRowSort(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text}
		for n := r.Intn(3); n > 0; n-- {
			colTypes = append(colTypes,
				[]types.Type{types.Int, types.Float, types.Text, types.Bool}[r.Intn(4)])
		}
		rows := randBatchRows(r, colTypes, drawRows(r, r.Intn(300)))
		h, _ := heapOf(t, colTypes, rows)
		keys := randSortKeys(r, colTypes)
		var pred Expr
		if r.Intn(2) == 0 {
			pred = randPred(r, colTypes, 2, true)
		}

		ref := mustRef(t)
		want := ref(refSort(ref(refFilter(rows, pred)), keys))

		var batchSrc BatchIterator = NewBatchScan(h, nil)
		if pred != nil {
			batchSrc = &BatchFilterIter{Pred: pred, In: batchSrc}
		}
		batch := collectBatches(t, &BatchSortIter{In: batchSrc, Keys: keys})
		rowsEqual(t, batch, want)

		for _, workers := range []int{2, 3, 5} {
			par := collectBatches(t, NewParallelSortedMerge(
				h.Partitions(workers), sortChainBuild(h, pred, keys, -1), keys, -1))
			rowsEqual(t, par, want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTopNMatchesSortLimit checks the bounded Top-N operator — and
// its parallel form, per-partition Top-N heaps merged with the bound pushed
// into the merge — against the reference SORT + LIMIT, including N = 0, N
// larger than the input, N past a batch boundary, and ties at the boundary
// (the heap discards a tying newcomer, preserving first-arrival order
// exactly like the stable sort).
func TestPropertyTopNMatchesSortLimit(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text}
		for n := r.Intn(2); n > 0; n-- {
			colTypes = append(colTypes,
				[]types.Type{types.Int, types.Float, types.Text, types.Bool}[r.Intn(4)])
		}
		nRows := drawRows(r, r.Intn(300))
		rows := randBatchRows(r, colTypes, nRows)
		h, _ := heapOf(t, colTypes, rows)
		keys := randSortKeys(r, colTypes)
		limit := int64(r.Intn(nRows + 20)) // sometimes 0, sometimes > nRows, often past a batch

		want := refLimit(mustRef(t)(refSort(rows, keys)), limit)
		batch := collectBatches(t, &BatchTopNIter{In: NewBatchScan(h, nil), Keys: keys, N: limit})
		rowsEqual(t, batch, want)

		for _, workers := range []int{2, 4} {
			par := collectBatches(t, NewParallelSortedMerge(
				h.Partitions(workers), sortChainBuild(h, nil, keys, limit), keys, limit))
			rowsEqual(t, par, want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestParallelSortedMergeReleasesOnEarlyClose abandons the sorted merge
// mid-stream and checks worker goroutines exit and the pager is charged at
// most one full scan — same contract as the other parallel mergers. The
// sorters drain their partitions during the first NextBatch, so the full
// heap has been read by then; early close must not double-charge it.
func TestParallelSortedMergeReleasesOnEarlyClose(t *testing.T) {
	colTypes := []types.Type{types.Int, types.Text}
	r := rand.New(rand.NewSource(13))
	rows := randBatchRows(r, colTypes, 4000)
	h, pager := heapOf(t, colTypes, rows)
	full := h.SizeBytes()
	keys := []SortKey{{Expr: col(0, types.Int)}}

	mk := map[string]func() BatchIterator{
		"sort": func() BatchIterator {
			return NewParallelSortedMerge(h.Partitions(4), sortChainBuild(h, nil, keys, -1), keys, -1)
		},
		"topn": func() BatchIterator {
			return NewParallelSortedMerge(h.Partitions(4), sortChainBuild(h, nil, keys, 7), keys, 7)
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

		// Close before any NextBatch: workers may not even have started.
		it := make()
		it.Close()
		waitGoroutines(t, base)
	}
}

// TestBatchSortAllocatesOnlyReadColumns pins what one execution of a
// one-of-seven-columns sort allocates (SELECT str1 ... ORDER BY str1 over a
// scan that pruned the other six): the accumulation buffers are presized
// for the columns the input carries, not for its whole width, and the key,
// a bare column reference, is that data column rather than a copy of it.
// 20 000 rows need one column of datums plus the permutation; a key copy
// doubles that, and presizing all seven columns more than quadruples it.
func TestBatchSortAllocatesOnlyReadColumns(t *testing.T) {
	const nRows, width = 20000, 7
	colTypes := make([]types.Type, width)
	for j := range colTypes {
		colTypes[j] = types.Int
	}
	colTypes[0] = types.Text
	r := rand.New(rand.NewSource(5))
	h, _ := heapOf(t, colTypes, randBatchRows(r, colTypes, nRows))
	keys := []SortKey{{Expr: col(0, types.Text)}}
	run := func() {
		scan := NewBatchScan(h, nil)
		scan.NeedCols = []int{0}
		it := &BatchSortIter{In: scan, Keys: keys}
		for {
			b, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
		}
		it.Close()
	}
	run() // warm the batch pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	datum := int64(unsafe.Sizeof(types.Datum{}))
	used := nRows*datum + nRows*4 // data column (the key aliases it), int32 permutation
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > used*3/2 {
		t.Errorf("sorting one of %d columns of %d rows allocated %d bytes, want <= %d (1.5 x the %d it needs)",
			width, nRows, got, used*3/2, used)
	}
}
