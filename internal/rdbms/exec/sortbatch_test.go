package exec

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

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

// TestPropertyBatchSortMatchesRowSort is the differential test backing the
// sort: over random schemas, data (with NULLs), multi-key ASC/DESC orders,
// and filters, BatchSortIter must produce the reference's output — same
// rows, same order (the sort is stable) — over inputs from empty to more
// than two batches.
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
			batchSrc = filterOn(batchSrc, pred)
		}
		batch := collectBatches(t, &BatchSortIter{In: batchSrc, Keys: keys})
		rowsEqual(t, batch, want)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTopNMatchesSortLimit checks the bounded Top-N operator
// against the reference SORT + LIMIT, including N = 0, N
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
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
