package exec

import (
	"fmt"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

func intHeap(t *testing.T, n int) *storage.Heap {
	t.Helper()
	schema, err := storage.NewSchema(
		storage.Column{Name: "v", Typ: types.Int},
		storage.Column{Name: "s", Typ: types.Text},
	)
	if err != nil {
		t.Fatal(err)
	}
	h := storage.NewHeap(schema, nil)
	for i := 0; i < n; i++ {
		s := types.NewText(fmt.Sprintf("s%d", i%7))
		if i%5 == 0 {
			s = types.NewNull(types.Text)
		}
		if err := h.Insert(row(types.NewInt(int64(i)), s)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// collectBatches drains a BatchIterator into plain rows (copying).
func collectBatches(t *testing.T, it BatchIterator) []storage.Row {
	t.Helper()
	defer it.Close()
	var out []storage.Row
	for {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		if b.Len() == 0 {
			t.Fatal("BatchIterator emitted an empty batch")
		}
		for i := 0; i < b.Len(); i++ {
			// batchRow is a physical accessor: logical row i lives at
			// Sel[i] when the batch carries a selection vector.
			out = append(out, batchRow(b, selIdx(b.Sel, i)))
		}
	}
}

// batchRow copies physical row i of b out. Columns a pruned scan left
// empty yield zero Datums; the planner guarantees no consumer reads them.
func batchRow(b *RowBatch, i int) storage.Row {
	r := make(storage.Row, len(b.Cols))
	for j, col := range b.Cols {
		if i < len(col) {
			r[j] = col[i]
		}
	}
	return r
}

func rowsEqual(t *testing.T, got, want []storage.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d: width %d vs %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if string(got[i][j].HashKey(nil)) != string(want[i][j].HashKey(nil)) {
				t.Fatalf("row %d col %d: %v vs %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestRowBatchAppendAndNulls(t *testing.T) {
	b := NewRowBatch(2, 4)
	b.AppendRow(row(types.NewInt(1), types.NewNull(types.Text)))
	b.AppendRow(row(types.NewInt(2), types.NewText("x")))
	if b.Len() != 2 || b.Width() != 2 {
		t.Fatalf("len=%d width=%d", b.Len(), b.Width())
	}
	if b.Nulls[0].AnyNull() {
		t.Error("col 0 has no NULLs")
	}
	if !b.Nulls[1].Get(0) || b.Nulls[1].Get(1) {
		t.Error("col 1 bitmap wrong")
	}
	r := batchRow(b, 1)
	if r[0].I != 2 || r[1].Text() != "x" {
		t.Errorf("row 1 = %v", r)
	}
	b.Reset()
	if b.Len() != 0 || b.Nulls[1].AnyNull() {
		t.Error("Reset should clear rows and bitmaps")
	}
}

func TestRowBatchSetColRebuildsBitmap(t *testing.T) {
	b := NewRowBatch(1, 4)
	b.SetCol(0, []types.Datum{types.NewInt(1), types.NewNull(types.Int), types.NewInt(3)})
	b.SetLen(3)
	if b.Nulls[0].Get(0) || !b.Nulls[0].Get(1) || b.Nulls[0].Get(2) {
		t.Error("SetCol bitmap wrong")
	}
}

func TestBatchScanMatchesRowScan(t *testing.T) {
	h := intHeap(t, 3000)
	ref := mustRef(t)
	filter := &BinExpr{Op: "<", L: col(0, types.Int), R: lit(types.NewInt(2333))}
	for _, f := range []Expr{nil, filter} {
		rowsEqual(t, collectBatches(t, NewBatchScan(h, f)), ref(refFilter(refScan(h), f)))
	}
}

func TestBatchScanSizeHint(t *testing.T) {
	h := intHeap(t, 100)
	if n, exact := NewBatchScan(h, nil).SizeHint(); !exact || n != 100 {
		t.Errorf("unfiltered hint = %d %v", n, exact)
	}
	f := &BinExpr{Op: "=", L: col(0, types.Int), R: lit(types.NewInt(1))}
	if _, exact := NewBatchScan(h, f).SizeHint(); exact {
		t.Error("filtered hint should be inexact")
	}
}

// TestBatchFilterProjectLimitPipeline: the filter keeps a third of each
// 1 024-row scan batch, so the LIMIT's last row lies in the second one.
func TestBatchFilterProjectLimitPipeline(t *testing.T) {
	h := intHeap(t, 3000)
	pred := &BinExpr{Op: "=",
		L: &BinExpr{Op: "%", L: col(0, types.Int), R: lit(types.NewInt(3))},
		R: lit(types.NewInt(0))}
	proj := []Expr{
		&BinExpr{Op: "*", L: col(0, types.Int), R: lit(types.NewInt(2))},
		col(1, types.Text),
	}
	ref := mustRef(t)
	want := ref(refProject(refLimit(ref(refFilter(refScan(h), pred)), 400), proj))
	got := collectBatches(t, &BatchLimitIter{N: 400,
		In: &BatchProjectIter{Exprs: proj,
			In: &BatchFilterIter{Pred: pred,
				In: NewBatchScan(h, nil)}}})
	rowsEqual(t, got, want)
}

func TestBatchFilterDoesNotAliasInput(t *testing.T) {
	// The filter's output must survive the producer recycling its batch on
	// the following NextBatch (batch reuse is the common case): the scan
	// transposes its second 1 024 rows into the buffer of its first.
	h := intHeap(t, 3000)
	pred := &BinExpr{Op: "<", L: col(0, types.Int), R: lit(types.NewInt(5))}
	f := &BatchFilterIter{Pred: pred, In: NewBatchScan(h, nil)}
	b1, err := f.NextBatch()
	if err != nil || b1 == nil {
		t.Fatalf("first batch: %v %v", b1, err)
	}
	snapshot := batchRow(b1, 0)
	// Drive the source forward; b1 must keep its values.
	f.In.NextBatch()
	after := batchRow(b1, 0)
	if string(after[0].HashKey(nil)) != string(snapshot[0].HashKey(nil)) {
		t.Errorf("filter output aliased producer batch: %v -> %v", snapshot, after)
	}
	f.Close()
}

func TestBatchHashAggMatchesRowHashAgg(t *testing.T) {
	h := intHeap(t, 3000)
	groupBy := []Expr{&BinExpr{Op: "%", L: col(0, types.Int), R: lit(types.NewInt(6))}}
	specs := func() []*AggSpec {
		return []*AggSpec{
			{Kind: AggCountStar},
			{Kind: AggCount, Arg: col(1, types.Text)},
			{Kind: AggSum, Arg: col(0, types.Int)},
			{Kind: AggMin, Arg: col(0, types.Int)},
			{Kind: AggMax, Arg: col(0, types.Int)},
			{Kind: AggCount, Arg: col(1, types.Text), Distinct: true},
		}
	}
	ref := mustRef(t)
	for _, g := range [][]Expr{
		groupBy,
		// One group per row: 3 000 groups leave the aggregate in three
		// batches, two full and one partial.
		{col(0, types.Int)},
		// Without GROUP BY the same aggregates, DISTINCT and NULL arguments
		// included, fold whole batches into the one group.
		nil,
	} {
		want := ref(refGroup(refScan(h), g, specs()))
		rowsEqual(t, collectBatches(t, &BatchHashAggIter{In: NewBatchScan(h, nil), GroupBy: g, Aggs: specs()}), want)
	}
	// Scalar aggregate over empty input still yields one row.
	empty := intHeap(t, 0)
	got := collectBatches(t, &BatchHashAggIter{In: NewBatchScan(empty, nil), Aggs: specs()})
	if len(got) != 1 || got[0][0].I != 0 || !got[0][2].IsNull() {
		t.Errorf("scalar agg over empty = %v, want COUNT(*) 0 and SUM NULL", got)
	}
}

// TestCollectUsesSizeHint: an exactly hinted stream is collected into a
// result allocated once at its final size.
func TestCollectUsesSizeHint(t *testing.T) {
	h := intHeap(t, 2500)
	rows, err := CollectBatches(NewBatchScan(h, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2500 || cap(rows) != 2500 {
		t.Fatalf("rows = %d (cap %d), want 2500 in a result sized once", len(rows), cap(rows))
	}
	// BatchLimitIter caps the hint.
	l := &BatchLimitIter{N: 10, In: NewBatchScan(h, nil)}
	if n, exact := l.SizeHint(); !exact || n != 10 {
		t.Errorf("limit hint = %d %v", n, exact)
	}
}

func TestScanCloseFlushesPagerOnEarlyStop(t *testing.T) {
	p := storage.NewPager()
	schema, _ := storage.NewSchema(storage.Column{Name: "v", Typ: types.Int})
	h := storage.NewHeap(schema, p)
	for i := 0; i < 3000; i++ {
		h.Insert(row(types.NewInt(int64(i))))
	}
	p.Reset()
	// A LIMIT that stops a scan early — after its first 1 024 rows — must
	// still charge the pages it touched when the iterator is closed.
	if _, err := CollectBatches(&BatchLimitIter{N: 5, In: NewBatchScan(h, nil)}); err != nil {
		t.Fatal(err)
	}
	if r, _ := p.Stats(); r <= 0 || r >= h.SizeBytes() {
		t.Errorf("early-stopped scan charged %d of %d", r, h.SizeBytes())
	}
}

func TestBatchScanNeedCols(t *testing.T) {
	h := intHeap(t, 3000)
	s := NewBatchScan(h, nil)
	s.NeedCols = []int{1} // only the string column is referenced
	defer s.Close()
	n := 0
	for {
		b, err := s.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if len(b.Cols[0]) != 0 {
			t.Fatalf("pruned column materialized %d values", len(b.Cols[0]))
		}
		if len(b.Cols[1]) != b.Len() {
			t.Fatalf("needed column has %d of %d values", len(b.Cols[1]), b.Len())
		}
		n += b.Len()
	}
	if n != 3000 {
		t.Fatalf("scanned %d rows, want 3000", n)
	}
}
