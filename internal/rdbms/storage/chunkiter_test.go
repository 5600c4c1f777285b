package storage

import (
	"testing"
)

func TestChunkIterReadsAllRows(t *testing.T) {
	h := NewHeap(testSchema(t), nil)
	const rows = 777
	for i := 0; i < rows; i++ {
		h.Insert(mkRow(int64(i), "x", 0))
	}
	// Deleted rows must be skipped.
	h.Delete(RowID{Page: 1, Slot: 5})
	h.Delete(RowID{Page: 2, Slot: 0})

	var got []int64
	it := h.IterateChunks()
	// 37 rows a read: deliberately not a divisor of the page size.
	for pv, ok := it.ReadPage(37); ok; pv, ok = it.ReadPage(37) {
		for _, r := range pv.Rows {
			got = append(got, r[0].I)
		}
	}
	if len(got) != rows-2 {
		t.Fatalf("read %d rows, want %d", len(got), rows-2)
	}
	// Rows come in heap order, so ids must be ascending with the two
	// deleted ids missing.
	prev := int64(-1)
	for _, id := range got {
		if id <= prev {
			t.Fatalf("rows out of order: %d after %d", id, prev)
		}
		prev = id
	}
}

func TestChunkIterPagerAccounting(t *testing.T) {
	p := NewPager()
	h := NewHeap(testSchema(t), p)
	for i := 0; i < 1000; i++ {
		h.Insert(mkRow(int64(i), "hello", 1))
	}
	p.Reset()
	// A full read charges the whole heap, to the pager and the cursor.
	it := h.IterateChunks()
	for _, ok := it.ReadPage(64); ok; _, ok = it.ReadPage(64) {
	}
	it.Close()
	r, _ := p.Stats()
	if r != h.SizeBytes() || it.BytesRead() != h.SizeBytes() {
		t.Errorf("chunk scan read %d (cursor %d), heap size %d", r, it.BytesRead(), h.SizeBytes())
	}
}

func TestIterCloseFlushesEarlyStop(t *testing.T) {
	p := NewPager()
	h := NewHeap(testSchema(t), p)
	for i := 0; i < 1000; i++ {
		h.Insert(mkRow(int64(i), "hello", 1))
	}
	p.Reset()
	it := h.IterateChunks()
	if pv, ok := it.ReadPage(10); !ok || len(pv.Rows) != 10 { // stop mid-page, as a LIMIT would
		t.Fatalf("ReadPage(10) = %d rows, %v", len(pv.Rows), ok)
	}
	if r, _ := p.Stats(); r != 0 {
		t.Errorf("bytes charged before flush: %d", r)
	}
	it.Close()
	r, _ := p.Stats()
	if r <= 0 || r >= h.SizeBytes() {
		t.Errorf("abandoned scan charged %d of %d", r, h.SizeBytes())
	}
	if it.BytesRead() != r {
		t.Errorf("BytesRead %d != pager %d", it.BytesRead(), r)
	}
	it.Close() // idempotent
	if r2, _ := p.Stats(); r2 != r {
		t.Errorf("double Close recharged: %d -> %d", r, r2)
	}
}

// readIDs drains a cursor that reports row IDs, returning each row it
// delivered with its reported address: a frozen page's rows come from its
// row view.
func readIDs(t *testing.T, it *HeapChunkIter, maxRows int) (ids []RowID, rows []Row) {
	t.Helper()
	it.ReportRowIDs()
	for {
		pv, ok := it.ReadPage(maxRows)
		if !ok {
			return ids, rows
		}
		run := pv.Rows
		if pv.Frozen != nil {
			var err error
			if run, err = pv.Frozen.materializeRows(0, pv.Frozen.NumRows()); err != nil {
				t.Fatal(err)
			}
		}
		if len(pv.IDs) != len(run) {
			t.Fatalf("%d rows (frozen %v) reported %d IDs", len(run), pv.Frozen != nil, len(pv.IDs))
		}
		ids, rows = append(ids, pv.IDs...), append(rows, run...)
	}
}

// TestChunkIterRowIDsMatchScan pins the addresses a cursor reports over a
// mixed heap — frozen pages, a row-form page with holes, a short tail —
// against Scan's: the same live rows, in heap order, at the same IDs, and
// each ID reads back its row through Get.
func TestChunkIterRowIDsMatchScan(t *testing.T) {
	h, _ := freezeTestHeap(t, 4*rowsPerPage+40)
	for _, id := range []RowID{{Page: 1, Slot: 0}, {Page: 1, Slot: 77}, {Page: 4, Slot: 39}} {
		if _, err := h.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	h.SetColumnSegmenter(stripeCol0)
	if got := analyzeFreezes(h); got != 3 {
		t.Fatalf("ANALYZE froze %d, want 3 (page 1 has holes, page 4 is short)", got)
	}
	var wantIDs []RowID
	h.Scan(func(id RowID, _ Row) bool {
		wantIDs = append(wantIDs, id)
		return true
	})
	for _, maxRows := range []int{rowsPerPage, 37} { // 37: runs resume mid-page
		ids, rows := readIDs(t, h.IterateChunks(), maxRows)
		if len(ids) != len(wantIDs) {
			t.Fatalf("maxRows %d: %d IDs, want %d", maxRows, len(ids), len(wantIDs))
		}
		for k, id := range ids {
			if id != wantIDs[k] {
				t.Fatalf("maxRows %d: row %d at %v, Scan has it at %v", maxRows, k, id, wantIDs[k])
			}
			if got, ok := h.Get(id); !ok || got[0].I != rows[k][0].I {
				t.Fatalf("maxRows %d: Get(%v) = %v, %v; the cursor delivered %v", maxRows, id, got, ok, rows[k])
			}
		}
	}
	// A cursor that was not asked reports none.
	it := h.IterateChunks()
	for pv, ok := it.ReadPage(rowsPerPage); ok; pv, ok = it.ReadPage(rowsPerPage) {
		if pv.IDs != nil {
			t.Fatal("a cursor not reporting row IDs returned some")
		}
	}
}
