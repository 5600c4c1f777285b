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
	// Deleted rows must be skipped, like HeapIter.
	h.Delete(RowID{Page: 1, Slot: 5})
	h.Delete(RowID{Page: 2, Slot: 0})

	var got []int64
	it := h.IterateChunks()
	buf := make([]Row, 37) // deliberately not a divisor of the page size
	for {
		n := it.ReadRows(buf)
		if n == 0 {
			break
		}
		for _, r := range buf[:n] {
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
	buf := make([]Row, 64)
	for it.ReadRows(buf) > 0 {
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
	it := h.Iterate()
	for i := 0; i < 10; i++ { // stop mid-page, as a LIMIT would
		it.Next()
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
