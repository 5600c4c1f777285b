// Package heapdef declares a stand-in live heap and its immutable
// snapshot for the sinew/snapshot-pin corpus. Scan calls inside this
// package model the storage internals and are exempt: raw page-table
// access is the declaring package's job.
package heapdef

// Row is one stored tuple.
type Row []int64

// HeapSnapshot is an immutable copy of the heap's page table; scanning
// it is always safe, so its methods are never flagged.
type HeapSnapshot struct {
	rows []Row
}

// Scan visits every row of the frozen page table.
func (s *HeapSnapshot) Scan(fn func(i int, r Row) bool) {
	for i, r := range s.rows {
		if !fn(i, r) {
			return
		}
	}
}

// Get returns row i of the snapshot.
func (s *HeapSnapshot) Get(i int) (Row, bool) {
	if i < 0 || i >= len(s.rows) {
		return nil, false
	}
	return s.rows[i], true
}

// Heap is the mutable table store. Its scan-entry methods read the live
// page table, which writers republish in place.
type Heap struct {
	rows []Row
	snap *HeapSnapshot
}

// Scan visits live rows.
func (h *Heap) Scan(fn func(i int, r Row) bool) {
	for i, r := range h.rows {
		if !fn(i, r) {
			return
		}
	}
}

// Get reads a live row.
func (h *Heap) Get(i int) (Row, bool) {
	if i < 0 || i >= len(h.rows) {
		return nil, false
	}
	return h.rows[i], true
}

// IterateChunks captures the live page table for a bulk read.
func (h *Heap) IterateChunks() []Row { return h.rows }

// CurrentSnapshot returns the last published immutable view.
func (h *Heap) CurrentSnapshot() *HeapSnapshot { return h.snap }

// Publish freezes the current rows as the new snapshot.
func (h *Heap) Publish() {
	rows := make([]Row, len(h.rows))
	copy(rows, h.rows)
	h.snap = &HeapSnapshot{rows: rows}
}

// NumLive counts rows through the live scan path: a same-package call,
// so no finding — the storage layer is the implementation being wrapped.
func (h *Heap) NumLive() int {
	n := 0
	h.Scan(func(int, Row) bool { n++; return true })
	return n
}
