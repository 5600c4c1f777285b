// Package snapshotpin seeds positive and negative cases for the
// sinew/snapshot-pin check: live-heap scans outside the declaring
// package must pin an immutable snapshot first.
package snapshotpin

import "example.com/lintcheck/snapshotpin/heapdef"

// CountLive scans the mutable heap directly: flagged — a writer can
// republish the page table mid-scan.
func CountLive(h *heapdef.Heap) int {
	n := 0
	h.Scan(func(int, heapdef.Row) bool { // want `snapshot-pin: CountLive calls h\.Scan on a live heap without pinning a snapshot`
		n++
		return true
	})
	return n
}

// FirstLive reads a live row and opens a live chunk cursor without a
// pin: both calls flagged.
func FirstLive(h *heapdef.Heap) (heapdef.Row, int) {
	row, _ := h.Get(0)          // want `snapshot-pin: FirstLive calls h\.Get on a live heap`
	chunks := h.IterateChunks() // want `snapshot-pin: FirstLive calls h\.IterateChunks on a live heap`
	return row, len(chunks)
}

// CountPinned pins the published snapshot and scans that: no finding —
// a snapshot's page table never changes after Publish.
func CountPinned(h *heapdef.Heap) int {
	snap := h.CurrentSnapshot()
	n := 0
	snap.Scan(func(int, heapdef.Row) bool {
		n++
		return true
	})
	return n
}

// LockedFixup models a DML pipeline that owns the table write lock: the
// live scan is deliberate and documents itself in place. Suppressed, so
// no finding.
func LockedFixup(h *heapdef.Heap) int {
	n := 0
	//lint:ignore sinew/snapshot-pin DML holds the table write lock and must observe the live heap it is about to mutate
	h.Scan(func(int, heapdef.Row) bool {
		n++
		return true
	})
	return n
}
