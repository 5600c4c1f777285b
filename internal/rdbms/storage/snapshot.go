package storage

import (
	"fmt"
	"maps"
	"sync/atomic"
)

// This file adds epoch-based snapshot reads on top of the row heap — the
// storage half of the sinewd concurrency story (DESIGN.md §10). A writer
// mutates the heap privately under the rdbms layer's per-table write lock
// and, at statement end, publishes an immutable HeapSnapshot: a copy of
// the page-pointer table plus the counters and schema pointer of that
// moment, stamped with a per-heap epoch. Readers pin the latest snapshot
// with one atomic load and scan it without any lock; pages referenced by
// a published snapshot are marked shared, and every later mutation goes
// through a copy-on-write helper that installs a fresh page struct in the
// writer's table instead of touching the shared one. Reclamation is the
// garbage collector's: when the last reader drops its pin and the heap has
// republished, nothing references the old page version and it is freed.
//
// Invariants (enforced by writablePage/writableRowPage/writableTailPage,
// checked by the snapshot stress and differential tests, and linted by
// sinew/snapshot-pin):
//
//  1. No field of a shared page is ever written; mutators clone first.
//  2. FrozenPage internals are safe to share: they are immutable apart
//     from internally synchronized lazy caches.
//  3. A published snapshot's schema pointer is never mutated; ALTER swaps
//     in a cloned schema (AlterAddColumn/AlterDropColumn).
//  4. The catalog epoch is bumped before the post-DDL snapshot publishes,
//     so a cached plan that pins a post-ALTER snapshot always fails its
//     epoch re-check and replans.

// ReadView is a readable view of one table's storage: either the live
// *Heap (single-writer paths that hold the table lock) or an immutable
// *HeapSnapshot pinned by a reader. The executor's scan constructors take
// a ReadView so one statement scans a single frozen version end to end.
type ReadView interface {
	Schema() *Schema
	NumRows() int64
	SizeBytes() int64
	Segmented() bool
	IterateChunks() *HeapChunkIter
	// Epoch is the heap's publish counter at the view's creation (the live
	// heap reports its current epoch).
	Epoch() uint64
	// Owner returns the heap the view reads — the identity scan nodes and
	// stat sinks key on.
	Owner() *Heap
}

// HeapSnapshot is one published version of a heap: an immutable page table
// plus the row/byte/frozen counters and schema of the publishing moment.
// It is safe for any number of concurrent readers and holds no locks.
type HeapSnapshot struct {
	owner    *Heap
	schema   *Schema
	pages    []*page
	nrows    int64
	bytes    int64
	frozen   int
	segBytes int64
	epoch    uint64
	pager    *Pager
}

// Publish freezes the heap's current state into a new snapshot and makes
// it the target of subsequent reader pins. The caller must hold the
// table's write lock (or otherwise be the only mutator). Cost is one
// page-pointer copy — O(pages), no row copying.
func (h *Heap) Publish() uint64 {
	pages := make([]*page, len(h.pages))
	copy(pages, h.pages)
	for _, p := range pages {
		p.shared = true
	}
	h.epoch++
	h.snap.Store(&HeapSnapshot{
		owner:    h,
		schema:   h.schema,
		pages:    pages,
		nrows:    h.nrows,
		bytes:    h.bytes,
		frozen:   h.frozen,
		segBytes: h.segBytes,
		epoch:    h.epoch,
		pager:    h.pager,
	})
	if h.pager != nil {
		h.pager.recordSnapshotPublish()
	}
	return h.epoch
}

// CurrentSnapshot returns the latest published snapshot without pinning
// it (monitoring and read-only accessor paths). Never nil: NewHeap
// publishes the empty state.
func (h *Heap) CurrentSnapshot() *HeapSnapshot { return h.snap.Load() }

// AcquireSnapshot pins the latest snapshot for a statement: the pin is a
// pager gauge (snapshots_open) released by HeapSnapshot.Release. The
// snapshot itself stays valid after release — pinning exists for
// observability, not lifetime (the GC reclaims unreferenced versions).
func (h *Heap) AcquireSnapshot() *HeapSnapshot {
	s := h.snap.Load()
	if s != nil && s.pager != nil {
		s.pager.recordSnapshotPin(1)
	}
	return s
}

// Release drops a pin taken by AcquireSnapshot. Each acquire must be
// released exactly once.
func (s *HeapSnapshot) Release() {
	if s != nil && s.pager != nil {
		s.pager.recordSnapshotPin(-1)
	}
}

// Epoch returns the publish counter stamped on the snapshot.
func (s *HeapSnapshot) Epoch() uint64 { return s.epoch }

// Owner returns the heap this snapshot was published from.
func (s *HeapSnapshot) Owner() *Heap { return s.owner }

// Schema returns the schema the snapshot was published under.
func (s *HeapSnapshot) Schema() *Schema { return s.schema }

// NumRows returns the live row count at publish time.
func (s *HeapSnapshot) NumRows() int64 { return s.nrows }

// SizeBytes returns the estimated table size at publish time.
func (s *HeapSnapshot) SizeBytes() int64 { return s.bytes }

// NumFrozenPages returns the frozen-page count at publish time.
func (s *HeapSnapshot) NumFrozenPages() int { return s.frozen }

// SegmentBytes returns the bytes of the frozen pages' segments at publish
// time: memory beside the row bytes SizeBytes counts, not part of them.
func (s *HeapSnapshot) SegmentBytes() int64 { return s.segBytes }

// Segmented reports whether any page of the snapshot is frozen.
func (s *HeapSnapshot) Segmented() bool { return s.frozen > 0 }

// IterateChunks returns a chunk cursor over every page of the snapshot.
func (s *HeapSnapshot) IterateChunks() *HeapChunkIter {
	return &HeapChunkIter{pages: s.pages, pager: s.pager}
}

// Scan iterates all live rows of the snapshot in heap order; it stops at
// a frozen page that fails to decode and returns that error.
func (s *HeapSnapshot) Scan(fn func(id RowID, row Row) bool) error {
	return scanPages(s.pages, s.pager, fn)
}

// Get fetches a single row by ID from the snapshot.
func (s *HeapSnapshot) Get(id RowID) (Row, bool, error) {
	return getPageRow(s.pages, s.schema, s.pager, id)
}

// Epoch returns the heap's current publish counter (callers must hold the
// table lock or otherwise not race with Publish).
func (h *Heap) Epoch() uint64 { return h.epoch }

// Owner returns h itself (the live heap is its own view).
func (h *Heap) Owner() *Heap { return h }

// snapPtr wraps the atomic snapshot pointer so the Heap struct literal
// stays copy-free in NewHeap.
type snapPtr = atomic.Pointer[HeapSnapshot]

// ---------- copy-on-write helpers (writer side, under the table lock) ----------

// recordCoW counts one page version split caused by a write to a shared
// page (the pages_cow counter).
func (h *Heap) recordCoW() {
	if h.pager != nil {
		h.pager.recordPageCoW(1)
	}
}

// writableTailPage returns the last page ready for appends, cloning it
// when a published snapshot shares it. The caller guarantees the tail
// page is row-form. The clone keeps an equivalent skip summary (cloned,
// never shared: Insert mutates it incrementally).
func (h *Heap) writableTailPage() *page {
	pi := len(h.pages) - 1
	p := h.pages[pi]
	if !p.shared {
		return p
	}
	np := &page{
		rows:  append(make([]Row, 0, rowsPerPage), p.rows...),
		bytes: p.bytes,
		sum:   p.sum.clone(),
	}
	h.pages[pi] = np
	h.recordCoW()
	return np
}

// writableRowPage returns page pi in mutable row form: frozen pages are
// un-frozen into a fresh page struct over rows built for it alone, and
// shared row-form pages are cloned. Mutators may then write rows[i],
// bytes and sum freely.
func (h *Heap) writableRowPage(pi int) (*page, error) {
	p := h.pages[pi]
	if p.frozen == nil && !p.shared {
		return p, nil
	}
	np := &page{bytes: p.bytes}
	if p.frozen != nil {
		rows, err := p.frozen.materializeRows(0, p.frozen.n)
		if err != nil {
			return nil, err
		}
		np.rows = rows
		h.frozen--
		h.segBytes -= p.frozen.segBytes
		if h.pager != nil {
			h.pager.recordSegUnfrozen(1)
		}
	} else {
		np.rows = append(make([]Row, 0, max(rowsPerPage, len(p.rows))), p.rows...)
	}
	if p.shared {
		h.recordCoW()
	}
	h.pages[pi] = np
	return np, nil
}

// writableMetaPage returns page pi ready for metadata writes (summary
// swaps): shared pages are cloned preserving their form. The clone's sum
// still aliases the shared page's summary, so callers must replace it
// wholesale (assign a fresh or nil summary), never mutate it in place.
func (h *Heap) writableMetaPage(pi int) *page {
	p := h.pages[pi]
	if !p.shared {
		return p
	}
	np := &page{bytes: p.bytes, frozen: p.frozen, sum: p.sum}
	if p.frozen == nil {
		np.rows = append(make([]Row, 0, max(rowsPerPage, len(p.rows))), p.rows...)
	}
	h.pages[pi] = np
	h.recordCoW()
	return np
}

// AlterAddColumn appends columns to the schema copy-on-write: published
// snapshots keep the old schema pointer while the live heap switches to a
// clone with the columns added — all of them or, on a name clash, none.
// Callers follow up with AddColumnData.
func (h *Heap) AlterAddColumn(cols ...Column) error {
	ns := h.schema.Clone()
	for _, c := range cols {
		if err := ns.AddColumn(c); err != nil {
			return err
		}
	}
	h.schema = ns
	return nil
}

// AlterDropColumn removes a column from a schema clone (see
// AlterAddColumn) and returns the dropped index for DropColumnData.
func (h *Heap) AlterDropColumn(name string) (int, error) {
	idx := h.schema.ColumnIndex(name)
	if idx < 0 {
		return -1, fmt.Errorf("storage: column %q does not exist", name)
	}
	ns := h.schema.Clone()
	if err := ns.DropColumn(name); err != nil {
		return -1, err
	}
	h.schema = ns
	return idx, nil
}

// clone deep-copies a page summary so a CoW page can keep (and later
// mutate) skip metadata without touching the version shared with
// snapshot readers. nil and invalid summaries clone to nil.
func (s *PageSummary) clone() *PageSummary {
	if !s.usable() {
		return nil
	}
	out := &PageSummary{
		valid:  true,
		attrs:  make(map[int][]uint32, len(s.attrs)),
		ranges: make(map[int]*colRange, len(s.ranges)),
	}
	for col, ids := range s.attrs {
		out.attrs[col] = append([]uint32(nil), ids...)
	}
	for col, r := range s.ranges {
		cr := *r
		out.ranges[col] = &cr
	}
	// The zone-mapped segments are immutable: share them.
	out.zones = maps.Clone(s.zones)
	return out
}
