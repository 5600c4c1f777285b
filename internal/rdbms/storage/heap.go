// Package storage implements the physical layer of the embedded RDBMS:
// heap tables organized into pages, a byte-accounting pager that models I/O,
// and per-column statistics for the optimizer.
//
// The heap is a row store in the style of Postgres: each row carries a small
// header plus a null bitmap (one bit per schema attribute), so NULLs in wide
// sparse schemas cost one bit, not a column width — the property §3.1.1 of
// the Sinew paper relies on when choosing Postgres as the substrate.
package storage

import (
	"fmt"
	"slices"
	"sync"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Column describes one attribute of a table schema.
type Column struct {
	Name    string
	Typ     types.Type
	NotNull bool
}

// Schema is an ordered set of columns with name lookup.
type Schema struct {
	Cols   []Column
	byName map[string]int
}

// NewSchema builds a schema; duplicate column names are an error.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range s.Cols {
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: duplicate column %q", c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// ColumnIndex returns the position of name, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// AddColumn appends a column (ALTER TABLE ... ADD COLUMN).
func (s *Schema) AddColumn(c Column) error {
	if _, dup := s.byName[c.Name]; dup {
		return fmt.Errorf("storage: column %q already exists", c.Name)
	}
	s.byName[c.Name] = len(s.Cols)
	s.Cols = append(s.Cols, c)
	return nil
}

// DropColumn removes a column from the schema (ALTER TABLE ... DROP).
func (s *Schema) DropColumn(name string) error {
	i, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("storage: column %q does not exist", name)
	}
	s.Cols = append(s.Cols[:i], s.Cols[i+1:]...)
	delete(s.byName, name)
	for j := i; j < len(s.Cols); j++ {
		s.byName[s.Cols[j].Name] = j
	}
	return nil
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c, _ := NewSchema(s.Cols...)
	return c
}

// Row is one tuple; len(Row) always equals len(Schema.Cols) of its table.
type Row []types.Datum

// Clone deep-copies the row (datum payloads that alias memory — bytes,
// arrays — are shared; callers treat datums as immutable).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// rowsPerPage is the heap page grouping factor. Pages are the unit of I/O
// accounting; the value trades accounting granularity against bookkeeping.
const rowsPerPage = 128

// rowHeaderBytes models the fixed per-tuple header (Postgres: 23 bytes +
// alignment). The null bitmap is added per schema width.
const rowHeaderBytes = 24

// page groups rows for I/O accounting.
type page struct {
	rows  []Row
	bytes int64 // estimated on-disk footprint of live rows
	// sum is the page's skip summary (pageskip.go); nil when stale.
	sum *PageSummary
	// frozen is the page's column-striped form (segment.go); while set,
	// rows is nil and row-path readers materialize lazily from it.
	frozen *FrozenPage
	// shared marks the page as referenced by a published snapshot
	// (snapshot.go). Once set, no other field may be written: mutators go
	// through the writable*Page helpers, which install a fresh page struct
	// in the live table instead. Only the publisher writes this flag (under
	// the table write lock) and only mutators read it; snapshot readers
	// never touch it.
	shared bool
}

// Heap is a mutable row store for one table.
//
// Concurrency: Heap mutators are not internally synchronized; the rdbms
// layer serializes writers with its table locks. Readers do not need any
// lock: they pin an immutable HeapSnapshot (snapshot.go) published by the
// last committed statement. The pager it reports to is safe for
// concurrent use.
type Heap struct {
	schema *Schema
	pages  []*page
	nrows  int64
	bytes  int64
	pager  *Pager
	// summarizers holds each column's attribute summarizer for per-page
	// skip summaries (pageskip.go), nil for a column without one.
	summarizers []AttrSummarizer
	// segmenter stripes cold pages into column segments (segment.go);
	// frozen counts the pages currently in striped form, and segBytes the
	// bytes of their segments.
	segmenter ColumnSegmenter
	frozen    int
	segBytes  int64
	// epoch counts publishes; snap holds the latest published snapshot
	// (snapshot.go).
	epoch uint64
	snap  snapPtr
}

// NewHeap creates an empty heap over schema, reporting I/O to pager
// (which may be nil for untracked scratch tables). The empty state is
// published so CurrentSnapshot is never nil.
func NewHeap(schema *Schema, pager *Pager) *Heap {
	h := &Heap{schema: schema, pager: pager}
	h.Publish()
	return h
}

// Schema returns the heap's schema (shared, not a copy).
func (h *Heap) Schema() *Schema { return h.schema }

// NumRows returns the live row count.
func (h *Heap) NumRows() int64 { return h.nrows }

// SizeBytes returns the estimated on-disk size of the table.
func (h *Heap) SizeBytes() int64 { return h.bytes }

// rowFootprint estimates the stored size of row under the current schema:
// header + null bitmap + non-null datum payloads.
func (h *Heap) rowFootprint(row Row) int64 {
	return rowFootprintIn(h.schema, row)
}

func rowFootprintIn(schema *Schema, row Row) int64 {
	n := int64(rowHeaderBytes) + int64((len(schema.Cols)+7)/8)
	for _, d := range row {
		n += d.SizeBytes()
	}
	return n
}

// Insert appends a row. The row must match the schema width; NOT NULL
// constraints are enforced here.
func (h *Heap) Insert(row Row) error {
	if len(row) != len(h.schema.Cols) {
		return fmt.Errorf("storage: row width %d does not match schema width %d", len(row), len(h.schema.Cols))
	}
	for i, c := range h.schema.Cols {
		if c.NotNull && row[i].IsNull() {
			return fmt.Errorf("storage: null value in column %q violates not-null constraint", c.Name)
		}
	}
	var p *page
	if n := len(h.pages); n > 0 && h.pages[n-1].frozen == nil && len(h.pages[n-1].rows) < rowsPerPage {
		p = h.writableTailPage()
	} else {
		p = &page{rows: make([]Row, 0, rowsPerPage), sum: newPageSummary()}
		h.pages = append(h.pages, p)
	}
	fp := h.rowFootprint(row)
	p.rows = append(p.rows, row)
	p.bytes += fp
	if p.sum != nil {
		h.noteRow(p.sum, row)
		if !p.sum.valid {
			p.sum = nil
		}
	}
	h.nrows++
	h.bytes += fp
	if h.pager != nil {
		h.pager.recordWrite(fp)
	}
	return nil
}

// LastRowID returns the address of the most recently inserted row; it is
// only meaningful immediately after Insert on a non-empty heap.
func (h *Heap) LastRowID() RowID {
	p := len(h.pages) - 1
	if p < 0 {
		return RowID{Page: -1, Slot: -1}
	}
	return RowID{Page: p, Slot: len(h.pages[p].rows) - 1}
}

// RowID addresses a row stably across updates (not deletes).
type RowID struct {
	Page int
	Slot int
}

// Scan iterates all live rows in heap order, charging page reads to the
// pager. fn may not retain the row slice across calls unless it clones.
// Returning false from fn stops the scan early (remaining pages unread).
// A frozen page that fails to decode stops the scan with its error.
func (h *Heap) Scan(fn func(id RowID, row Row) bool) error {
	return scanPages(h.pages, h.pager, fn)
}

// scanPages is Scan over an explicit page table (shared by the live heap
// and snapshots).
func scanPages(pages []*page, pager *Pager, fn func(id RowID, row Row) bool) error {
	for pi, p := range pages {
		if pager != nil {
			pager.recordRead(p.bytes)
		}
		rows := p.rows
		if p.frozen != nil {
			var err error
			if rows, err = p.frozen.materializeRows(0, p.frozen.n); err != nil {
				return err
			}
		}
		for si, r := range rows {
			if r == nil {
				continue // deleted
			}
			if !fn(RowID{Page: pi, Slot: si}, r) {
				return nil
			}
		}
	}
	return nil
}

// NumPages returns the current page count.
func (h *Heap) NumPages() int { return len(h.pages) }

// HeapChunkIter reads live rows of a page table in bulk — the one cursor
// every statement reads a table through (the batch scan's feeder). Page
// reads accumulate locally and are flushed to the pager in one batch at
// the end of the pages or on Close — callers that may stop early (LIMIT)
// must Close the cursor or the bytes it touched are never recorded — and
// it tracks the bytes it charged.
type HeapChunkIter struct {
	pages   []*page
	pager   *Pager
	page    int
	slot    int
	pending int64
	read    int64
	// skip, when set, is consulted at each page boundary: returning true
	// for a page with a usable summary skips the whole page, charging no
	// read bytes (that is the I/O win page summaries buy).
	skip           func(*PageSummary) bool
	pendingSkipped int64 // pages skipped but not yet reported to the pager
	// frozen pages delivered striped via ReadPage, pending pager report.
	pendingSegScanned int64
	// rowBuf holds the row-form run ReadPage last returned; idBuf, when
	// the cursor reports row IDs, the addresses of what it returned.
	rowBuf []Row
	ids    bool
	idBuf  []RowID
}

// SetSkip installs a page-skip predicate; must be called before the first
// ReadPage. The predicate must return true only when the page summary
// proves no live row of the page can reach the scan's result: none
// satisfies its filter, or each ranks behind a Top-N's bound (TopNSkip).
func (it *HeapChunkIter) SetSkip(f func(*PageSummary) bool) { it.skip = f }

// ReportRowIDs makes ReadPage return the address of each row it returns
// (PageView.IDs); must be called before the first ReadPage. A write's
// scan asks for them, a read's does not.
func (it *HeapChunkIter) ReportRowIDs() { it.ids = true }

// IterateChunks returns a chunk cursor over every page of the heap. The
// cursor captures the page table at creation, so a cursor made from a
// snapshot never observes later writes.
func (h *Heap) IterateChunks() *HeapChunkIter {
	return &HeapChunkIter{pages: h.pages, pager: h.pager}
}

func (it *HeapChunkIter) flush() {
	if it.pendingSkipped > 0 {
		if it.pager != nil {
			it.pager.recordPagesSkipped(it.pendingSkipped)
		}
		it.pendingSkipped = 0
	}
	if it.pendingSegScanned > 0 {
		if it.pager != nil {
			it.pager.recordSegScanned(it.pendingSegScanned)
		}
		it.pendingSegScanned = 0
	}
	if it.pending == 0 {
		return
	}
	if it.pager != nil {
		it.pager.recordRead(it.pending)
	}
	it.read += it.pending
	it.pending = 0
}

// Close finalizes pager accounting for an abandoned scan; idempotent.
func (it *HeapChunkIter) Close() { it.flush() }

// BytesRead reports the bytes this cursor has charged so far.
func (it *HeapChunkIter) BytesRead() int64 { return it.read }

// Get fetches a single row by ID, charging only that row's bytes (a point
// read, as through an index). A frozen page that fails to decode the row
// returns the error, not "no such row".
func (h *Heap) Get(id RowID) (Row, bool, error) {
	return getPageRow(h.pages, h.schema, h.pager, id)
}

func getPageRow(pages []*page, schema *Schema, pager *Pager, id RowID) (Row, bool, error) {
	if id.Page < 0 || id.Page >= len(pages) {
		return nil, false, nil
	}
	var r Row
	if p := pages[id.Page]; p.frozen != nil && id.Slot >= 0 && id.Slot < p.frozen.n {
		rows, err := p.frozen.materializeRows(id.Slot, id.Slot+1)
		if err != nil {
			return nil, false, err
		}
		r = rows[0]
	} else if p.frozen == nil && id.Slot >= 0 && id.Slot < len(p.rows) {
		r = p.rows[id.Slot]
	}
	if r == nil {
		return nil, false, nil
	}
	if pager != nil {
		pager.recordRead(rowFootprintIn(schema, r))
	}
	return r, true, nil
}

// Update atomically replaces the row at id. It returns the previous row for
// undo logging.
func (h *Heap) Update(id RowID, row Row) (Row, error) {
	if len(row) != len(h.schema.Cols) {
		return nil, fmt.Errorf("storage: row width %d does not match schema width %d", len(row), len(h.schema.Cols))
	}
	p, old, err := h.slot(id)
	if err != nil {
		return nil, err
	}
	oldFP, newFP := h.rowFootprint(old), h.rowFootprint(row)
	p.rows[id.Slot] = row
	p.bytes += newFP - oldFP
	p.sum = nil // attr set / extrema may have shrunk; rebuilt by ANALYZE
	h.bytes += newFP - oldFP
	if h.pager != nil {
		h.pager.recordWrite(newFP)
	}
	return old, nil
}

// Delete removes the row at id, returning it for undo logging.
func (h *Heap) Delete(id RowID) (Row, error) {
	p, old, err := h.slot(id)
	if err != nil {
		return nil, err
	}
	fp := h.rowFootprint(old)
	p.rows[id.Slot] = nil
	p.bytes -= fp
	p.sum = nil
	h.bytes -= fp
	h.nrows--
	if h.pager != nil {
		h.pager.recordWrite(int64(rowHeaderBytes))
	}
	return old, nil
}

// Restore reinstates a previously deleted row at id (undo of Delete).
func (h *Heap) Restore(id RowID, row Row) error {
	if id.Page < 0 || id.Page >= len(h.pages) {
		return fmt.Errorf("storage: restore: bad page %d", id.Page)
	}
	p, err := h.writableRowPage(id.Page)
	if err != nil {
		return err
	}
	if id.Slot < 0 || id.Slot >= len(p.rows) {
		return fmt.Errorf("storage: restore: bad slot %d", id.Slot)
	}
	if p.rows[id.Slot] != nil {
		return fmt.Errorf("storage: restore: slot %d.%d is occupied", id.Page, id.Slot)
	}
	fp := h.rowFootprint(row)
	p.rows[id.Slot] = row
	p.bytes += fp
	h.bytes += fp
	h.nrows++
	p.sum = nil
	return nil
}

// slot resolves a row for mutation. The page comes back in mutable row
// form: frozen pages un-freeze and snapshot-shared pages are cloned
// first, so writers never touch storage a concurrent reader sees.
func (h *Heap) slot(id RowID) (*page, Row, error) {
	if id.Page < 0 || id.Page >= len(h.pages) {
		return nil, nil, fmt.Errorf("storage: bad page %d", id.Page)
	}
	p, err := h.writableRowPage(id.Page)
	if err != nil {
		return nil, nil, err
	}
	if id.Slot < 0 || id.Slot >= len(p.rows) || p.rows[id.Slot] == nil {
		return nil, nil, fmt.Errorf("storage: no live row at %d.%d", id.Page, id.Slot)
	}
	return p, p.rows[id.Slot], nil
}

// AddColumnData extends every row with a NULL for each of the n columns
// just added to the schema and adjusts footprints (the null bitmap may
// grow). The rewrite is copy-on-write end to end: every page is rebuilt
// from fresh row slices (frozen pages build theirs, read-only), so
// snapshot readers pinned to the pre-ALTER epoch keep seeing the old
// shape. Column indices do not shift, so skip summaries carry over
// (cloned — the tail page's summary is mutated by later inserts).
func (h *Heap) AddColumnData(n int) error {
	rowsByPage, unfroze, err := h.materializeAllRows()
	if err != nil {
		return err
	}
	for pi, rows := range rowsByPage {
		old := h.pages[pi]
		np := &page{rows: make([]Row, len(rows), max(rowsPerPage, len(rows))), sum: old.sum.clone()}
		for i, r := range rows {
			if r == nil {
				continue
			}
			nr := make(Row, len(r)+n)
			copy(nr, r)
			for j := len(r); j < len(nr); j++ {
				nr[j] = types.NewNull(types.Unknown)
			}
			np.rows[i] = nr
			np.bytes += h.rowFootprint(nr)
		}
		if np.sum != nil {
			// The new columns are NULL on every row already here, which a
			// range built from later inserts must not claim to cover.
			for j := len(h.schema.Cols) - n; j < len(h.schema.Cols); j++ {
				np.sum.noteNulls(j)
			}
		}
		h.pages[pi] = np
	}
	h.finishRewrite(unfroze)
	return nil
}

// RewritePage replaces the live rows of page pi with what fn returns for
// them, all at once: fn sees each live row in slot order and returns its
// replacement, or nil to keep it. The rows it is shown are shared with
// snapshot readers and must not be modified. Nothing changes unless fn
// succeeds on every row; then the page is installed as one fresh row-form
// version (a frozen page un-freezes, a snapshot-shared one is left to its
// readers), so a concurrent reader sees the page wholly before or wholly
// after. It reports whether any row changed.
func (h *Heap) RewritePage(pi int, fn func(Row) (Row, error)) (bool, error) {
	if pi < 0 || pi >= len(h.pages) {
		return false, fmt.Errorf("storage: bad page %d", pi)
	}
	p := h.pages[pi]
	old := p.rows
	if p.frozen != nil {
		var err error
		if old, err = p.frozen.materializeRows(0, p.frozen.n); err != nil {
			return false, err
		}
	}
	var rows []Row
	var delta, written int64
	for i, r := range old {
		if r == nil {
			continue
		}
		nr, err := fn(r)
		if err != nil {
			return false, err
		}
		if nr == nil {
			continue
		}
		if len(nr) != len(h.schema.Cols) {
			return false, fmt.Errorf("storage: row width %d does not match schema width %d", len(nr), len(h.schema.Cols))
		}
		if rows == nil {
			rows = append(make([]Row, 0, max(rowsPerPage, len(old))), old...)
		}
		rows[i] = nr
		fp := h.rowFootprint(nr)
		delta += fp - h.rowFootprint(r)
		written += fp
	}
	if rows == nil {
		return false, nil
	}
	// The summary goes as on Update: attribute sets and extrema may have
	// shrunk; ANALYZE rebuilds it.
	h.pages[pi] = &page{rows: rows, bytes: p.bytes + delta}
	h.bytes += delta
	if p.frozen != nil {
		h.frozen--
		h.segBytes -= p.frozen.segBytes
	}
	if p.shared {
		h.recordCoW()
	}
	if h.pager != nil {
		if p.frozen != nil {
			h.pager.recordSegUnfrozen(1)
		}
		h.pager.recordWrite(written)
	}
	return true, nil
}

// DropColumnData removes column idx from every row, rebuilding every page
// copy-on-write (see AddColumnData). Summaries are dropped: column
// indices shift, so summaries keyed by index are stale.
func (h *Heap) DropColumnData(idx int) error {
	rowsByPage, unfroze, err := h.materializeAllRows()
	if err != nil {
		return err
	}
	for pi, rows := range rowsByPage {
		np := &page{rows: make([]Row, len(rows), max(rowsPerPage, len(rows)))}
		for i, r := range rows {
			if r == nil {
				continue
			}
			nr := make(Row, 0, len(r)-1)
			nr = append(nr, r[:idx]...)
			nr = append(nr, r[idx+1:]...)
			np.rows[i] = nr
			np.bytes += h.rowFootprint(nr)
		}
		h.pages[pi] = np
	}
	if idx < len(h.summarizers) {
		h.summarizers = slices.Delete(h.summarizers, idx, idx+1)
	}
	h.finishRewrite(unfroze)
	return nil
}

// materializeAllRows returns every page's row-form view without mutating
// any page (phase 1 of a schema rewrite: errors surface before the heap
// changes shape). unfroze counts the frozen pages the rewrite will retire.
func (h *Heap) materializeAllRows() (rowsByPage [][]Row, unfroze int, err error) {
	rowsByPage = make([][]Row, len(h.pages))
	for i, p := range h.pages {
		if p.frozen != nil {
			rows, err := p.frozen.materializeRows(0, p.frozen.n)
			if err != nil {
				return nil, 0, err
			}
			rowsByPage[i] = rows
			unfroze++
			continue
		}
		rowsByPage[i] = p.rows
	}
	return rowsByPage, unfroze, nil
}

// finishRewrite settles counters after a whole-heap page rewrite: all
// pages are row-form again and byte totals are recomputed.
func (h *Heap) finishRewrite(unfroze int) {
	h.frozen, h.segBytes = 0, 0
	if unfroze > 0 && h.pager != nil {
		h.pager.recordSegUnfrozen(int64(unfroze))
	}
	h.recomputeBytes()
}

func (h *Heap) recomputeBytes() {
	h.bytes = 0
	for _, p := range h.pages {
		h.bytes += p.bytes
	}
}

// Truncate discards all rows.
func (h *Heap) Truncate() {
	h.pages = nil
	h.nrows = 0
	h.bytes = 0
	h.frozen, h.segBytes = 0, 0
}

// Pager models storage I/O by counting bytes read and written. The harness
// converts byte counts into an effective scan time under a configured
// bandwidth (DESIGN.md §2): engines whose per-tuple CPU cost is low become
// bandwidth-bound exactly as Sinew does on the paper's 40 GB dataset.
type Pager struct {
	mu           sync.Mutex
	bytesRead    int64
	bytesWritten int64
	// Execution counters (per-query when callers Reset between queries):
	// whole pages eliminated by skip summaries.
	pagesSkipped int64
	// Segment counters: frozen pages scanned striped, and frozen pages
	// un-frozen back to rows by writes.
	segScanned  int64
	segUnfrozen int64
	// Selection-vector execution counters: frozen pages eliminated by
	// segment zone maps and selection-carrying batches emitted by striped
	// scans.
	zoneSkipped int64
	selBatches  int64
	// Order-sensitive operator counters: input batches accumulated by batch
	// sorts and rows discarded on arrival by bounded Top-N heaps.
	sortBatches       int64
	topnShortCircuits int64
	// Snapshot counters (snapshot.go): snapshotsOpen is a gauge of reader
	// pins currently held, snapshotPublishes counts published versions
	// (the global snapshot_epoch), and pagesCoW counts page version splits
	// caused by writes to snapshot-shared pages.
	snapshotsOpen     int64
	snapshotPublishes int64
	pagesCoW          int64
}

// NewPager returns a zeroed pager.
func NewPager() *Pager { return &Pager{} }

func (p *Pager) recordRead(n int64) {
	p.mu.Lock()
	p.bytesRead += n
	p.mu.Unlock()
}

func (p *Pager) recordWrite(n int64) {
	p.mu.Lock()
	p.bytesWritten += n
	p.mu.Unlock()
}

func (p *Pager) recordPagesSkipped(n int64) {
	p.mu.Lock()
	p.pagesSkipped += n
	p.mu.Unlock()
}

func (p *Pager) recordSegScanned(n int64) {
	p.mu.Lock()
	p.segScanned += n
	p.mu.Unlock()
}

func (p *Pager) recordSegUnfrozen(n int64) {
	p.mu.Lock()
	p.segUnfrozen += n
	p.mu.Unlock()
}

func (p *Pager) recordZoneSkipped(n int64) {
	p.mu.Lock()
	p.zoneSkipped += n
	p.mu.Unlock()
}

func (p *Pager) recordSelBatches(n int64) {
	p.mu.Lock()
	p.selBatches += n
	p.mu.Unlock()
}

func (p *Pager) recordSortBatches(n int64) {
	p.mu.Lock()
	p.sortBatches += n
	p.mu.Unlock()
}

func (p *Pager) recordTopNShortCircuits(n int64) {
	p.mu.Lock()
	p.topnShortCircuits += n
	p.mu.Unlock()
}

func (p *Pager) recordSnapshotPin(delta int64) {
	p.mu.Lock()
	p.snapshotsOpen += delta
	p.mu.Unlock()
}

func (p *Pager) recordSnapshotPublish() {
	p.mu.Lock()
	p.snapshotPublishes++
	p.mu.Unlock()
}

func (p *Pager) recordPageCoW(n int64) {
	p.mu.Lock()
	p.pagesCoW += n
	p.mu.Unlock()
}

// SnapshotStats returns the snapshot counters: reader pins currently open
// (a gauge), snapshots published since the database opened (the global
// snapshot epoch), and page version splits caused by copy-on-write.
// Unlike the per-query counters these survive Reset: the gauge tracks
// outstanding pins and the epoch is monotonic by design.
func (p *Pager) SnapshotStats() (open, epoch, pagesCoW int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotsOpen, p.snapshotPublishes, p.pagesCoW
}

// SortStats returns the order-sensitive operator counters: batches
// accumulated by batch sorts and rows discarded on arrival by bounded
// Top-N heaps since the last Reset. The third result is always 0; it is
// kept so callers that read three results still compile.
func (p *Pager) SortStats() (sortBatches, topnShortCircuits, _ int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sortBatches, p.topnShortCircuits, 0
}

// SelStats returns the selection-vector execution counters: frozen pages
// eliminated by segment zone maps and selection-carrying batches emitted by
// striped scans since the last Reset. The third result is always 0, kept
// like SortStats'.
func (p *Pager) SelStats() (zoneSkipped, selBatches, _ int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.zoneSkipped, p.selBatches, 0
}

// SegStats returns the segment execution counters: frozen pages scanned
// striped and frozen pages un-frozen by writes since the last Reset.
func (p *Pager) SegStats() (segScanned, segUnfrozen int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.segScanned, p.segUnfrozen
}

// Stats returns cumulative bytes read and written.
func (p *Pager) Stats() (read, written int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytesRead, p.bytesWritten
}

// ExecStats returns the pages eliminated by skip summaries since the last
// Reset. The second result is always 0, kept like SortStats'.
func (p *Pager) ExecStats() (pagesSkipped, _ int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pagesSkipped, 0
}

// Reset zeroes the counters (between benchmark phases).
func (p *Pager) Reset() {
	p.mu.Lock()
	p.bytesRead, p.bytesWritten = 0, 0
	p.pagesSkipped = 0
	p.segScanned, p.segUnfrozen = 0, 0
	p.zoneSkipped, p.selBatches = 0, 0
	p.sortBatches, p.topnShortCircuits = 0, 0
	p.mu.Unlock()
}
