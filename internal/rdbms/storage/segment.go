package storage

import (
	"fmt"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements the segment store beside the row heap: full, cold
// pages are frozen into column-striped form — per-column value vectors,
// with serialized-record columns handed to a ColumnSegmenter that stripes
// them into per-attribute vectors (internal/serial's segment format). The
// heap becomes a hybrid of a write-hot row tail and immutable striped
// pages; UPDATE/DELETE transparently un-freeze a page back to rows, so
// mutation semantics, heap iteration order, and pager accounting are
// unchanged. The storage layer stays ignorant of the segment encoding:
// it sees only the ColumnSegment interface the upper layer implements.

// ColumnSegment is a striped encoding of one column of one frozen page,
// produced by a ColumnSegmenter. Implementations are immutable and safe
// for concurrent readers.
type ColumnSegment interface {
	// NumRows returns the row count of the page the segment covers.
	NumRows() int
	// AttrIDs returns the attribute IDs striped anywhere in the segment,
	// ascending — the page-summary attribute set of the column.
	AttrIDs() []uint32
	// Values decodes the row-format datums of rows [lo, lo+len(dst)) into
	// dst. A value the segment cannot alias in its own bytes is built in
	// a, so it lives as long as whatever holds it. Only readers of values
	// call it, per statement and for the rows they keep: a frozen page
	// keeps no decoded copy.
	Values(dst []types.Datum, lo int, a *ValueArena) error
	// SizeBytes returns the bytes the encoded segment holds.
	SizeBytes() int64
}

// ValueArena holds the bytes a ColumnSegment builds for values it cannot
// alias in its encoding. It only grows: a chunk it has handed bytes out of
// is never written below its length again, and a full chunk is left to the
// values that alias it, so the values built in one arena stay valid as
// long as anything holds them and one arena serves a whole statement.
type ValueArena struct {
	buf  []byte
	next int // the size of the next chunk
}

const (
	arenaFirstChunk = 2 << 10
	arenaMaxChunk   = 1 << 20
	// arenaMinTail is the shortest tail Tail hands out before it starts a
	// chunk: a value longer than the tail gets a buffer of its own.
	arenaMinTail = 512
)

// Tail returns the unused rest of the arena's chunk, empty: a caller
// appends one value to it and hands the result to Keep.
func (a *ValueArena) Tail() []byte {
	if cap(a.buf)-len(a.buf) < arenaMinTail {
		a.next = min(max(a.next*2, arenaFirstChunk), arenaMaxChunk)
		a.buf = make([]byte, 0, a.next)
	}
	return a.buf[len(a.buf):len(a.buf)]
}

// Keep takes b — what Tail returned, appended to — as used and returns it
// capped at its length. A b that outgrew the chunk was moved by append into
// a buffer of its own, which it keeps, and the chunk stays as it was.
func (a *ValueArena) Keep(b []byte) []byte {
	if cap(b) == cap(a.buf)-len(a.buf) {
		a.buf = a.buf[:len(a.buf)+len(b)]
	}
	return b[:len(b):len(b)]
}

// ColumnSegmenter stripes one column of a full page. vals holds the
// column's datums in slot order. Returning (nil, nil) keeps the column as
// a plain vector; an error vetoes freezing the page (the rows stay).
type ColumnSegmenter func(col int, vals []types.Datum) (ColumnSegment, error)

// AttrZone is the zone map of one striped attribute vector within a
// ColumnSegment: how many records carry the attribute (Present) and, for
// ordered numeric encodings, the min/max of its values. A zone with
// HasRange unset still proves presence counts; Min/Max are only
// meaningful when HasRange is set.
type AttrZone struct {
	ID       uint32
	Present  int
	Min, Max types.Datum
	HasRange bool
}

// ZoneMapped is implemented by ColumnSegments that expose per-attribute
// zone maps (the serial segment's min/max and presence counts).
// Freezing attaches the segment itself to the page summary, which asks it
// for one attribute's zone at a time, so scans skip whole frozen pages on
// attribute-level range predicates before decoding them.
type ZoneMapped interface {
	// AttrZone returns the zone map of attribute id; ok=false when no
	// record of the segment carries it.
	AttrZone(id uint32) (AttrZone, bool)
}

// PageCapacity is the heap page grouping factor: the rows of a full page.
const PageCapacity = rowsPerPage

// FrozenCol is one column of a frozen page: either a plain datum vector
// with a null bitmap, or a ColumnSegment for striped serialized columns.
type FrozenCol struct {
	Vals  []types.Datum // plain vector (nil when Seg is set)
	Nulls []uint64      // bit set = NULL (plain vectors only)
	Seg   ColumnSegment // striped column (nil for plain vectors)
}

// FrozenPage is the striped form of one full heap page. It holds each
// value once: a plain column's vector, or a segment column's encoding,
// which every reader decodes for itself, per statement.
type FrozenPage struct {
	n        int
	cols     []FrozenCol
	segBytes int64 // the SizeBytes of the page's segments
}

// NumRows returns the page's row count.
func (fp *FrozenPage) NumRows() int { return fp.n }

// NumCols returns the page's column count.
func (fp *FrozenPage) NumCols() int { return len(fp.cols) }

// Col returns column j's striped form. Exactly one of (vals, seg) is set;
// vals and nulls alias the frozen page and must not be mutated.
func (fp *FrozenPage) Col(j int) (vals []types.Datum, nulls []uint64, seg ColumnSegment) {
	c := fp.cols[j]
	return c.Vals, c.Nulls, c.Seg
}

// materializeRows builds rows [lo, hi) of the page in row form, for Scan,
// a point read and the un-freeze path; the page keeps no copy of them, so
// each call builds anew, segment columns decoded for these rows alone. The
// rows are carved out of one datum arena, each capped at its own width, so
// an append to one never writes into the next; no write path mutates a
// stored row in place.
func (fp *FrozenPage) materializeRows(lo, hi int) ([]Row, error) {
	w := len(fp.cols)
	arena := make([]types.Datum, (hi-lo)*w)
	rows := make([]Row, hi-lo)
	for i := range rows {
		rows[i] = Row(arena[i*w : (i+1)*w : (i+1)*w])
	}
	var dec []types.Datum
	var bytes ValueArena
	for j, c := range fp.cols {
		var vals []types.Datum
		if c.Seg == nil {
			vals = c.Vals[lo:hi]
		} else {
			if dec == nil {
				dec = make([]types.Datum, hi-lo)
			}
			if err := c.Seg.Values(dec, lo, &bytes); err != nil {
				return nil, fmt.Errorf("storage: decode frozen column %d: %w", j, err)
			}
			vals = dec
		}
		for i, r := range rows {
			r[j] = vals[i]
		}
	}
	return rows, nil
}

// SetColumnSegmenter installs fn as the page segmenter. Compaction only
// happens on heaps with a segmenter (Sinew installs one per collection),
// and only at ANALYZE (Analyze freezes the cold pages it reads).
func (h *Heap) SetColumnSegmenter(fn ColumnSegmenter) { h.segmenter = fn }

// NumFrozenPages reports how many pages are currently frozen.
func (h *Heap) NumFrozenPages() int { return h.frozen }

// Segmented reports whether any page of the heap is frozen (the planner's
// routing test for striped scans).
func (h *Heap) Segmented() bool { return h.frozen > 0 }

// stripe builds the frozen form of a cold page from its column vectors,
// one per column in slot order (ANALYZE's walk). The plain columns keep
// their vectors as Vals, over payload arenas of their own. It returns nil
// when the segmenter vetoes the page or stripes none of its columns:
// freezing then buys nothing and the rows stay.
func (h *Heap) stripe(cols [][]types.Datum) *FrozenPage {
	fp := &FrozenPage{n: rowsPerPage, cols: make([]FrozenCol, len(cols))}
	striped := false
	for j, vals := range cols {
		seg, err := h.segmenter(j, vals)
		if err != nil {
			return nil // unstripeable value: keep the rows
		}
		if seg == nil {
			fp.cols[j] = FrozenCol{Vals: vals, Nulls: nullBitmap(vals)}
			continue
		}
		if seg.NumRows() != len(vals) {
			return nil
		}
		fp.cols[j] = FrozenCol{Seg: seg}
		fp.segBytes += seg.SizeBytes()
		striped = true
	}
	if !striped {
		return nil
	}
	packPayloads(fp.cols)
	return fp
}

// nullBitmap returns the null bitmap of a column vector: bit i set when
// vals[i] is NULL.
func nullBitmap(vals []types.Datum) []uint64 {
	nulls := make([]uint64, (len(vals)+63)/64)
	for i, d := range vals {
		if d.IsNull() {
			nulls[i/64] |= 1 << uint(i%64)
		}
	}
	return nulls
}

// packPayloads gives a freezing page's plain columns payload arenas of
// their own: every text and bytea payload moves into one byte arena, every
// array element, at every depth, into one datum arena, and the datums are
// re-pointed at them. The page then holds a handful of objects for the
// collector to mark however many values it has, and the clones the writers
// stored (materializer, UPDATE) become garbage with the row-form page. A
// frozen page is never written, so aliasing the arena keeps AliasText's
// contract; rows that un-freeze keep aliasing it, and a re-freeze copies
// them into a new one. Nil bytea and arrays stay nil, empty ones empty, and
// a NULL keeps whatever it held.
func packPayloads(cols []FrozenCol) {
	var nb, nd int
	for _, c := range cols {
		for _, d := range c.Vals {
			b, e := payloadSize(d)
			nb, nd = nb+b, nd+e
		}
	}
	a := payloadArena{bytes: make([]byte, nb), datums: make([]types.Datum, nd)}
	for _, c := range cols {
		for i, d := range c.Vals {
			c.Vals[i] = a.pack(d)
		}
	}
}

// payloadSize returns the text and bytea bytes and the array elements d
// holds, at every depth.
func payloadSize(d types.Datum) (nbytes, ndatums int) {
	switch {
	case d.Null:
	case d.Typ == types.Text:
		nbytes = len(d.Text())
	case d.Typ == types.Bytes:
		nbytes = len(d.Bytes())
	case d.Typ == types.Array:
		ndatums = len(d.Array())
		for _, e := range d.Array() {
			b, n := payloadSize(e)
			nbytes, ndatums = nbytes+b, ndatums+n
		}
	}
	return nbytes, ndatums
}

// payloadArena is what is left of a page's two arenas while packPayloads
// fills them front to back.
type payloadArena struct {
	bytes  []byte
	datums []types.Datum
}

// take carves the next n bytes out of the arena, capped so that no append
// through one value's view reaches the next.
func (a *payloadArena) take(n int) []byte {
	out := a.bytes[:n:n]
	a.bytes = a.bytes[n:]
	return out
}

// pack returns d over a copy of its payload in the arena.
func (a *payloadArena) pack(d types.Datum) types.Datum {
	switch {
	case d.Null:
	case d.Typ == types.Text:
		b := a.take(len(d.Text()))
		copy(b, d.Text())
		return types.AliasText(b)
	case d.Typ == types.Bytes && d.Bytes() != nil:
		b := a.take(len(d.Bytes()))
		copy(b, d.Bytes())
		return types.NewBytes(b)
	case d.Typ == types.Array && d.Array() != nil:
		elems := d.Array()
		// This level's elements are reserved before the nested ones.
		out := a.datums[:len(elems):len(elems)]
		a.datums = a.datums[len(elems):]
		for i, e := range elems {
			out[i] = a.pack(e)
		}
		return types.NewArray(out...)
	}
	return d
}

// PageView is one stretch of a heap as the batch scan consumes it:
// either one frozen page, or live rows of the row-form pages before the
// next frozen one.
type PageView struct {
	Frozen *FrozenPage // non-nil for a frozen page
	Rows   []Row       // live rows of a row-form run; valid until the next ReadPage
	// IDs, when the cursor reports row IDs (ReportRowIDs), is the address
	// of each row of Rows or of the frozen page; valid until the next
	// ReadPage.
	IDs []RowID
}

// ReadPage returns the next unskipped stretch of the pages: a frozen page
// as a whole, or up to maxRows live rows of the run of row-form pages that
// ends at the next frozen page (a run resumes mid-page on the next call;
// maxRows is the same on every call). ok=false means the pages are
// exhausted. Entering a page charges its bytes, skipped pages charge
// nothing, and frozen pages additionally count toward the pager's
// segments-scanned counter. The row buffer is the cursor's own, sized on
// the first row-form page by the pages left, so a heap that is frozen up
// to a short tail never pays for a full batch of row slots.
func (it *HeapChunkIter) ReadPage(maxRows int) (PageView, bool) {
	n := 0
	it.idBuf = it.idBuf[:0]
	for it.page < len(it.pages) {
		p := it.pages[it.page]
		if it.slot == 0 {
			if it.skip != nil && p.sum.usable() && it.skip(p.sum) {
				it.pendingSkipped++
				it.page++
				continue
			}
			if p.frozen != nil {
				if n > 0 {
					break // the row-form run ends here
				}
				it.pending += p.bytes
				it.pendingSegScanned++
				pv := PageView{Frozen: p.frozen}
				if it.ids {
					for i := 0; i < p.frozen.n; i++ {
						it.idBuf = append(it.idBuf, RowID{Page: it.page, Slot: i})
					}
					pv.IDs = it.idBuf
				}
				it.page++
				return pv, true
			}
			it.pending += p.bytes
			if it.rowBuf == nil {
				it.rowBuf = make([]Row, min(maxRows, (len(it.pages)-it.page)*rowsPerPage))
			}
		}
		from := it.slot
		for it.slot < len(p.rows) && n < len(it.rowBuf) {
			if r := p.rows[it.slot]; r != nil {
				it.rowBuf[n] = r
				n++
			}
			it.slot++
		}
		if it.ids {
			// A second walk over the slots just read, so a cursor that
			// reports no IDs pays nothing per row.
			for s := from; s < it.slot; s++ {
				if p.rows[s] != nil {
					it.idBuf = append(it.idBuf, RowID{Page: it.page, Slot: s})
				}
			}
		}
		if it.slot >= len(p.rows) {
			it.page++
			it.slot = 0
		}
		if n == len(it.rowBuf) {
			break
		}
	}
	if n > 0 {
		pv := PageView{Rows: it.rowBuf[:n]}
		if it.ids {
			pv.IDs = it.idBuf
		}
		return pv, true
	}
	it.flush()
	return PageView{}, false
}
