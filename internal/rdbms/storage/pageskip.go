package storage

import (
	"slices"
	"sort"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements per-page skip summaries: for each heap page, a small
// sorted set of the Sinew attribute IDs appearing in its serialized-column
// records (§4.1 makes presence testable from the header alone) plus min/max
// ranges for physical scalar columns. A selection on a sparse virtual key
// can then skip whole pages without deserializing a single record header,
// and a range predicate on a physical column can skip pages whose extrema
// exclude it — the structure-aware analogue of the per-column statistics
// Sinew keeps in its catalog (§3.1.1).
//
// Summaries are maintained incrementally on Insert, invalidated page-local
// by Update/Delete/Restore (a deletion can shrink the true attr set, so the
// stale summary may no longer be a superset), and rebuilt wholesale by
// ANALYZE. An invalid summary is never used to skip — readers degrade to a
// full page read, so correctness never depends on summary freshness.

// AttrSummarizer reports the attribute IDs present in one column value of a
// row (for Sinew reservoirs: the header's attr IDs). Returning ok=false
// marks the value unsummarizable and invalidates the page summary for the
// column's pages. NULLs are never passed in.
type AttrSummarizer func(d types.Datum) (ids []uint32, ok bool)

// colRange tracks the extrema of one physical scalar column within a page.
type colRange struct {
	min, max types.Datum
	ok       bool // at least one non-null value seen
	bad      bool // incomparable values; range unusable
	nulls    bool // a NULL was seen: some row may lie outside [min, max]
}

// PageSummary is the skip summary of one heap page. Readers access it only
// through methods that return conservatively ("cannot prove") whenever the
// summary is invalid or the column untracked.
type PageSummary struct {
	valid  bool
	attrs  map[int][]uint32 // column index -> sorted attr IDs present (columns without a zone-mapped segment)
	ranges map[int]*colRange
	zones  map[int]ZoneMapped // column index -> the frozen segment answering its attribute set and zone maps (immutable; clones share it)
}

func newPageSummary() *PageSummary {
	return &PageSummary{
		valid:  true,
		attrs:  make(map[int][]uint32),
		ranges: make(map[int]*colRange),
	}
}

func (s *PageSummary) usable() bool { return s != nil && s.valid }

// LacksAllAttrs reports whether the summary proves that none of ids appears
// in column col anywhere on the page. False means "present or unknown".
func (s *PageSummary) LacksAllAttrs(col int, ids []uint32) bool {
	if !s.usable() {
		return false
	}
	if zm := s.zones[col]; zm != nil {
		for _, id := range ids {
			if _, ok := zm.AttrZone(id); ok {
				return false
			}
		}
		return true
	}
	set, tracked := s.attrs[col]
	if !tracked {
		return false
	}
	for _, id := range ids {
		i := sort.Search(len(set), func(j int) bool { return set[j] >= id })
		if i < len(set) && set[i] == id {
			return false
		}
	}
	return true
}

// ColRange returns the min/max of column col on the page, when known.
func (s *PageSummary) ColRange(col int) (min, max types.Datum, ok bool) {
	r := s.usableRange(col)
	if r == nil {
		return types.Datum{}, types.Datum{}, false
	}
	return r.min, r.max, true
}

// usableRange returns column col's range when it bounds every non-NULL
// value on the page, else nil.
func (s *PageSummary) usableRange(col int) *colRange {
	if !s.usable() {
		return nil
	}
	r := s.ranges[col]
	if r == nil || r.bad || !r.ok {
		return nil
	}
	return r
}

// AttrZone returns the zone map of attribute id within column col, when
// the page is frozen and its segment knows one. ok=false means
// "no zone known" — callers must not skip on it.
func (s *PageSummary) AttrZone(col int, id uint32) (AttrZone, bool) {
	if !s.usable() {
		return AttrZone{}, false
	}
	zm := s.zones[col]
	if zm == nil {
		return AttrZone{}, false
	}
	return zm.AttrZone(id)
}

// setZones makes zm, the frozen segment of column col, answer the column's
// attribute-set and zone-map lookups. The summary holds the segment, not
// a copy of its attribute set or zones.
func (s *PageSummary) setZones(col int, zm ZoneMapped) {
	if s.zones == nil {
		s.zones = make(map[int]ZoneMapped)
	}
	s.zones[col] = zm
}

// insertAttr adds id to the sorted set for col.
func (s *PageSummary) insertAttr(col int, id uint32) {
	set := s.attrs[col]
	i := sort.Search(len(set), func(j int) bool { return set[j] >= id })
	if i < len(set) && set[i] == id {
		return
	}
	set = append(set, 0)
	copy(set[i+1:], set[i:])
	set[i] = id
	s.attrs[col] = set
}

// RangeTracked reports whether a column type participates in min/max
// tracking (orderable scalars only).
func RangeTracked(t types.Type) bool {
	return t == types.Int || t == types.Float || t == types.Text
}

// noteRow folds one row into the summary (the insert path).
func (h *Heap) noteRow(s *PageSummary, row Row) {
	for col := range row {
		h.noteColumn(s, col, row[col:col+1], nil)
	}
}

// summarize builds the skip summary of one page from its column vectors
// (ANALYZE), its striped columns answered by fp's segments when the page
// is frozen as fp; nil when a value is unsummarizable.
func (h *Heap) summarize(cols [][]types.Datum, fp *FrozenPage) *PageSummary {
	s := newPageSummary()
	for j, vals := range cols {
		var seg ColumnSegment
		if fp != nil {
			seg = fp.cols[j].Seg
		}
		h.noteColumn(s, j, vals, seg)
	}
	if !s.valid {
		return nil
	}
	return s
}

// noteColumn folds column col's values of one page into the summary: its
// NULLs, its range and, through the column's summarizer, its attribute
// set. A striped column's attribute set comes from its segment seg, with
// no per-record parse, and is tracked even without a summarizer, so
// extractions over any striped column can skip pages. A zone-mapped
// segment answers for its attributes itself; another one's set is copied.
func (h *Heap) noteColumn(s *PageSummary, col int, vals []types.Datum, seg ColumnSegment) {
	var fn AttrSummarizer
	if col < len(h.summarizers) {
		fn = h.summarizers[col]
	}
	if zm, ok := seg.(ZoneMapped); ok {
		s.setZones(col, zm)
		fn = nil
	} else if seg != nil {
		for _, id := range seg.AttrIDs() {
			s.insertAttr(col, id)
		}
		fn = nil
	}
	for _, d := range vals {
		if !s.valid {
			return
		}
		if d.IsNull() {
			s.noteNulls(col)
			continue
		}
		if fn != nil {
			ids, ok := fn(d)
			if !ok {
				s.valid = false
				return
			}
			for _, id := range ids {
				s.insertAttr(col, id)
			}
		}
		if !RangeTracked(d.Typ) {
			continue
		}
		r := s.ranges[col]
		if r == nil {
			r = &colRange{}
			s.ranges[col] = r
		}
		if r.bad {
			continue
		}
		if !r.ok {
			r.min, r.max, r.ok = d, d, true
			continue
		}
		if c, err := types.Compare(d, r.min); err != nil {
			r.bad = true
			continue
		} else if c < 0 {
			r.min = d
		}
		if c, err := types.Compare(d, r.max); err != nil {
			r.bad = true
		} else if c > 0 {
			r.max = d
		}
	}
}

// TopNSkip returns the page-skip test of an ORDER BY on column col
// (descending when desc) that keeps n rows, derived from the summaries of
// the pages left in the cursor without reading a row; nil when no
// page can be skipped. A page whose every live key is at least as good as
// its own bound (min under DESC, max under ASC) contributes its live rows;
// T is the best bound whose pages together hold n rows. A page whose range
// is strictly worse than T is skipped: each of its rows ranks behind n
// others, so ties, first-arrival order and NULL placement cannot bring it
// back. A page that may hold a NULL key never counts, since NULL is no
// bound's equal, and under DESC, where NULLs sort first, is never
// skipped. Live counts come from the captured page objects — a frozen
// page's rows, a row-form page's occupied slots — never from a counter a
// delete could leave stale: an over-count would return wrong rows.
// Recorded extrema only ever widen, so they stay safe. Nothing is
// allocated per page, nor at all when no page can be skipped and T needs
// no more than a handful of pages.
func (it *HeapChunkIter) TopNSkip(col int, desc bool, n int64) func(*PageSummary) bool {
	if n <= 0 {
		return nil
	}
	type pageBound struct {
		key  types.Datum
		live int64
	}
	// best holds, best first, the fewest pages seen so far that together
	// hold n rows: a page is dropped once the better ones cover n without it.
	var buf [16]pageBound
	best := buf[:0]
	var held int64
	pages := it.pages[it.page:]
	for _, p := range pages {
		r := p.sum.usableRange(col)
		if r == nil || r.nulls {
			continue
		}
		b := pageBound{key: r.max, live: liveRows(p)}
		if desc {
			b.key = r.min
		}
		i := len(best)
		for i > 0 && orderCmp(b.key, best[i-1].key, desc) < 0 {
			i--
		}
		if i == len(best) && held >= n {
			continue
		}
		best = slices.Insert(best, i, b)
		held += b.live
		for last := len(best) - 1; last > 0 && held-best[last].live >= n; last-- {
			held -= best[last].live
			best = best[:last]
		}
	}
	if held < n {
		return nil
	}
	t := best[len(best)-1].key
	for _, p := range pages {
		if topNSkips(p.sum, col, desc, t) {
			return func(s *PageSummary) bool { return topNSkips(s, col, desc, t) }
		}
	}
	return nil
}

// topNSkips is TopNSkip's test of one page against the bound t.
func topNSkips(s *PageSummary, col int, desc bool, t types.Datum) bool {
	r := s.usableRange(col)
	if r == nil {
		return false
	}
	if desc {
		return !r.nulls && orderCmp(r.max, t, desc) > 0
	}
	return orderCmp(r.min, t, desc) > 0
}

// orderCmp is the ORDER BY's comparison of two non-NULL keys: positive
// when a sorts after b.
func orderCmp(a, b types.Datum, desc bool) int {
	if desc {
		return types.CompareOrder(b, a)
	}
	return types.CompareOrder(a, b)
}

// liveRows counts the rows a scan of p would deliver.
func liveRows(p *page) int64 {
	if p.frozen != nil {
		return int64(p.frozen.NumRows())
	}
	var n int64
	for _, r := range p.rows {
		if r != nil {
			n++
		}
	}
	return n
}

// noteNulls records that column col holds a NULL on the page. The entry
// is made even before any value arrives, so a range built from later rows
// still knows it does not cover every row.
func (s *PageSummary) noteNulls(col int) {
	r := s.ranges[col]
	if r == nil {
		r = &colRange{}
		s.ranges[col] = r
	}
	r.nulls = true
}

// SetAttrSummarizer installs fn as the attribute summarizer for column col.
// Existing page summaries were built without it and are invalidated;
// ANALYZE rebuilds them.
func (h *Heap) SetAttrSummarizer(col int, fn AttrSummarizer) {
	if col >= len(h.summarizers) {
		h.summarizers = append(h.summarizers, make([]AttrSummarizer, col+1-len(h.summarizers))...)
	}
	h.summarizers[col] = fn
	h.InvalidateSummaries()
}

// InvalidateSummaries marks every page summary stale; subsequent scans read
// all pages until ANALYZE or fresh inserts repopulate them.
// Snapshot-shared pages are cloned first (summary swaps are writes too).
func (h *Heap) InvalidateSummaries() {
	for pi := range h.pages {
		if h.pages[pi].sum == nil {
			continue
		}
		h.writableMetaPage(pi).sum = nil
	}
}

// RecordZoneSkips counts frozen pages a scan eliminated via segment zone
// maps (min/max/null-count metadata) before decoding them.
func (h *Heap) RecordZoneSkips(n int64) {
	if h.pager != nil && n > 0 {
		h.pager.recordZoneSkipped(n)
	}
}

// RecordSelBatches counts selection-carrying batches returned by scans:
// frozen pages and row-form runs whose filter dropped rows.
func (h *Heap) RecordSelBatches(n int64) {
	if h.pager != nil && n > 0 {
		h.pager.recordSelBatches(n)
	}
}

// RecordSortBatches counts input batches accumulated by batch sorts
// (BatchSortIter flushes its per-query count on Close).
func (h *Heap) RecordSortBatches(n int64) {
	if h.pager != nil && n > 0 {
		h.pager.recordSortBatches(n)
	}
}

// RecordTopNShortCircuits counts rows a bounded Top-N heap discarded on
// arrival without materializing them.
func (h *Heap) RecordTopNShortCircuits(n int64) {
	if h.pager != nil && n > 0 {
		h.pager.recordTopNShortCircuits(n)
	}
}
