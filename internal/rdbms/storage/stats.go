package storage

import (
	"bytes"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// ColumnStats summarizes one column for the optimizer, in the style of
// pg_statistic: row/null counts, distinct estimate, extrema, and most
// common values. Stats exist only for physical columns — expressions such
// as Sinew's extract_key UDF are opaque, which is exactly the effect
// Table 2 of the paper measures.
type ColumnStats struct {
	RowCount  int64
	NullCount int64
	NDistinct int64
	// HasMinMax is set for orderable columns with at least one non-null.
	HasMinMax bool
	Min, Max  types.Datum
	// MCVs lists up to statsMCVLimit most common values with frequencies
	// (fraction of all rows).
	MCVs []MCV
}

// MCV is a most-common-value entry.
type MCV struct {
	Val  types.Datum
	Freq float64
}

// TableStats is the result of ANALYZE: per-column statistics keyed by
// column name, plus the table row count at analysis time.
type TableStats struct {
	RowCount int64
	Columns  map[string]*ColumnStats
}

const (
	// statsDistinctTrackLimit caps the exact-distinct tracking; beyond it
	// the estimate scales up proportionally (a crude HLL stand-in).
	statsDistinctTrackLimit = 1 << 16
	statsMCVLimit           = 10
)

// Analyze is ANALYZE's one pass over h: it reads each page once, as
// column vectors, and from the same vectors accumulates every column's
// statistics, rebuilds the page's skip summary and, when a segmenter is
// installed, freezes the page if it is cold (full, no deleted slot). A
// row-form page is transposed once; a frozen page's plain columns are read
// as they are and its segments decoded into a scratch vector, so no
// frozen page gains a row-form copy. Each column's values reach its
// accumulator in heap order. The extrema and most common values are
// copies: the statistics outlive the row-form pages the pass read, and an
// alias would pin those pages' values once a freeze retires them.
func Analyze(h *Heap) *TableStats {
	w := newAnalyzeWalk(h)
	for pi, p := range h.pages {
		if h.pager != nil {
			h.pager.recordRead(p.bytes)
		}
		if p.frozen != nil {
			w.frozenPage(pi, p)
		} else {
			w.rowPage(pi, p)
		}
	}
	rows := w.rows
	ts := &TableStats{RowCount: rows, Columns: make(map[string]*ColumnStats, len(w.accs))}
	for i, c := range h.schema.Cols {
		a := &w.accs[i]
		cs := &ColumnStats{RowCount: rows, NullCount: a.nulls}
		nd := int64(len(a.values))
		if a.overflow && a.seen > 0 {
			// Tracked the first statsDistinctTrackLimit distincts over some
			// prefix; scale linearly as Postgres's estimator would.
			var tracked int64
			for j := range a.values {
				tracked += a.values[j].count
			}
			nd = nd * a.seen / max(1, tracked)
			if nd < statsDistinctTrackLimit {
				nd = statsDistinctTrackLimit
			}
		}
		cs.NDistinct = nd
		if a.hasMM {
			cs.HasMinMax = true
			cs.Min, cs.Max = a.min.Clone(), a.max.Clone()
		}
		if rows > 0 {
			cs.MCVs = a.mostCommon(rows)
		}
		ts.Columns[c.Name] = cs
	}
	return ts
}

// analyzeWalk is the state of one Analyze pass: the column accumulators,
// the live rows counted, and the scratch column vectors of the pages that
// do not freeze and of decoded segments, reused page to page.
type analyzeWalk struct {
	h    *Heap
	accs []colAcc
	rows int64
	cols [][]types.Datum
	// bytes holds the values the segments build for the walk: the
	// accumulators keep the first datum of each distinct value.
	bytes ValueArena
}

func newAnalyzeWalk(h *Heap) *analyzeWalk {
	n := len(h.schema.Cols)
	w := &analyzeWalk{h: h, accs: make([]colAcc, n), cols: make([][]types.Datum, n)}
	for i := range w.accs {
		w.accs[i].index = make(map[uint64]int32)
		w.accs[i].cmpOK = true
	}
	return w
}

// rowPage transposes row-form page pi's live rows into column vectors,
// feeds them to the statistics, and then freezes the page from them when
// it is cold and the segmenter stripes it; otherwise the page keeps its
// rows and gets a summary rebuilt from the same vectors. A page that
// freezes hands its vectors to the frozen page, so they are its own.
func (w *analyzeWalk) rowPage(pi int, p *page) {
	h := w.h
	live := liveRows(p)
	w.rows += live
	cold := h.segmenter != nil && live == rowsPerPage
	cols := w.cols
	if cold {
		cols = make([][]types.Datum, len(cols))
	}
	for j := range cols {
		vals := cols[j][:0]
		if cold {
			vals = make([]types.Datum, 0, rowsPerPage)
		}
		for _, r := range p.rows {
			if r != nil {
				vals = append(vals, r[j])
			}
		}
		cols[j] = vals
		w.accs[j].addAll(vals)
	}
	if cold {
		if fp := h.stripe(cols); fp != nil {
			h.pages[pi] = &page{frozen: fp, bytes: p.bytes, sum: h.summarize(cols, fp)}
			h.frozen++
			h.segBytes += fp.segBytes
			return
		}
	}
	h.writableMetaPage(pi).sum = h.summarize(cols, nil)
}

// frozenPage feeds frozen page pi's columns to the statistics: plain
// vectors as they are, each segment decoded into a scratch vector. A
// usable summary is kept, since the page has not changed since it was
// built; an unusable one is rebuilt from the same vectors.
func (w *analyzeWalk) frozenPage(pi int, p *page) {
	fp := p.frozen
	w.rows += int64(fp.n)
	rebuild := !p.sum.usable()
	cols := make([][]types.Datum, len(fp.cols))
	for j, c := range fp.cols {
		cols[j] = c.Vals
		if c.Seg != nil {
			if cap(w.cols[j]) < fp.n {
				w.cols[j] = make([]types.Datum, fp.n)
			}
			cols[j] = w.cols[j][:fp.n]
			if err := c.Seg.Values(cols[j], 0, &w.bytes); err != nil {
				rebuild = false // the column is unknown: it adds nothing, and the page keeps its summary
				continue
			}
		}
		w.accs[j].addAll(cols[j])
	}
	if rebuild {
		w.h.writableMetaPage(pi).sum = w.h.summarize(cols, fp)
	}
}

// distinctValue is one distinct value of a column: the first datum seen
// of its KeyEqual class, and how many values of the class occurred.
type distinctValue struct {
	val   types.Datum
	count int64
	// next chains the values whose hashes are alike (1 + index; 0 ends it).
	next int32
}

// colAcc accumulates one column's statistics over a scan. Two datums are
// one value when they are types.KeyEqual — the rule the executor's key
// table and COUNT(DISTINCT) group by — found by their types.Hash, so the
// scan builds nothing per value.
type colAcc struct {
	nulls    int64
	seen     int64
	values   []distinctValue
	index    map[uint64]int32 // types.Hash -> 1 + index of the chain's head
	overflow bool
	min, max types.Datum
	hasMM    bool
	cmpOK    bool
}

// addAll folds a column vector into the accumulator, in order.
func (a *colAcc) addAll(vals []types.Datum) {
	for _, d := range vals {
		a.add(d)
	}
}

func (a *colAcc) add(d types.Datum) {
	if d.IsNull() {
		a.nulls++
		return
	}
	a.seen++
	hk := types.Hash(d)
	head := a.index[hk]
	found := false
	for at := head; at != 0; at = a.values[at-1].next {
		if v := &a.values[at-1]; types.KeyEqual(v.val, d) {
			v.count++
			found = true
			break
		}
	}
	// Past the tracking limit only values already tracked keep counting.
	if !found && !a.overflow {
		a.values = append(a.values, distinctValue{val: d, count: 1, next: head})
		a.index[hk] = int32(len(a.values))
		if len(a.values) > statsDistinctTrackLimit {
			a.overflow = true
		}
	}
	if !a.cmpOK {
		return
	}
	if !a.hasMM {
		a.min, a.max, a.hasMM = d, d, true
		return
	}
	if c, err := types.Compare(d, a.min); err != nil {
		a.cmpOK, a.hasMM = false, false
		return
	} else if c < 0 {
		a.min = d
	}
	if c, err := types.Compare(d, a.max); err != nil {
		a.cmpOK, a.hasMM = false, false
	} else if c > 0 {
		a.max = d
	}
}

// mcvCandidate is a value in the running for the MCV list, with its key.
type mcvCandidate struct {
	count int64
	key   []byte
	val   types.Datum
}

// before orders the MCV list: more frequent first, ties by hash key.
func (c *mcvCandidate) before(count int64, key []byte) bool {
	if c.count != count {
		return c.count > count
	}
	return bytes.Compare(c.key, key) < 0
}

// mostCommon selects the statsMCVLimit most frequent values by insertion
// into a list that never grows past the limit, so a column of all-distinct
// values costs one key and, nearly always, one comparison per value — not a
// sort of every value by its key.
func (a *colAcc) mostCommon(rows int64) []MCV {
	top := make([]mcvCandidate, 0, statsMCVLimit+1)
	var key []byte
	for i := range a.values {
		v := &a.values[i]
		full := len(top) == statsMCVLimit
		if full && v.count < top[len(top)-1].count {
			continue
		}
		key = v.val.HashKey(key[:0])
		at := len(top)
		for at > 0 && !top[at-1].before(v.count, key) {
			at--
		}
		if at == statsMCVLimit {
			continue
		}
		// The candidate that drops out lends its key buffer to the new one.
		var buf []byte
		if full {
			buf = top[len(top)-1].key[:0]
			top = top[:len(top)-1]
		}
		top = append(top, mcvCandidate{})
		copy(top[at+1:], top[at:])
		top[at] = mcvCandidate{count: v.count, key: append(buf, key...), val: v.val}
	}
	var out []MCV
	for _, c := range top {
		out = append(out, MCV{Val: c.val.Clone(), Freq: float64(c.count) / float64(rows)})
	}
	return out
}
