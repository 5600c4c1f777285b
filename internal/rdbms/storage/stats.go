package storage

import (
	"bytes"
	"hash/maphash"

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

// Analyze computes statistics for every column of h with a full scan. As a
// side effect it rebuilds the per-page skip summaries (pageskip.go), which
// Update/Delete invalidate page-locally. The extrema and most common values
// are copies: the statistics outlive the row-form pages the scan read, and
// an alias would pin those pages' values once a freeze retires them.
func Analyze(h *Heap) *TableStats {
	h.RebuildSummaries()
	schema := h.Schema()
	n := len(schema.Cols)
	accs := make([]colAcc, n)
	for i := range accs {
		accs[i].index = make(map[uint64]int32)
		accs[i].cmpOK = true
	}
	var rows int64
	sc := keyScratch{seed: maphash.MakeSeed()}
	h.Scan(func(_ RowID, row Row) bool {
		rows++
		for i := 0; i < n; i++ {
			accs[i].add(row[i], &sc)
		}
		return true
	})
	ts := &TableStats{RowCount: rows, Columns: make(map[string]*ColumnStats, n)}
	for i, c := range schema.Cols {
		a := &accs[i]
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
			cs.MCVs = a.mostCommon(rows, &sc)
		}
		ts.Columns[c.Name] = cs
	}
	return ts
}

// distinctValue is one distinct value of a column: the first datum seen
// with its hash key, and how often the key occurred.
type distinctValue struct {
	val   types.Datum
	count int64
	// next chains the values whose keys hash alike (1 + index; 0 ends it).
	next int32
}

// colAcc accumulates one column's statistics over a scan. Two datums are
// one value when their HashKeys are equal; values are found by a 64-bit
// hash of the key and told apart by comparing keys, so the scan keeps no
// copy of any key.
type colAcc struct {
	nulls    int64
	seen     int64
	values   []distinctValue
	index    map[uint64]int32 // key hash -> 1 + index of the chain's head
	overflow bool
	min, max types.Datum
	hasMM    bool
	cmpOK    bool
}

// keyScratch holds the hash seed and the key buffers of one Analyze.
type keyScratch struct {
	seed     maphash.Seed
	key, cmp []byte
}

func (a *colAcc) add(d types.Datum, sc *keyScratch) {
	if d.IsNull() {
		a.nulls++
		return
	}
	a.seen++
	sc.key = d.HashKey(sc.key[:0])
	hk := maphash.Bytes(sc.seed, sc.key)
	head := a.index[hk]
	found := false
	for at := head; at != 0; at = a.values[at-1].next {
		v := &a.values[at-1]
		if sc.cmp = v.val.HashKey(sc.cmp[:0]); bytes.Equal(sc.cmp, sc.key) {
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
func (a *colAcc) mostCommon(rows int64, sc *keyScratch) []MCV {
	top := make([]mcvCandidate, 0, statsMCVLimit+1)
	for i := range a.values {
		v := &a.values[i]
		full := len(top) == statsMCVLimit
		if full && v.count < top[len(top)-1].count {
			continue
		}
		sc.key = v.val.HashKey(sc.key[:0])
		at := len(top)
		for at > 0 && !top[at-1].before(v.count, sc.key) {
			at--
		}
		if at == statsMCVLimit {
			continue
		}
		// The candidate that drops out lends its key buffer to the new one.
		var key []byte
		if full {
			key = top[len(top)-1].key[:0]
			top = top[:len(top)-1]
		}
		top = append(top, mcvCandidate{})
		copy(top[at+1:], top[at:])
		top[at] = mcvCandidate{count: v.count, key: append(key, sc.key...), val: v.val}
	}
	var out []MCV
	for _, c := range top {
		out = append(out, MCV{Val: c.val.Clone(), Freq: float64(c.count) / float64(rows)})
	}
	return out
}
