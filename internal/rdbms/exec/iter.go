package exec

import (
	"slices"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// collectCapHint caps how much memory a size hint may pre-allocate (an
// inexact hint on a huge heap should not commit gigabytes up front).
const collectCapHint = 1 << 20

// CollectBatches drains a batch iterator into row-major rows and closes
// it. Rows of each batch are carved out of one arena allocation (one for
// the whole result when the source cardinality is exactly known), so the
// per-row cost is the final transpose alone.
func CollectBatches(it BatchIterator) ([]storage.Row, error) {
	defer it.Close()
	var out []storage.Row
	var arena []types.Datum
	used := 0
	if sh, ok := it.(BatchSizeHinter); ok {
		if n, _ := sh.SizeHint(); n > 0 {
			if n > collectCapHint {
				n = collectCapHint
			}
			out = make([]storage.Row, 0, n)
		}
	}
	hinted := false
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		n, w := b.Len(), b.Width()
		need := n * w
		if !hinted {
			hinted = true
			if sh, ok := it.(BatchSizeHinter); ok {
				if total, exact := sh.SizeHint(); exact && total >= int64(n) && total <= collectCapHint {
					arena = make([]types.Datum, int(total)*w)
				}
			}
		}
		if len(arena)-used < need {
			arena = make([]types.Datum, need)
			used = 0
		}
		base := used
		for i := 0; i < n; i++ {
			out = append(out, storage.Row(arena[used:used+w:used+w]))
			used += w
		}
		sel := b.Sel
		for j := 0; j < w; j++ {
			col := b.Cols[j]
			if len(col) < b.PhysLen() {
				continue // column pruned away by the scan: cells stay zero
			}
			for si := 0; si < n; si++ {
				arena[base+si*w+j] = col[selIdx(sel, si)]
			}
		}
	}
}

// ---------- Sort keys / Unique ----------

// SortKey is one ordering key of a sort, a Top-N or a sorted merge.
type SortKey struct {
	Expr Expr
	Desc bool
}

// compareForSort orders a before b (<0) honoring direction and NULL rules.
// It is total over heterogeneous values.
func compareForSort(a, b types.Datum, desc bool) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an: // NULLS LAST ascending, FIRST descending (Postgres default)
		if desc {
			return -1
		}
		return 1
	case bn:
		if desc {
			return 1
		}
		return -1
	}
	c := types.CompareOrder(a, b)
	if desc {
		c = -c
	}
	return c
}

// BatchDedupIter is Unique, the sort-based DISTINCT: it removes
// consecutive duplicate rows of input sorted on every column. A row is a
// duplicate when each of its columns is types.KeyEqual to the last row
// kept, the hash operators' rule. Each input batch passes through as a
// copy of its header narrowed by a selection vector to the rows kept; the
// one cell copy is the last kept row's, so the comparison carries into
// the next batch.
type BatchDedupIter struct {
	In BatchIterator

	out  RowBatch
	sel  []int32
	kept bool          // a row was kept: last holds it
	last []types.Datum // the last row kept
}

// NextBatch implements BatchIterator.
func (u *BatchDedupIter) NextBatch() (*RowBatch, error) {
	for {
		in, err := u.In.NextBatch()
		if err != nil || in == nil {
			return nil, err
		}
		sel := slices.Grow(u.sel[:0], in.Len())
		prev := -1 // the physical row of in last kept, -1 for u.last
		for si := 0; si < in.Len(); si++ {
			r := selIdx(in.Sel, si)
			if (prev >= 0 || u.kept) && u.repeats(in, prev, r) {
				continue
			}
			sel = append(sel, int32(r))
			prev = r
		}
		u.sel = sel
		if prev < 0 {
			continue // every row repeats the last one kept
		}
		u.kept = true
		u.last = u.last[:0]
		for c := range in.Cols {
			u.last = append(u.last, cellAt(in, c, prev))
		}
		u.out = *in
		u.out.Sel = sel
		return &u.out, nil
	}
}

// repeats reports whether physical row r of in equals row prev of in
// (u.last when prev < 0) in every column. A column the scan pruned away
// holds no values and compares equal.
func (u *BatchDedupIter) repeats(in *RowBatch, prev, r int) bool {
	phys := in.PhysLen()
	for c, col := range in.Cols {
		if len(col) != phys {
			continue
		}
		var p types.Datum
		if prev >= 0 {
			p = col[prev]
		} else {
			p = u.last[c]
		}
		if !types.KeyEqual(p, col[r]) {
			return false
		}
	}
	return true
}

// SizeHint implements BatchSizeHinter: Unique keeps at most its input's
// rows. That input is a Sort holding every row already, so a result sized
// by the bound costs a fraction of what the sort holds.
func (u *BatchDedupIter) SizeHint() (int64, bool) {
	if sh, ok := u.In.(BatchSizeHinter); ok {
		n, _ := sh.SizeHint()
		return n, false
	}
	return 0, false
}

// Close implements BatchIterator.
func (u *BatchDedupIter) Close() { u.In.Close() }
