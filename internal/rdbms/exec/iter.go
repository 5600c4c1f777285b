package exec

import (
	"sort"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Iterator is the Volcano-style row cursor all operators implement.
type Iterator interface {
	// Next returns the next row; ok=false marks the end of the stream.
	Next() (row storage.Row, ok bool, err error)
	// Close releases resources; safe to call more than once.
	Close()
}

// SizeHinter is optionally implemented by iterators that know (or can
// bound) their cardinality up front; Collect uses it to pre-size its
// output slice instead of growing it by repeated reallocation.
type SizeHinter interface {
	// SizeHint returns the expected row count; exact reports whether the
	// count is precise rather than an upper bound.
	SizeHint() (n int64, exact bool)
}

// collectCapHint caps how much memory a size hint may pre-allocate (an
// inexact hint on a huge heap should not commit gigabytes up front).
const collectCapHint = 1 << 20

// Collect drains an iterator into a slice and closes it. A BatchToRow
// root is unwrapped and drained batch-at-a-time, skipping the per-row
// adapter call.
func Collect(it Iterator) ([]storage.Row, error) {
	if br, ok := it.(*BatchToRow); ok {
		return CollectBatches(br.In)
	}
	defer it.Close()
	var out []storage.Row
	if sh, ok := it.(SizeHinter); ok {
		if n, _ := sh.SizeHint(); n > 0 {
			if n > collectCapHint {
				n = collectCapHint
			}
			out = make([]storage.Row, 0, n)
		}
	}
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}

// CollectProjectedScan is the fused fast path for the most common batch
// plan shape — Project over plain columns of a filterless scan, optionally
// under a LIMIT: each surviving heap row's projected cells are copied
// straight into the result arena, one copy end-to-end instead of the
// pipeline's transpose into batch columns plus re-transpose into result
// rows. cols lists the projected source column indices in output order,
// limit < 0 means no limit, and chunk is the scan batch size. The heap
// iterator is closed (flushing pager accounting) even on an early LIMIT
// stop.
func CollectProjectedScan(v storage.ReadView, cols []int, limit int64, chunk int) ([]storage.Row, error) {
	if chunk <= 0 {
		chunk = DefaultBatchSize
	}
	it := v.IterateRange(0, v.NumPages())
	defer it.Close()
	total := v.NumRows()
	if limit >= 0 && limit < total {
		total = limit
	}
	w := len(cols)
	capHint := total
	if capHint > collectCapHint {
		capHint = collectCapHint
	}
	out := make([]storage.Row, 0, capHint)
	buf := make([]storage.Row, chunk)

	// A projection over an ascending contiguous column run needs no datum
	// copies at all: every write path replaces stored rows wholesale
	// (Heap.Update swaps the slice; UPDATE and the materializer clone
	// before assigning), so result rows may alias page rows exactly as
	// ReadRows already hands aliases to the row pipeline. This covers
	// SELECT * and any projection in storage order, and skips the arena —
	// the dominant allocation of the hot path.
	contig := w > 0
	for k := 1; k < w; k++ {
		if cols[k] != cols[0]+k {
			contig = false
			break
		}
	}
	if contig {
		c0, c1 := cols[0], cols[0]+w
		for int64(len(out)) < total {
			n := it.ReadRows(buf)
			if n == 0 {
				break
			}
			if rem := total - int64(len(out)); int64(n) > rem {
				n = int(rem)
			}
			for _, r := range buf[:n] {
				out = append(out, r[c0:c1:c1])
			}
		}
		return out, nil
	}

	var arena []types.Datum
	if total*int64(w) <= collectCapHint {
		arena = make([]types.Datum, int(total)*w)
	}
	used := 0
	for int64(len(out)) < total {
		n := it.ReadRows(buf)
		if n == 0 {
			break
		}
		if rem := total - int64(len(out)); int64(n) > rem {
			n = int(rem)
		}
		if len(arena)-used < n*w {
			arena = make([]types.Datum, n*w)
			used = 0
		}
		for _, r := range buf[:n] {
			row := storage.Row(arena[used : used+w : used+w])
			used += w
			for k, c := range cols {
				row[k] = r[c]
			}
			out = append(out, row)
		}
	}
	return out, nil
}

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

// ---------- Scan ----------

// ScanIter reads a heap sequentially, applying an optional pushed-down
// filter. DML statements use RowIDScanIter instead, which also reports heap
// addresses.
type ScanIter struct {
	it     *storage.HeapIter
	Filter Expr // may be nil
	nrows  int64
}

// NewScan returns a scan over v with an optional filter.
func NewScan(v storage.ReadView, filter Expr) *ScanIter {
	return &ScanIter{it: v.Iterate(), Filter: filter, nrows: v.NumRows()}
}

// Next implements Iterator.
func (s *ScanIter) Next() (storage.Row, bool, error) {
	for {
		_, row, ok := s.it.Next()
		if !ok {
			return nil, false, nil
		}
		if s.Filter != nil {
			keep, err := EvalBool(s.Filter, row)
			if err != nil {
				return nil, false, err
			}
			if !keep {
				continue
			}
		}
		return row, true, nil
	}
}

// Close implements Iterator: it finalizes the heap iterator so pager byte
// accounting is recorded even when a LIMIT abandons the scan early.
func (s *ScanIter) Close() { s.it.Close() }

// SizeHint implements SizeHinter; exact only for unfiltered scans.
func (s *ScanIter) SizeHint() (int64, bool) {
	if s.Filter != nil {
		return 0, false
	}
	return s.nrows, true
}

// RowIDScanIter scans a heap yielding (row, id) pairs for DML.
type RowIDScanIter struct {
	it     *storage.HeapIter
	Filter Expr
}

// NewRowIDScan returns a scan that also reports row IDs.
//
//lint:ignore sinew/snapshot-pin DML runs under the table write lock and must scan the live heap it is about to mutate, not a stale snapshot
func NewRowIDScan(h *storage.Heap, filter Expr) *RowIDScanIter {
	return &RowIDScanIter{it: h.Iterate(), Filter: filter}
}

// NextWithID returns the next matching row and its heap address.
func (s *RowIDScanIter) NextWithID() (storage.RowID, storage.Row, bool, error) {
	for {
		id, row, ok := s.it.Next()
		if !ok {
			return storage.RowID{}, nil, false, nil
		}
		if s.Filter != nil {
			keep, err := EvalBool(s.Filter, row)
			if err != nil {
				return storage.RowID{}, nil, false, err
			}
			if !keep {
				continue
			}
		}
		return id, row, true, nil
	}
}

// Close finalizes the heap iterator's pager accounting; safe to call more
// than once.
func (s *RowIDScanIter) Close() { s.it.Close() }

// ---------- Filter / Project / Limit ----------

// FilterIter drops rows failing the predicate.
type FilterIter struct {
	In   Iterator
	Pred Expr
}

// Next implements Iterator.
func (f *FilterIter) Next() (storage.Row, bool, error) {
	for {
		row, ok, err := f.In.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		keep, err := EvalBool(f.Pred, row)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return row, true, nil
		}
	}
}

// Close implements Iterator.
func (f *FilterIter) Close() { f.In.Close() }

// ProjectIter evaluates output expressions into fresh rows.
type ProjectIter struct {
	In    Iterator
	Exprs []Expr
}

// Next implements Iterator.
func (p *ProjectIter) Next() (storage.Row, bool, error) {
	row, ok, err := p.In.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(storage.Row, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(row)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

// Close implements Iterator.
func (p *ProjectIter) Close() { p.In.Close() }

// SizeHint implements SizeHinter (projection preserves cardinality).
func (p *ProjectIter) SizeHint() (int64, bool) {
	if sh, ok := p.In.(SizeHinter); ok {
		return sh.SizeHint()
	}
	return 0, false
}

// LimitIter stops after N rows.
type LimitIter struct {
	In   Iterator
	N    int64
	seen int64
}

// Next implements Iterator.
func (l *LimitIter) Next() (storage.Row, bool, error) {
	if l.seen >= l.N {
		return nil, false, nil
	}
	row, ok, err := l.In.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

// Close implements Iterator.
func (l *LimitIter) Close() { l.In.Close() }

// SizeHint implements SizeHinter: LIMIT caps the child's hint.
func (l *LimitIter) SizeHint() (int64, bool) {
	if sh, ok := l.In.(SizeHinter); ok {
		if n, exact := sh.SizeHint(); exact {
			if n > l.N {
				n = l.N
			}
			return n, true
		}
	}
	return l.N, true
}

// ---------- Sort / Unique ----------

// SortKey is one ordering key for SortIter.
type SortKey struct {
	Expr Expr
	Desc bool
}

// SortIter materializes its input and emits it sorted. NULLs order last
// ascending, first descending (Postgres default).
type SortIter struct {
	In   Iterator
	Keys []SortKey

	rows   []storage.Row
	keys   [][]types.Datum
	pos    int
	sorted bool
	err    error
}

// Next implements Iterator.
func (s *SortIter) Next() (storage.Row, bool, error) {
	if !s.sorted {
		s.materialize()
	}
	if s.err != nil {
		return nil, false, s.err
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, true, nil
}

func (s *SortIter) materialize() {
	s.sorted = true
	rows, err := Collect(s.In)
	if err != nil {
		s.err = err
		return
	}
	s.rows = rows
	s.keys = make([][]types.Datum, len(rows))
	for i, r := range rows {
		ks := make([]types.Datum, len(s.Keys))
		for j, k := range s.Keys {
			v, err := k.Expr.Eval(r)
			if err != nil {
				s.err = err
				return
			}
			ks[j] = v
		}
		s.keys[i] = ks
	}
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		if sortErr != nil {
			return false
		}
		ka, kb := s.keys[idx[a]], s.keys[idx[b]]
		for j, k := range s.Keys {
			c, err := compareForSort(ka[j], kb[j], k.Desc)
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		s.err = sortErr
		return
	}
	sortedRows := make([]storage.Row, len(rows))
	sortedKeys := make([][]types.Datum, len(rows))
	for i, ix := range idx {
		sortedRows[i] = s.rows[ix]
		sortedKeys[i] = s.keys[ix]
	}
	s.rows, s.keys = sortedRows, sortedKeys
}

// compareForSort orders a before b (<0) honoring direction and NULL rules.
func compareForSort(a, b types.Datum, desc bool) (int, error) {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0, nil
	case an: // NULLS LAST ascending, FIRST descending (Postgres default)
		if desc {
			return -1, nil
		}
		return 1, nil
	case bn:
		if desc {
			return 1, nil
		}
		return -1, nil
	}
	c := types.CompareOrder(a, b)
	if desc {
		c = -c
	}
	return c, nil
}

// Close implements Iterator.
func (s *SortIter) Close() { s.In.Close() }

// UniqueIter removes consecutive duplicate rows (input must be sorted on
// the compared columns); Cols selects which leading columns to compare,
// nil meaning all.
type UniqueIter struct {
	In   Iterator
	Cols []int

	started bool
	buf     []byte
	prevKey []byte
}

// Next implements Iterator.
func (u *UniqueIter) Next() (storage.Row, bool, error) {
	for {
		row, ok, err := u.In.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		u.buf = u.buf[:0]
		if u.Cols == nil {
			for _, d := range row {
				u.buf = d.HashKey(u.buf)
			}
		} else {
			for _, i := range u.Cols {
				u.buf = row[i].HashKey(u.buf)
			}
		}
		if u.started && string(u.buf) == string(u.prevKey) {
			continue
		}
		u.started = true
		u.prevKey = append(u.prevKey[:0], u.buf...)
		return row, true, nil
	}
}

// Close implements Iterator.
func (u *UniqueIter) Close() { u.In.Close() }

// ---------- Materialized input helper ----------

// SliceIter replays a materialized row slice.
type SliceIter struct {
	Rows []storage.Row
	pos  int
}

// Next implements Iterator.
func (s *SliceIter) Next() (storage.Row, bool, error) {
	if s.pos >= len(s.Rows) {
		return nil, false, nil
	}
	r := s.Rows[s.pos]
	s.pos++
	return r, true, nil
}

// Close implements Iterator.
func (s *SliceIter) Close() {}

// SizeHint implements SizeHinter.
func (s *SliceIter) SizeHint() (int64, bool) { return int64(len(s.Rows)), true }
