package exec

import (
	"slices"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements the batch-native sort path: BatchSortIter
// accumulates its input column-at-a-time, computes the sort keys once per
// batch with vectorized expression evaluation, and reorders through an
// index permutation — no storage.Row is ever materialized. The companion
// ParallelSortedMergeIter merges per-partition sorted streams (each worker
// sorts its gather partition locally and appends its key columns) with a
// k-way minimum scan over the already-computed keys.

// BatchSortIter materializes its batch input and emits it sorted. NULLs
// order last ascending, first descending (the Postgres default); ties
// keep input order (stable). Input columns are accumulated densely (a
// selection-carrying batch is compacted through its Sel on the way in) and
// sort keys are evaluated once per input batch via EvalBatch.
type BatchSortIter struct {
	In   BatchIterator
	Keys []SortKey
	// AppendKeys appends the computed key columns after the data columns in
	// emitted batches (width W+K). The parallel sorted-merge gather sets it
	// so the merge step compares precomputed keys instead of re-evaluating
	// key expressions per comparison.
	AppendKeys bool
	// Heap, when non-nil, receives the sort_batches stats counter on Close.
	Heap *storage.Heap

	built   bool
	err     error
	width   int
	present []bool
	cols    [][]types.Datum
	keyCols [][]types.Datum
	rows    int
	perm    []int32
	pos     int
	out     *RowBatch
	batches int64
}

// NextBatch implements BatchIterator.
func (s *BatchSortIter) NextBatch() (*RowBatch, error) {
	if !s.built {
		s.build()
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.pos >= s.rows {
		return nil, nil
	}
	outW := s.width
	if s.AppendKeys {
		outW += len(s.Keys)
	}
	if s.out == nil {
		s.out = GetBatch(outW)
	}
	out := s.out
	out.Reset()
	hi := min(s.pos+DefaultBatchSize, s.rows)
	emitPerm(out, s.cols, s.present, s.keyCols, s.AppendKeys, s.perm, s.pos, hi)
	s.pos = hi
	return out, nil
}

// build drains the input (closing it), accumulates dense columns and key
// columns, and sorts the row permutation.
func (s *BatchSortIter) build() {
	s.built = true
	ctx := NewEvalCtx()
	first := true
	for {
		in, err := s.In.NextBatch()
		if err != nil {
			s.err = err
			s.In.Close()
			return
		}
		if in == nil {
			break
		}
		s.batches++
		n := in.Len()
		sel := in.Sel
		phys := in.PhysLen()
		if first {
			first = false
			s.width = in.Width()
			s.cols = make([][]types.Datum, s.width)
			s.present = make([]bool, s.width)
			for j := range s.present {
				s.present[j] = len(in.Cols[j]) >= phys
			}
			s.keyCols = make([][]types.Datum, len(s.Keys))
			// Size the accumulation buffers once when the input knows its
			// cardinality: append growth otherwise re-copies every column
			// log₂(rows) times. Columns the scan pruned away get none.
			if sh, ok := s.In.(BatchSizeHinter); ok {
				if hint, known := sh.SizeHint(); known && hint > 0 && hint < 1<<22 {
					for j := range s.cols {
						if s.present[j] {
							s.cols[j] = make([]types.Datum, 0, hint)
						}
					}
					for k := range s.keyCols {
						s.keyCols[k] = make([]types.Datum, 0, hint)
					}
				}
			}
		}
		for k := range s.Keys {
			kc, err := EvalBatch(s.Keys[k].Expr, in, ctx)
			if err != nil {
				s.err = err
				s.In.Close()
				return
			}
			// EvalBatch results are physically indexed; gather the logical
			// rows through the selection vector.
			dst := s.keyCols[k]
			if sel == nil {
				dst = append(dst, kc[:n]...)
			} else {
				for si := 0; si < n; si++ {
					dst = append(dst, kc[sel[si]])
				}
			}
			s.keyCols[k] = dst
		}
		for j := 0; j < s.width && j < in.Width(); j++ {
			src := in.Cols[j]
			if len(src) < phys {
				// Column pruned away by the scan: it stays absent in the
				// output too (the planner guarantees no consumer reads it).
				s.present[j] = false
				s.cols[j] = nil
				continue
			}
			if !s.present[j] {
				continue
			}
			dst := s.cols[j]
			if sel == nil {
				dst = append(dst, src[:n]...)
			} else {
				for si := 0; si < n; si++ {
					dst = append(dst, src[sel[si]])
				}
			}
			s.cols[j] = dst
		}
		s.rows += n
	}
	s.In.Close()
	s.perm = make([]int32, s.rows)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	if s.rows == 0 {
		return // empty input: keyCols was never initialized
	}
	// The keys compare in place through compareForSort: a Datum is 24
	// bytes, so neither copying homogeneous key columns out into
	// []int64/[]float64/[]string nor a typed comparator per column moves
	// `ORDER BY str1` any more (EXPERIMENTS.md "Compact datum note").
	slices.SortStableFunc(s.perm, func(ia, ib int32) int {
		for k := range s.Keys {
			col := s.keyCols[k]
			if c := compareForSort(col[ia], col[ib], s.Keys[k].Desc); c != 0 {
				return c
			}
		}
		return 0
	})
}

// Close implements BatchIterator.
func (s *BatchSortIter) Close() {
	s.In.Close()
	if s.out != nil {
		PutBatch(s.out)
		s.out = nil
	}
	if s.Heap != nil && s.batches > 0 {
		s.Heap.RecordSortBatches(s.batches)
		s.batches = 0
	}
}

// SizeHint implements BatchSizeHinter: exact once the input is drained,
// delegated before that (sorting preserves cardinality).
func (s *BatchSortIter) SizeHint() (int64, bool) {
	if s.built && s.err == nil {
		return int64(s.rows), true
	}
	if sh, ok := s.In.(BatchSizeHinter); ok {
		return sh.SizeHint()
	}
	return 0, false
}

// emitPerm fills out with rows perm[lo:hi] gathered from the accumulated
// dense columns (absent columns stay empty, like pruned scan columns) plus,
// when appendKeys is set, the key columns after them.
func emitPerm(out *RowBatch, cols [][]types.Datum, present []bool, keyCols [][]types.Datum, appendKeys bool, perm []int32, lo, hi int) {
	width := len(cols)
	for j := 0; j < width; j++ {
		col := out.Cols[j][:0]
		if present[j] {
			src := cols[j]
			for i := lo; i < hi; i++ {
				col = append(col, src[perm[i]])
			}
		}
		out.SetCol(j, col)
	}
	if appendKeys {
		for k := range keyCols {
			col := out.Cols[width+k][:0]
			src := keyCols[k]
			for i := lo; i < hi; i++ {
				col = append(col, src[perm[i]])
			}
			out.SetCol(width+k, col)
		}
	}
	out.SetLen(hi - lo)
}

// ParallelSortedMergeIter merges per-partition sorted batch streams into
// one globally sorted stream: each worker runs build (whose top operator is
// a BatchSortIter/BatchTopNIter with AppendKeys set) over its page range,
// and the merger k-way-scans the partition heads comparing the trailing
// precomputed key columns. Ties break by partition index, which — combined
// with stable per-partition sorts over ascending page ranges — reproduces
// the serial stable sort order exactly.
type ParallelSortedMergeIter struct {
	keys []SortKey
	// limit, when >= 0, stops the merge after that many rows (Top-N).
	limit int64

	x       exchange
	heads   []mergeHead
	primed  bool
	emitted int64
	dataW   int
	haveW   bool
	out     *RowBatch
	err     error
}

// mergeHead is a partition's current batch (nil once the partition is
// exhausted) and the position of its next row.
type mergeHead struct {
	b   *RowBatch
	pos int
}

// NewParallelSortedMerge starts one worker per partition; limit < 0 means
// unbounded.
func NewParallelSortedMerge(parts []storage.PageRange, build PipelineBuild, keys []SortKey, limit int64) *ParallelSortedMergeIter {
	m := &ParallelSortedMergeIter{keys: keys, limit: limit, heads: make([]mergeHead, len(parts))}
	m.x.start(parts, drainWork(build))
	return m
}

// advance hands partition i's consumed head back and pulls its next batch.
func (m *ParallelSortedMergeIter) advance(i int) error {
	b, err := m.x.recv(i)
	m.heads[i] = mergeHead{b: b}
	return err
}

// less reports whether partition a's head row sorts before partition b's.
// Heads are dense clones whose trailing len(keys) columns hold the
// precomputed sort keys.
func (m *ParallelSortedMergeIter) less(a, b int) bool {
	ha, hb := m.heads[a], m.heads[b]
	wa := ha.b.Width() - len(m.keys)
	wb := hb.b.Width() - len(m.keys)
	for k := range m.keys {
		c := compareForSort(ha.b.Cols[wa+k][ha.pos], hb.b.Cols[wb+k][hb.pos], m.keys[k].Desc)
		if c != 0 {
			return c < 0
		}
	}
	return a < b // partition order is heap order: serial stable tie-break
}

// NextBatch implements BatchIterator.
//
//lint:ignore sinew/sel-invariant partition heads are dense clones (cloneBatch compacts Sel before the channel send), so physical position == logical position
func (m *ParallelSortedMergeIter) NextBatch() (*RowBatch, error) {
	if m.err != nil {
		return nil, m.err
	}
	if !m.primed {
		m.primed = true
		for i := range m.heads {
			if err := m.advance(i); err != nil {
				m.err = err
				return nil, err
			}
		}
	}
	if m.limit >= 0 && m.emitted >= m.limit {
		return nil, nil
	}
	if !m.haveW {
		for _, h := range m.heads {
			if h.b != nil {
				m.dataW = h.b.Width() - len(m.keys)
				m.haveW = true
				break
			}
		}
		if !m.haveW {
			return nil, nil // empty result
		}
	}
	if m.out == nil {
		m.out = GetBatch(m.dataW)
	}
	out := m.out
	out.Reset()
	n := 0
	for n < DefaultBatchSize {
		best := -1
		for i := range m.heads {
			if m.heads[i].b == nil {
				continue
			}
			if best == -1 || m.less(i, best) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		h := &m.heads[best]
		for j := 0; j < m.dataW; j++ {
			if col := h.b.Cols[j]; h.pos < len(col) {
				out.Cols[j] = append(out.Cols[j], col[h.pos])
			} else {
				// Column pruned below the partition sorter: a zero Datum is
				// what every row-view of a pruned column yields.
				out.Cols[j] = append(out.Cols[j], types.Datum{})
			}
		}
		n++
		m.emitted++
		h.pos++
		if h.pos >= h.b.Len() {
			if err := m.advance(best); err != nil {
				m.err = err
				return nil, err
			}
		}
		if m.limit >= 0 && m.emitted >= m.limit {
			break
		}
	}
	if n == 0 {
		return nil, nil
	}
	for j := 0; j < m.dataW; j++ {
		out.SetCol(j, out.Cols[j])
	}
	out.SetLen(n)
	return out, nil
}

// Close implements BatchIterator: stops the workers (handing the held heads
// back) and releases the output batch.
func (m *ParallelSortedMergeIter) Close() {
	m.x.close()
	if m.out != nil {
		PutBatch(m.out)
		m.out = nil
	}
}
