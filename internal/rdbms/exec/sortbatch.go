package exec

import (
	"slices"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements the batch-native sort path: BatchSortIter
// accumulates its input column-at-a-time, computes the sort keys once per
// batch with vectorized expression evaluation, and reorders through an
// index permutation — no storage.Row is ever materialized.

// BatchSortIter materializes its batch input and emits it sorted. NULLs
// order last ascending, first descending (the Postgres default); ties
// keep input order (stable). Input columns are accumulated densely (a
// selection-carrying batch is compacted through its Sel on the way in) and
// sort keys are evaluated once per input batch via EvalBatch, except a bare
// column reference, whose key column is the accumulated column itself.
type BatchSortIter struct {
	In   BatchIterator
	Keys []SortKey
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
	if s.out == nil {
		s.out = GetBatch(s.width)
	}
	out := s.out
	out.Reset()
	hi := min(s.pos+DefaultBatchSize, s.rows)
	emitPerm(out, s.cols, s.present, s.perm, s.pos, hi)
	s.pos = hi
	return out, nil
}

// build drains the input (closing it), accumulates dense columns and key
// columns, and sorts the row permutation.
func (s *BatchSortIter) build() {
	s.built = true
	ctx := NewEvalCtx()
	first := true
	// aliased[k] is the input column key k reads when it is a bare column
	// reference, -1 when it is evaluated per batch. It lives on the stack
	// for up to four keys.
	var aliasBuf [4]int
	aliased := aliasBuf[:0]
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
			for _, key := range s.Keys {
				j := -1
				if c, ok := key.Expr.(*ColExpr); ok && c.Idx < s.width && s.present[c.Idx] {
					j = c.Idx
				}
				aliased = append(aliased, j)
			}
			// Size the accumulation buffers once when the input knows its
			// cardinality: append growth otherwise re-copies every column
			// log₂(rows) times. Columns the scan pruned away get none, and
			// neither do keys that alias a column.
			if sh, ok := s.In.(BatchSizeHinter); ok {
				if hint, known := sh.SizeHint(); known && hint > 0 && hint < 1<<22 {
					for j := range s.cols {
						if s.present[j] {
							s.cols[j] = make([]types.Datum, 0, hint)
						}
					}
					for k := range s.keyCols {
						if aliased[k] < 0 {
							s.keyCols[k] = make([]types.Datum, 0, hint)
						}
					}
				}
			}
		}
		for k := range s.Keys {
			if aliased[k] >= 0 {
				continue // read from its column once the input is drained
			}
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
	for k, j := range aliased {
		if j >= 0 {
			s.keyCols[k] = s.cols[j]
		}
	}
	s.perm = make([]int32, s.rows)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	if s.rows == 0 {
		return // empty input: keyCols was never initialized
	}
	// The keys compare in place through compareForSort. A key that is a
	// bare column reference is that accumulated column itself, not a copy:
	// `SELECT str1 … ORDER BY str1` holds its strings once.
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
// dense columns (absent columns stay empty, like pruned scan columns).
func emitPerm(out *RowBatch, cols [][]types.Datum, present []bool, perm []int32, lo, hi int) {
	for j := range cols {
		col := out.Cols[j][:0]
		if present[j] {
			src := cols[j]
			for i := lo; i < hi; i++ {
				col = append(col, src[perm[i]])
			}
		}
		out.SetCol(j, col)
	}
	out.SetLen(hi - lo)
}
