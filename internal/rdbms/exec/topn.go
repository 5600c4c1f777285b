package exec

import (
	"sort"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// BatchTopNIter is the bounded ORDER BY + LIMIT operator: it keeps at most
// N rows in a columnar worst-first heap while streaming its input, so an
// ORDER BY under a LIMIT never materializes the full input. Rows that
// compare worse than the current N-th row are discarded on arrival (the
// topn_short_circuits stats counter); the survivors are emitted in full
// sort order. Its output is exactly the first N rows of BatchSortIter's,
// stability included: ties keep first-arrival order, because a tying
// newcomer is always worse than the incumbent it ties with. A segment
// column the scan below left undecoded (RowBatch.Segs) is decoded row by
// row as rows enter the heap, so the rows it discards cost no decode.
type BatchTopNIter struct {
	In   BatchIterator
	Keys []SortKey
	N    int64
	// Heap, when non-nil, receives the topn_short_circuits counter on Close.
	Heap *storage.Heap

	built   bool
	err     error
	width   int
	present []bool
	cols    [][]types.Datum // slot-major: cols[j][slot]
	keyCols [][]types.Datum
	seqs    []int64 // arrival order per slot (stability tie-break)
	heap    []int32 // slot ids, worst row at the root
	perm    []int32
	pos     int
	out     *RowBatch
	shorted int64
	// bytes holds the values decoded out of the lazy segment columns of
	// the rows kept.
	bytes storage.ValueArena
}

// NextBatch implements BatchIterator.
func (t *BatchTopNIter) NextBatch() (*RowBatch, error) {
	if !t.built {
		t.build()
	}
	if t.err != nil {
		return nil, t.err
	}
	if t.pos >= len(t.perm) {
		return nil, nil
	}
	if t.out == nil {
		t.out = GetBatch(t.width)
	}
	out := t.out
	out.Reset()
	hi := min(t.pos+DefaultBatchSize, len(t.perm))
	emitPerm(out, t.cols, t.present, t.perm, t.pos, hi)
	t.pos = hi
	return out, nil
}

// worse reports whether slot a sorts strictly after slot b (a would be
// evicted before b). Equal keys fall back to arrival order: the later row
// is worse.
func (t *BatchTopNIter) worse(a, b int32) bool {
	for k := range t.Keys {
		c := compareForSort(t.keyCols[k][a], t.keyCols[k][b], t.Keys[k].Desc)
		if c != 0 {
			return c > 0
		}
	}
	return t.seqs[a] > t.seqs[b]
}

func (t *BatchTopNIter) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(t.heap[i], t.heap[parent]) {
			return
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *BatchTopNIter) siftDown(i int) {
	n := len(t.heap)
	for {
		worst := i
		if l := 2*i + 1; l < n && t.worse(t.heap[l], t.heap[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.worse(t.heap[r], t.heap[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// build drains the input (closing it) through the bounded heap and sorts
// the surviving slots.
func (t *BatchTopNIter) build() {
	t.built = true
	ctx := NewEvalCtx()
	first := true
	var seq int64
	keyVals := make([][]types.Datum, len(t.Keys)) // per-batch key columns
	for {
		in, err := t.In.NextBatch()
		if err != nil {
			t.err = err
			t.In.Close()
			return
		}
		if in == nil {
			break
		}
		if first {
			first = false
			t.width = in.Width()
			t.cols = make([][]types.Datum, t.width)
			t.present = make([]bool, t.width)
			for j := range t.present {
				t.present[j] = true
			}
			t.keyCols = make([][]types.Datum, len(t.Keys))
		}
		for k := range t.Keys {
			if keyVals[k], err = EvalBatch(t.Keys[k].Expr, in, ctx); err != nil {
				t.err = err
				t.In.Close()
				return
			}
		}
		phys := in.PhysLen()
		for j := 0; j < t.width && j < in.Width(); j++ {
			if t.present[j] && len(in.Cols[j]) < phys && lazySeg(in, j) == nil {
				t.present[j] = false
				t.cols[j] = nil
			}
		}
		n := in.Len()
		sel := in.Sel
		for si := 0; si < n; si++ {
			r := selIdx(sel, si)
			if int64(len(t.heap)) >= t.N {
				if len(t.heap) == 0 { // N <= 0: keep nothing
					t.shorted++
					seq++
					continue
				}
				// Full: compare the newcomer against the current worst row.
				// A newcomer that ties is worse (later arrival), so keys
				// <= root means discard — the Top-N short circuit.
				root := t.heap[0]
				cmp := 0
				for k := range t.Keys {
					c := compareForSort(keyVals[k][r], t.keyCols[k][root], t.Keys[k].Desc)
					if c != 0 {
						cmp = c
						break
					}
				}
				if cmp >= 0 {
					t.shorted++
					seq++
					continue
				}
				// Overwrite the worst slot in place and restore the heap.
				for j := 0; j < t.width; j++ {
					if t.present[j] {
						if t.err = t.take(in, j, r, t.cols[j][root:root+1]); t.err != nil {
							t.In.Close()
							return
						}
					}
				}
				for k := range t.Keys {
					t.keyCols[k][root] = keyVals[k][r]
				}
				t.seqs[root] = seq
				seq++
				t.siftDown(0)
				continue
			}
			slot := int32(len(t.heap))
			for j := 0; j < t.width; j++ {
				if t.present[j] {
					t.cols[j] = append(t.cols[j], types.Datum{})
					if t.err = t.take(in, j, r, t.cols[j][slot:slot+1]); t.err != nil {
						t.In.Close()
						return
					}
				}
			}
			for k := range t.Keys {
				t.keyCols[k] = append(t.keyCols[k], keyVals[k][r])
			}
			t.seqs = append(t.seqs, seq)
			seq++
			t.heap = append(t.heap, slot)
			t.siftUp(len(t.heap) - 1)
		}
	}
	t.In.Close()
	t.perm = make([]int32, len(t.heap))
	copy(t.perm, t.heap)
	sort.Slice(t.perm, func(a, b int) bool {
		pa, pb := t.perm[a], t.perm[b]
		for k := range t.Keys {
			c := compareForSort(t.keyCols[k][pa], t.keyCols[k][pb], t.Keys[k].Desc)
			if c != 0 {
				return c < 0
			}
		}
		return t.seqs[pa] < t.seqs[pb]
	})
}

// take copies row r of column j of in into dst: the batch's value, or,
// for a segment column the scan left lazy, the row decoded alone — a Top-N
// decodes only what it keeps.
func (t *BatchTopNIter) take(in *RowBatch, j, r int, dst []types.Datum) error {
	if col := in.Cols[j]; r < len(col) {
		dst[0] = col[r]
		return nil
	}
	return lazySeg(in, j).Values(dst, r, &t.bytes)
}

// Close implements BatchIterator.
func (t *BatchTopNIter) Close() {
	t.In.Close()
	if t.out != nil {
		PutBatch(t.out)
		t.out = nil
	}
	if t.Heap != nil && t.shorted > 0 {
		t.Heap.RecordTopNShortCircuits(t.shorted)
		t.shorted = 0
	}
}

// SizeHint implements BatchSizeHinter.
func (t *BatchTopNIter) SizeHint() (int64, bool) {
	if t.built && t.err == nil {
		return int64(len(t.perm)), true
	}
	return t.N, false
}
