package exec

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// BatchHashAggIter is the hash aggregate: group keys and aggregate
// arguments are evaluated once per input batch with EvalBatch, the keys
// hashed a column at a time into an aggTable, and the group states updated
// from the materialized columns. Output rows are [groupKeys...,
// aggResults...] in encoded-key order, so group order is deterministic;
// with no group keys it emits exactly one row (scalar aggregation).
type BatchHashAggIter struct {
	In      BatchIterator
	GroupBy []Expr
	Aggs    []*AggSpec

	done bool
	err  error
	emit groupEmitter
}

// NextBatch implements BatchIterator.
func (h *BatchHashAggIter) NextBatch() (*RowBatch, error) {
	if !h.done {
		h.done = true
		t := newAggTable(len(h.GroupBy), h.Aggs)
		if h.err = t.accumulate(h.In, h.GroupBy, nil); h.err == nil {
			h.emit.start(t)
		}
	}
	if h.err != nil {
		return nil, h.err
	}
	return h.emit.next(), nil
}

// Close implements BatchIterator.
func (h *BatchHashAggIter) Close() { h.In.Close() }

// BatchSortedAggIter is GroupAggregate: grouped aggregation over input
// sorted by the group keys (the planner places a Sort below it). Keys and
// arguments are evaluated once per input batch. A group is a run of rows
// whose keys are all types.KeyEqual to its first row's — the hash
// aggregate's rule — found a key column at a time, and each aggregate
// folds the run's stretch of its argument column; a group that spans
// batches stays open. Output rows are [groupKeys..., aggResults...].
type BatchSortedAggIter struct {
	In      BatchIterator
	GroupBy []Expr
	Aggs    []*AggSpec

	ctx    *EvalCtx
	in     *RowBatch // the input batch being folded
	pos    int       // in's first logical row not yet folded
	cols   [][]types.Datum
	open   bool          // a group is open
	keys   []types.Datum // the open group's key values
	states []aggState
	eof    bool
	out    *RowBatch
	n      int
}

// NextBatch implements BatchIterator.
func (g *BatchSortedAggIter) NextBatch() (*RowBatch, error) {
	nk := len(g.GroupBy)
	if g.ctx == nil {
		g.ctx = NewEvalCtx()
		g.cols = make([][]types.Datum, nk+len(g.Aggs)) // keys, then arguments
		g.states = make([]aggState, len(g.Aggs))
		g.out = GetBatch(nk + len(g.Aggs))
	}
	g.out.Reset()
	g.n = 0
	for g.n < DefaultBatchSize && !g.eof {
		if g.in == nil || g.pos >= g.in.Len() {
			if err := g.pull(); err != nil {
				return nil, err
			}
			continue
		}
		sel := g.in.Sel
		if !g.open {
			g.open, g.keys = true, g.keys[:0]
			for _, col := range g.cols[:nk] {
				g.keys = append(g.keys, col[selIdx(sel, g.pos)])
			}
			for k, spec := range g.Aggs {
				g.states[k] = aggState{spec: spec}
			}
		}
		end := g.in.Len()
		for k, col := range g.cols[:nk] {
			for si := g.pos; si < end; si++ {
				if !types.KeyEqual(g.keys[k], col[selIdx(sel, si)]) {
					end = si
				}
			}
		}
		for k := range g.states {
			col, run := g.cols[nk+k], []int32(nil)
			if sel != nil {
				run = sel[g.pos:end]
			} else if col != nil {
				col = col[g.pos:end]
			}
			if err := g.states[k].addColumn(col, run, end-g.pos); err != nil {
				return nil, err
			}
		}
		if g.pos = end; end < g.in.Len() {
			g.emit()
		}
	}
	if g.n == 0 {
		return nil, nil
	}
	g.out.setRows(g.n)
	return g.out, nil
}

// pull reads the next input batch and evaluates its keys and arguments;
// at the end of the input it closes the open group.
func (g *BatchSortedAggIter) pull() error {
	b, err := g.In.NextBatch()
	if b == nil || err != nil {
		g.eof = true
		if g.open && err == nil {
			g.emit()
		}
		return err
	}
	g.in, g.pos = b, 0
	for k, ge := range g.GroupBy {
		if g.cols[k], err = EvalBatch(ge, b, g.ctx); err != nil {
			return err
		}
	}
	for k, spec := range g.Aggs {
		c := len(g.GroupBy) + k
		if g.cols[c] = nil; spec.Arg != nil && spec.Kind != AggCountStar {
			if g.cols[c], err = EvalBatch(spec.Arg, b, g.ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit closes the open group into the next output row.
func (g *BatchSortedAggIter) emit() {
	appendGroup(g.out.Cols, g.keys, g.states)
	g.open = false
	g.n++
}

// Close implements BatchIterator.
func (g *BatchSortedAggIter) Close() {
	g.In.Close()
	PutBatch(g.out)
	g.out = nil
}

// appendGroup appends one group's output row — its key values, then each
// aggregate's result — to cols.
func appendGroup(cols [][]types.Datum, keys []types.Datum, states []aggState) {
	for k, v := range keys {
		cols[k] = append(cols[k], v)
	}
	for k := range states {
		cols[len(keys)+k] = append(cols[len(keys)+k], states[k].result())
	}
}

// aggTable is a hash aggregate's groups: their keys in a key table (nil
// without GROUP BY, where the one group is id 0 from the start) and the
// aggregate states of every group in one flat slice, group id × len(aggs)
// + aggregate. The serial aggregate and each worker of the parallel one
// fill one; the parallel one merges them.
type aggTable struct {
	aggs   []*AggSpec
	keys   *keyTable
	states []aggState
	ids    []int32  // accumulate's per-batch group ids
	hashes []uint64 // accumulate's per-batch key hashes
}

func newAggTable(nkeys int, aggs []*AggSpec) *aggTable {
	t := &aggTable{aggs: aggs}
	if nkeys == 0 {
		t.states = make([]aggState, 0, len(aggs))
		t.addGroup()
	} else {
		t.keys = newKeyTable(nkeys)
	}
	return t
}

// groups reports the number of groups.
func (t *aggTable) groups() int {
	if t.keys == nil {
		return 1
	}
	return t.keys.len()
}

// addGroup appends fresh states for the next group id. The states grow by
// doubling, in step with the key table, so a grouped aggregate allocates
// a number of times logarithmic in its group count.
func (t *aggTable) addGroup() {
	n, w := len(t.states), len(t.aggs)
	if n+w > cap(t.states) {
		grown := make([]aggState, n, max(2*cap(t.states), keyTableMinIDs*w))
		copy(grown, t.states)
		t.states = grown
	}
	for _, spec := range t.aggs {
		t.states = append(t.states, aggState{spec: spec})
	}
}

// group returns group id's states.
func (t *aggTable) group(id int32) []aggState {
	w := len(t.aggs)
	return t.states[int(id)*w : int(id+1)*w]
}

// accumulate drains src into the table: BatchHashAggIter's whole run and,
// as a partial table, the per-worker phase one of the parallel aggregate.
// It polls stop (nil for none) between batches so abandoned queries
// terminate promptly. Per batch the keys are hashed and resolved to group
// ids first, then each aggregate folds its argument column into the
// groups; without GROUP BY the one group takes each argument column whole
// and no key is hashed.
func (t *aggTable) accumulate(src BatchIterator, groupBy []Expr, stop <-chan struct{}) error {
	defer src.Close()
	ctx := NewEvalCtx()
	keyCols := make([][]types.Datum, len(groupBy))
	argCols := make([][]types.Datum, len(t.aggs))
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		in, err := src.NextBatch()
		if err != nil {
			return err
		}
		if in == nil {
			return nil
		}
		for i, g := range groupBy {
			if keyCols[i], err = EvalBatch(g, in, ctx); err != nil {
				return err
			}
		}
		for k, spec := range t.aggs {
			if spec.Arg == nil || spec.Kind == AggCountStar {
				argCols[k] = nil
				continue
			}
			if argCols[k], err = EvalBatch(spec.Arg, in, ctx); err != nil {
				return err
			}
		}
		n := in.Len()
		sel := in.Sel
		if t.keys == nil {
			for k := range t.states {
				if err := t.states[k].addColumn(argCols[k], sel, n); err != nil {
					return err
				}
			}
			continue
		}
		t.hashes = hashKeys(t.hashes, keyCols, sel, n)
		t.ids = t.ids[:0]
		for si, h := range t.hashes {
			id, isNew := t.keys.insert(keyCols, selIdx(sel, si), h)
			if isNew {
				t.addGroup()
			}
			t.ids = append(t.ids, id)
		}
		w := len(t.aggs)
		for k, spec := range t.aggs {
			col := argCols[k]
			if spec.Kind == AggCountStar {
				for _, id := range t.ids {
					t.states[int(id)*w+k].count++
				}
				continue
			}
			for si, id := range t.ids {
				var v types.Datum
				if col != nil {
					v = col[selIdx(sel, si)]
				}
				if err := t.states[int(id)*w+k].addValue(v); err != nil {
					return err
				}
			}
		}
	}
}

// merge folds partial table o into t: o's groups in id order, so a group's
// key values and its MIN/MAX first-seen type come from the table merged
// first. o's hashes are reused; both tables hash with one process seed.
func (t *aggTable) merge(o *aggTable) error {
	if t.keys == nil {
		for k := range t.states {
			if err := t.states[k].merge(&o.states[k]); err != nil {
				return err
			}
		}
		return nil
	}
	for oid := range o.keys.len() {
		id, isNew := t.keys.insert(o.keys.cols, oid, o.keys.hashes[oid])
		src := o.group(int32(oid))
		if isNew {
			t.addGroup()
			copy(t.group(id), src)
			continue
		}
		dst := t.group(id)
		for k := range dst {
			if err := dst[k].merge(&src[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// order lists the group ids in output order: by the HashKey encoding of
// the group's key values, ties — keys the encoding folds together, such as
// integers beyond 2^53 — by first appearance. The encodings are built once
// per group into one arena; the sort compares their first eight bytes as
// an integer and the whole encodings only when those are equal.
func (t *aggTable) order() []int32 {
	n := t.groups()
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	if n < 2 {
		return ids
	}
	cols := t.keys.cols
	arena := make([]byte, 0, n*9*len(cols))
	ends := make([]int, n)
	prefix := make([]uint64, n)
	for id := range n {
		start := len(arena)
		for _, col := range cols {
			arena = col[id].HashKey(arena)
		}
		ends[id] = len(arena)
		var p [8]byte
		copy(p[:], arena[start:])
		prefix[id] = binary.BigEndian.Uint64(p[:])
	}
	enc := func(id int32) []byte {
		start := 0
		if id > 0 {
			start = ends[id-1]
		}
		return arena[start:ends[id]]
	}
	slices.SortFunc(ids, func(a, b int32) int {
		if c := cmp.Compare(prefix[a], prefix[b]); c != 0 {
			return c
		}
		if c := bytes.Compare(enc(a), enc(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ids
}

// groupEmitter streams a finished aggTable as batches of output rows, in
// the table's order. Both hash aggregates emit through it.
type groupEmitter struct {
	table *aggTable
	ids   []int32
	pos   int
	keys  []types.Datum
	out   *RowBatch
}

func (e *groupEmitter) start(t *aggTable) {
	e.table = t
	e.ids = t.order()
}

// next returns the next batch of groups, or nil after the last.
func (e *groupEmitter) next() *RowBatch {
	left := len(e.ids) - e.pos
	if left <= 0 {
		return nil
	}
	t := e.table
	if e.out == nil {
		// Selective queries leave far fewer groups than the batch size;
		// sizing the output by the remaining groups keeps a five-group
		// aggregate from allocating a full-size batch every execution.
		width := len(t.aggs)
		if t.keys != nil {
			width += len(t.keys.cols)
		}
		e.out = NewRowBatch(width, min(DefaultBatchSize, left))
		e.keys = make([]types.Datum, 0, width)
	}
	b := e.out
	b.Reset()
	n := 0
	for ; n < DefaultBatchSize && e.pos < len(e.ids); n++ {
		id := e.ids[e.pos]
		e.pos++
		e.keys = e.keys[:0]
		if t.keys != nil {
			for _, col := range t.keys.cols {
				e.keys = append(e.keys, col[id])
			}
		}
		appendGroup(b.Cols, e.keys, t.group(id))
	}
	b.setRows(n)
	return b
}
