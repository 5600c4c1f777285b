package exec

import (
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// joinBuildTable is the columnar build side of a batch hash join: cells
// live in per-column arrays and the hash index maps encoded keys to row
// ids, so building and probing never allocate a per-row storage.Row.
// Columns the build pipeline pruned contribute zero Datums, matching what
// any row view of a pruned column yields.
type joinBuildTable struct {
	width int
	rows  int
	cols  [][]types.Datum
	idx   map[string][]int32
}

func newJoinBuildTable(width int) *joinBuildTable {
	return &joinBuildTable{
		width: width,
		cols:  make([][]types.Datum, width),
		idx:   make(map[string][]int32),
	}
}

// addBatches drains a batch iterator into the table (closing it), keying
// each row on keys. Rows with a NULL key cell are never entered, and rows
// enter in stream order, so a key's matches come out in build order.
func (t *joinBuildTable) addBatches(in BatchIterator, keys []Expr) error {
	defer in.Close()
	ctx := NewEvalCtx()
	keyCols := make([][]types.Datum, len(keys))
	var buf []byte
	for {
		b, err := in.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		ctx.BeginBatch()
		for k, ke := range keys {
			if keyCols[k], err = EvalBatch(ke, b, ctx); err != nil {
				return err
			}
		}
		n := b.Len()
		sel := b.Sel
		phys := b.PhysLen()
		for si := 0; si < n; si++ {
			r := selIdx(sel, si)
			buf = buf[:0]
			null := false
			for _, col := range keyCols {
				if col[r].IsNull() {
					null = true
					break
				}
				buf = col[r].HashKey(buf)
			}
			if null {
				continue
			}
			id := int32(t.rows)
			for j := 0; j < t.width; j++ {
				var v types.Datum
				if j < len(b.Cols) {
					if col := b.Cols[j]; len(col) == phys {
						v = col[r]
					}
				}
				t.cols[j] = append(t.cols[j], v)
			}
			t.rows++
			t.idx[string(buf)] = append(t.idx[string(buf)], id)
		}
	}
}

// appendTo appends build row id's cells to dst.
func (t *joinBuildTable) appendTo(dst storage.Row, id int32) storage.Row {
	for j := 0; j < t.width; j++ {
		dst = append(dst, t.cols[j][id])
	}
	return dst
}

// BatchHashJoinIter is the inner equi-join: both sides are consumed
// batch-at-a-time, join keys are evaluated column-at-a-time, the build
// side lives in a columnar joinBuildTable, and matches are assembled
// straight into reused output columns. Output rows are probeRow ++
// buildRow in probe order × build insertion order, NULL keys never match,
// and Residual is checked on joined rows.
type BatchHashJoinIter struct {
	Probe     BatchIterator
	Build     BatchIterator
	ProbeKeys []Expr
	BuildKeys []Expr
	Residual  Expr
	// BuildWidth is the build side's column count (the probe width comes
	// from its batches).
	BuildWidth int

	table   *joinBuildTable
	built   bool
	err     error
	ctx     *EvalCtx
	keyCols [][]types.Datum
	keyBuf  []byte
	in      *RowBatch
	si      int
	curPhys int
	matches []int32
	matchIx int
	probeW  int
	out     *RowBatch
	outLen  int
	rowBuf  storage.Row
	joined  storage.Row
}

// NextBatch implements BatchIterator.
func (j *BatchHashJoinIter) NextBatch() (*RowBatch, error) {
	if !j.built {
		j.built = true
		j.table = newJoinBuildTable(j.BuildWidth)
		if err := j.table.addBatches(j.Build, j.BuildKeys); err != nil {
			j.err = err
		}
		j.ctx = NewEvalCtx()
		j.keyCols = make([][]types.Datum, len(j.ProbeKeys))
	}
	if j.err != nil {
		return nil, j.err
	}
	if j.out != nil {
		j.out.Reset()
	}
	j.outLen = 0
	for {
		if j.in == nil {
			b, err := j.Probe.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return j.finish()
			}
			j.in = b
			j.si = 0
			j.matches = nil
			j.matchIx = 0
			j.probeW = b.Width()
			j.ctx.BeginBatch()
			for k, ke := range j.ProbeKeys {
				if j.keyCols[k], err = EvalBatch(ke, b, j.ctx); err != nil {
					return nil, err
				}
			}
			if j.out == nil {
				j.out = GetBatch(j.probeW + j.table.width)
			}
		}
		for j.matchIx < len(j.matches) {
			bid := j.matches[j.matchIx]
			j.matchIx++
			if j.Residual != nil {
				j.rowBuf = j.in.Row(j.curPhys, j.rowBuf)
				j.joined = append(j.joined[:0], j.rowBuf...)
				j.joined = j.table.appendTo(j.joined, bid)
				keep, err := EvalBool(j.Residual, j.joined)
				if err != nil {
					return nil, err
				}
				if !keep {
					continue
				}
			}
			r := j.curPhys
			phys := j.in.PhysLen()
			for c := 0; c < j.probeW; c++ {
				var v types.Datum
				if col := j.in.Cols[c]; len(col) == phys {
					v = col[r]
				}
				j.out.Cols[c] = append(j.out.Cols[c], v)
			}
			for c := 0; c < j.table.width; c++ {
				j.out.Cols[j.probeW+c] = append(j.out.Cols[j.probeW+c], j.table.cols[c][bid])
			}
			j.outLen++
			if j.outLen >= DefaultBatchSize {
				return j.finish()
			}
		}
		if j.si >= j.in.Len() {
			// Probe batch exhausted; its cells were copied into the output
			// columns, so the next pull may recycle it.
			j.in = nil
			continue
		}
		r := selIdx(j.in.Sel, j.si)
		j.si++
		j.keyBuf = j.keyBuf[:0]
		null := false
		for _, col := range j.keyCols {
			if col[r].IsNull() {
				null = true
				break
			}
			j.keyBuf = col[r].HashKey(j.keyBuf)
		}
		if null {
			continue
		}
		j.curPhys = r
		j.matches = j.table.idx[string(j.keyBuf)]
		j.matchIx = 0
	}
}

// finish finalizes the pending output batch (recomputing null bitmaps) or
// reports end of stream.
func (j *BatchHashJoinIter) finish() (*RowBatch, error) {
	if j.outLen == 0 {
		return nil, nil
	}
	for c := range j.out.Cols {
		j.out.SetCol(c, j.out.Cols[c])
	}
	j.out.SetLen(j.outLen)
	j.outLen = 0
	return j.out, nil
}

// Close implements BatchIterator.
func (j *BatchHashJoinIter) Close() {
	j.Probe.Close()
	j.Build.Close()
	if j.out != nil {
		PutBatch(j.out)
		j.out = nil
	}
}
