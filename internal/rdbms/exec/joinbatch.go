package exec

import (
	"slices"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// joinBuildTable is the columnar build side of a batch hash join: cells
// live in per-column arrays, the join keys in a key table, and each key id
// heads a chain of the build rows holding it, in build order, so building
// and probing never allocate a per-row storage.Row or a key. Columns the
// build pipeline pruned contribute zero Datums, matching what any row view
// of a pruned column yields.
//
// A probe key's matches are the build rows whose keys are types.Equal to
// it. When every build key is Interchangeable with its id's first key and
// no two ids share a hash, those are exactly one id's chain. Otherwise —
// an Int of magnitude 2^53 or more beside a Float, or a hash collision —
// the table is inexact and a probe tests each row of every id with the
// probe's hash against the row's own key (joinMatches).
type joinBuildTable struct {
	width   int
	rows    int
	cols    [][]types.Datum
	keys    *keyTable
	rowKeys [][]types.Datum // rowKeys[k][row]: build row's key column k
	first   []int32         // first[id]: key id's first build row
	last    []int32         // last[id]: key id's last build row
	next    []int32         // next[row]: the next build row of row's key, -1 at the end
	inexact bool
}

func newJoinBuildTable(width, nkeys int) *joinBuildTable {
	return &joinBuildTable{
		width:   width,
		cols:    make([][]types.Datum, width),
		keys:    newKeyTable(nkeys),
		rowKeys: make([][]types.Datum, nkeys),
	}
}

// addBatches drains a batch iterator into the table (closing it), keying
// each row on keys. Rows with a NULL key cell are never entered, and rows
// enter in stream order, so a key's matches come out in build order.
func (t *joinBuildTable) addBatches(in BatchIterator, keys []Expr) error {
	defer in.Close()
	defer func() { t.inexact = t.inexact || t.keys.collided }()
	ctx := NewEvalCtx()
	keyCols := make([][]types.Datum, len(keys))
	var hashes []uint64
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
		sel := b.Sel
		phys := b.PhysLen()
		hashes = hashKeys(hashes, keyCols, sel, b.Len())
		for si, h := range hashes {
			r := selIdx(sel, si)
			if anyNull(keyCols, r) {
				continue
			}
			row := int32(t.rows)
			for j := 0; j < t.width; j++ {
				var v types.Datum
				if j < len(b.Cols) {
					if col := b.Cols[j]; len(col) == phys {
						v = col[r]
					}
				}
				t.cols[j] = append(t.cols[j], v)
			}
			for k, col := range keyCols {
				t.rowKeys[k] = append(t.rowKeys[k], col[r])
			}
			t.rows++
			t.next = append(t.next, -1)
			id, isNew := t.keys.insert(keyCols, r, h)
			if isNew {
				t.first = append(t.first, row)
				t.last = append(t.last, row)
				continue
			}
			t.next[t.last[id]] = row
			t.last[id] = row
			for k, col := range keyCols {
				t.inexact = t.inexact || !types.Interchangeable(t.keys.cols[k][id], col[r])
			}
		}
	}
}

// joinMatches walks the build rows matching one probe key, in build
// order. The table is read-only once built, so each probing goroutine
// owns one.
type joinMatches struct {
	t    *joinBuildTable
	row  int32   // the current match, -1 after the last
	list []int32 // an inexact table's matches; row is list[pos]
	pos  int
	ids  []int32
}

// start returns the first build row matching the key at row i of cols,
// whose hash is h, or -1 for none (a NULL key matches nothing).
func (m *joinMatches) start(cols [][]types.Datum, i int, h uint64) int32 {
	t := m.t
	m.row = -1
	if anyNull(cols, i) {
		return -1
	}
	if !t.inexact {
		if id := t.keys.lookup(cols, i, h); id >= 0 {
			m.row = t.first[id]
		}
		return m.row
	}
	m.list, m.pos = m.list[:0], 0
	m.ids = t.keys.appendIDs(m.ids[:0], h)
	for _, id := range m.ids {
	rows:
		for r := t.first[id]; r >= 0; r = t.next[r] {
			for k, col := range cols {
				if !types.Equal(t.rowKeys[k][r], col[i]) {
					continue rows
				}
			}
			m.list = append(m.list, r)
		}
	}
	slices.Sort(m.list)
	if len(m.list) > 0 {
		m.row = m.list[0]
	}
	return m.row
}

// next returns the next matching build row, or -1 after the last.
func (m *joinMatches) next() int32 {
	switch {
	case m.row < 0:
	case !m.t.inexact:
		m.row = m.t.next[m.row]
	case m.pos+1 < len(m.list):
		m.pos++
		m.row = m.list[m.pos]
	default:
		m.row = -1
	}
	return m.row
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

	// table, set at construction, is a build table shared read-only with
	// the other probes of one partitioned-probe join; Build is nil then.
	table   *joinBuildTable
	built   bool
	err     error
	ctx     *EvalCtx
	keyCols [][]types.Datum
	hashes  []uint64
	in      *RowBatch
	si      int
	curPhys int
	matches joinMatches
	match   int32 // the next build row matching the probe row, -1 for none
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
		if j.table == nil {
			j.table = newJoinBuildTable(j.BuildWidth, len(j.BuildKeys))
			j.err = j.table.addBatches(j.Build, j.BuildKeys)
		}
		j.matches.t = j.table
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
			j.match = -1
			j.probeW = b.Width()
			j.ctx.BeginBatch()
			for k, ke := range j.ProbeKeys {
				if j.keyCols[k], err = EvalBatch(ke, b, j.ctx); err != nil {
					return nil, err
				}
			}
			j.hashes = hashKeys(j.hashes, j.keyCols, b.Sel, b.Len())
			if j.out == nil {
				j.out = GetBatch(j.probeW + j.table.width)
			}
		}
		for j.match >= 0 {
			bid := j.match
			j.match = j.matches.next()
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
		j.curPhys = r
		j.match = j.matches.start(j.keyCols, r, j.hashes[j.si])
		j.si++
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
	if j.Build != nil {
		j.Build.Close()
	}
	if j.out != nil {
		PutBatch(j.out)
		j.out = nil
	}
}
