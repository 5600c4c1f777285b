package exec

import (
	"slices"

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
		for k, ke := range keys {
			if keyCols[k], err = EvalBatch(ke, b, ctx); err != nil {
				return err
			}
		}
		sel := b.Sel
		hashes = hashKeys(hashes, keyCols, sel, b.Len())
		for si, h := range hashes {
			r := selIdx(sel, si)
			if anyNull(keyCols, r) {
				continue
			}
			row := int32(t.rows)
			appendCells(t.cols, b, r)
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

// BatchHashJoinIter is the inner equi-join: both sides are consumed
// batch-at-a-time, join keys are evaluated column-at-a-time, the build
// side lives in a columnar joinBuildTable, and matches are assembled
// straight into reused output columns (joinOut). Output rows are probeRow
// ++ buildRow in probe order × build insertion order, NULL keys never
// match, and Residual is checked once per output batch.
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
	out     joinOut
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
	j.out.begin(j.Residual)
	for {
		if j.out.full() {
			if b, err := j.out.flush(); b != nil || err != nil {
				return b, err
			}
		}
		if j.in == nil {
			b, err := j.Probe.NextBatch()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return j.out.flush()
			}
			j.in = b
			j.si = 0
			j.match = -1
			for k, ke := range j.ProbeKeys {
				if j.keyCols[k], err = EvalBatch(ke, b, j.ctx); err != nil {
					return nil, err
				}
			}
			j.hashes = hashKeys(j.hashes, j.keyCols, b.Sel, b.Len())
		}
		for j.match >= 0 && !j.out.full() {
			m := int(j.match)
			j.out.pairs(j.in, j.curPhys, j.table.cols, m, m+1)
			j.match = j.matches.next()
		}
		if j.match >= 0 {
			continue // the output batch is full
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

// Close implements BatchIterator.
func (j *BatchHashJoinIter) Close() {
	j.Probe.Close()
	if j.Build != nil {
		j.Build.Close()
	}
	j.out.close()
}

// cellAt returns column c of physical row r of b: a zero Datum for a
// column the scan pruned away.
func cellAt(b *RowBatch, c, r int) types.Datum {
	if col := b.Cols[c]; len(col) == b.PhysLen() {
		return col[r]
	}
	return types.Datum{}
}

// appendCells appends physical row r of b to the columns dst (a column b
// lacks gets a zero Datum).
func appendCells(dst [][]types.Datum, b *RowBatch, r int) {
	for c := range dst {
		var v types.Datum
		if c < len(b.Cols) {
			v = cellAt(b, c, r)
		}
		dst[c] = append(dst[c], v)
	}
}

// joinOut assembles a join's output batches: matched pairs — a row of the
// join's current left batch beside rows of columns the join holds (the
// hash join's build table, the merge join's run) — are appended to reused
// columns, and flush runs the join condition once per batch with
// EvalPredBatch, publishing the pairs it holds for as a selection vector.
type joinOut struct {
	cond Expr // nil: every pair joins
	ctx  *EvalCtx
	out  *RowBatch
	n    int
	keep []bool
	sel  []int32
}

// begin starts the next output batch; the one flush returned last is no
// longer read.
func (o *joinOut) begin(cond Expr) {
	if cond != nil && o.ctx == nil {
		o.cond, o.ctx = cond, NewEvalCtx()
	}
	if o.out != nil {
		o.out.Reset()
	}
	o.n = 0
}

func (o *joinOut) full() bool { return o.n >= DefaultBatchSize }

// pairs appends physical row r of l joined with each of rows [from, to)
// of right, as many as the batch has room for, and returns how many.
func (o *joinOut) pairs(l *RowBatch, r int, right [][]types.Datum, from, to int) int {
	k := min(to-from, DefaultBatchSize-o.n)
	if k <= 0 {
		return 0
	}
	lw := l.Width()
	if o.out == nil {
		o.out = GetBatch(lw + len(right))
	}
	cols := o.out.Cols
	for c := 0; c < lw; c++ {
		v := cellAt(l, c, r)
		for range k {
			cols[c] = append(cols[c], v)
		}
	}
	for c, col := range right {
		cols[lw+c] = append(cols[lw+c], col[from:from+k]...)
	}
	o.n += k
	return k
}

// flush returns the pending batch with the condition applied, or nil when
// no pair is pending or the condition held for none.
func (o *joinOut) flush() (*RowBatch, error) {
	if o.n == 0 {
		return nil, nil
	}
	b := o.out
	b.setRows(o.n)
	o.n = 0
	if o.cond == nil {
		return b, nil
	}
	keep, err := EvalPredBatch(o.cond, b, o.ctx, o.keep)
	if err != nil {
		return nil, err
	}
	o.keep, o.sel = keep, o.sel[:0]
	for i, k := range keep {
		if k {
			o.sel = append(o.sel, int32(i))
		}
	}
	switch len(o.sel) {
	case 0:
		b.Reset()
		return nil, nil
	case len(keep):
	default:
		b.Sel = o.sel
	}
	return b, nil
}

func (o *joinOut) close() {
	PutBatch(o.out)
	o.out = nil
}

// mergeCursor walks one input of a merge join a row at a time, evaluating
// the key columns once per batch and skipping rows whose key holds a NULL.
type mergeCursor struct {
	in   BatchIterator
	keys []Expr
	ctx  *EvalCtx
	b    *RowBatch
	cols [][]types.Datum // b's key columns
	si   int             // the current logical row of b
	r    int             // its physical row
	ok   bool            // there is a current row
}

// advance moves to the next row whose key holds no NULL, if any (ok).
func (c *mergeCursor) advance() error {
	if c.ctx == nil {
		c.ctx, c.cols, c.si = NewEvalCtx(), make([][]types.Datum, len(c.keys)), -1
	} else if !c.ok {
		return nil // the input has ended
	}
	c.ok = false
	for c.si++; ; c.si = 0 {
		for ; c.b != nil && c.si < c.b.Len(); c.si++ {
			if c.r = selIdx(c.b.Sel, c.si); !anyNull(c.cols, c.r) {
				c.ok = true
				return nil
			}
		}
		b, err := c.in.NextBatch()
		if err != nil || b == nil {
			return err
		}
		c.b = b
		for k, ke := range c.keys {
			if c.cols[k], err = EvalBatch(ke, b, c.ctx); err != nil {
				return err
			}
		}
	}
}

// keyEqualAt reports whether key equals physical row r of cols, column by
// column under types.KeyEqual.
func keyEqualAt(key []types.Datum, cols [][]types.Datum, r int) bool {
	for k, col := range cols {
		if !types.KeyEqual(key[k], col[r]) {
			return false
		}
	}
	return true
}

// BatchSortedJoinIter is the merge join (EXPLAIN "Merge Join"): an inner
// equi-join over inputs sorted ascending on their keys (the planner
// inserts the Sorts), which compareForSort orders. The right side's run of
// rows whose keys are types.KeyEqual to its first row's is copied into
// columns — a run may span batches — and each left row with that key
// pairs with the whole run. Without keys every right row is in the one
// run and every left row pairs with it: the nested-loop join (EXPLAIN
// "Nested Loop"). Residual is checked once per output batch (joinOut).
type BatchSortedJoinIter struct {
	Left      BatchIterator
	Right     BatchIterator
	LeftKeys  []Expr
	RightKeys []Expr
	Residual  Expr

	left   mergeCursor
	right  mergeCursor
	run    [][]types.Datum // the current right-side run's columns
	runLen int
	runKey []types.Datum
	runIx  int // the run's next row to pair with the current left row
	inRun  bool
	out    joinOut
}

// NextBatch implements BatchIterator.
func (m *BatchSortedJoinIter) NextBatch() (*RowBatch, error) {
	if m.left.in == nil {
		m.left.in, m.left.keys = m.Left, m.LeftKeys
		m.right.in, m.right.keys = m.Right, m.RightKeys
		if err := m.left.advance(); err != nil {
			return nil, err
		}
		if err := m.right.advance(); err != nil {
			return nil, err
		}
	}
	m.out.begin(m.Residual)
	for {
		if m.out.full() {
			if b, err := m.out.flush(); b != nil || err != nil {
				return b, err
			}
		}
		var err error
		switch {
		case m.inRun && m.runIx < m.runLen:
			m.runIx += m.out.pairs(m.left.b, m.left.r, m.run, m.runIx, m.runLen)
			continue
		case m.inRun:
			// The next left row with the run's key pairs with it too.
			if err = m.left.advance(); err == nil && m.left.ok && keyEqualAt(m.runKey, m.left.cols, m.left.r) {
				m.runIx = 0
				continue
			}
			m.inRun = false
		case !m.left.ok || !m.right.ok:
			return m.out.flush()
		default:
			switch c := m.compare(); {
			case c < 0:
				err = m.left.advance()
			case c > 0:
				err = m.right.advance()
			default:
				err = m.bufferRun()
			}
		}
		if err != nil {
			return nil, err
		}
	}
}

// compare orders the current left key against the current right key.
func (m *BatchSortedJoinIter) compare() int {
	for k, col := range m.left.cols {
		if c := compareForSort(col[m.left.r], m.right.cols[k][m.right.r], false); c != 0 {
			return c
		}
	}
	return 0
}

// bufferRun copies the right side's run of its current key into m.run,
// leaving the right cursor past it.
func (m *BatchSortedJoinIter) bufferRun() error {
	rt := &m.right
	m.runKey = m.runKey[:0]
	for _, col := range rt.cols {
		m.runKey = append(m.runKey, col[rt.r])
	}
	if m.run == nil {
		m.run = make([][]types.Datum, rt.b.Width())
	}
	for c := range m.run {
		m.run[c] = m.run[c][:0]
	}
	m.runLen, m.runIx, m.inRun = 0, 0, true
	for rt.ok && keyEqualAt(m.runKey, rt.cols, rt.r) {
		appendCells(m.run, rt.b, rt.r)
		m.runLen++
		if err := rt.advance(); err != nil {
			return err
		}
	}
	return nil
}

// Close implements BatchIterator.
func (m *BatchSortedJoinIter) Close() {
	m.Left.Close()
	m.Right.Close()
	m.out.close()
}
