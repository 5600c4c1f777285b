package exec

import (
	"fmt"
	"slices"
	"sync"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// DefaultBatchSize is the rows-per-batch of every pipeline: the most rows
// a scan transposes at once and the most any operator emits in one batch.
const DefaultBatchSize = 1024

// NullBitmap tracks NULLs of one batch column, one bit per row (bit set =
// NULL). Kernels use AnyNull to skip per-row NULL checks on all-valid
// columns.
type NullBitmap []uint64

// Set marks row i NULL.
func (m NullBitmap) Set(i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether row i is NULL.
func (m NullBitmap) Get(i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// AnyNull reports whether any bit is set.
func (m NullBitmap) AnyNull() bool {
	for _, w := range m {
		if w != 0 {
			return true
		}
	}
	return false
}

func bitmapWords(n int) int { return (n + 63) / 64 }

// RowBatch is a column-major batch of rows: Cols[j][i] is column j of row
// i, and Nulls[j] is column j's null bitmap. Batches returned by a
// BatchIterator are owned by that iterator and valid only until its next
// NextBatch or Close call; consumers that retain data must copy it.
type RowBatch struct {
	n     int
	Cols  [][]types.Datum
	Nulls []NullBitmap
	// Segs, when non-nil, carries the column segments backing this batch:
	// Segs[j] is the striped encoding of column j when the batch aliases a
	// frozen heap page, nil for plain columns. Only the scan sets it;
	// segment-aware operators (BatchMultiExtractIter.SegKernel) may read a
	// column's values straight from the segment instead of Cols[j].
	Segs []storage.ColumnSegment
	// Sel, when non-nil, is the batch's selection vector: the logical rows
	// are Cols[j][Sel[0]], Cols[j][Sel[1]], ... in that order, and Len()
	// reports len(Sel). Columns always keep their full physical length
	// (PhysLen rows) so filtered batches can alias immutable frozen-page
	// vectors without compaction. Operators reading columns must either
	// iterate through Sel (selIdx) or be materializing boundaries that
	// compact the batch to dense form.
	Sel []int32
}

// NewRowBatch returns an empty batch of the given width with capacity for
// capHint rows per column.
func NewRowBatch(width, capHint int) *RowBatch {
	b := &RowBatch{
		Cols:  make([][]types.Datum, width),
		Nulls: make([]NullBitmap, width),
	}
	for j := range b.Cols {
		b.Cols[j] = make([]types.Datum, 0, capHint)
		b.Nulls[j] = make(NullBitmap, bitmapWords(capHint))
	}
	return b
}

// Len returns the number of logical rows in the batch: the selection
// length when a selection vector is attached, the physical row count
// otherwise.
func (b *RowBatch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// PhysLen returns the physical row count of the batch's columns,
// independent of any selection vector. Kernels that run over every stored
// row (segment extraction, column materialization) size their outputs by
// it; Sel entries index into [0, PhysLen).
func (b *RowBatch) PhysLen() int { return b.n }

// selIdx maps logical row si to its physical index through sel; the
// identity when no selection vector is attached.
func selIdx(sel []int32, si int) int {
	if sel != nil {
		return int(sel[si])
	}
	return si
}

// Width returns the number of columns.
func (b *RowBatch) Width() int { return len(b.Cols) }

// lazySeg returns the segment behind column j of b when the batch carries
// the column as a segment alone (a scan's lazy column), nil otherwise.
func lazySeg(b *RowBatch, j int) storage.ColumnSegment {
	if j < len(b.Segs) && len(b.Cols[j]) < b.PhysLen() {
		return b.Segs[j]
	}
	return nil
}

// Reset empties the batch, keeping column capacity.
func (b *RowBatch) Reset() {
	b.n = 0
	b.Segs = nil
	b.Sel = nil
	for j := range b.Cols {
		b.Cols[j] = b.Cols[j][:0]
		for w := range b.Nulls[j] {
			b.Nulls[j][w] = 0
		}
	}
}

// AppendRow transposes one row into the batch. The row width must match
// the batch width.
func (b *RowBatch) AppendRow(row storage.Row) {
	i := b.n
	for j, d := range row {
		b.Cols[j] = append(b.Cols[j], d)
		if d.IsNull() {
			b.growNulls(j, i+1)
			b.Nulls[j].Set(i)
		}
	}
	b.n++
}

// growNulls makes sure column j's bitmap covers n rows.
func (b *RowBatch) growNulls(j, n int) {
	want := bitmapWords(n)
	for len(b.Nulls[j]) < want {
		b.Nulls[j] = append(b.Nulls[j], 0)
	}
}

// SetCol installs a fully materialized column (len must equal the batch
// length for every installed column) and recomputes its null bitmap.
func (b *RowBatch) SetCol(j int, col []types.Datum) {
	b.Cols[j] = col
	b.growNulls(j, len(col))
	m := b.Nulls[j][:bitmapWords(len(col))]
	for w := range m {
		m[w] = 0
	}
	for i := range col {
		if col[i].IsNull() {
			m.Set(i)
		}
	}
	if len(col) > b.n {
		b.n = len(col)
	}
}

// SetLen declares the row count after columns were written directly.
func (b *RowBatch) SetLen(n int) { b.n = n }

// setRows declares n rows after every column was appended to directly,
// rebuilding the null bitmaps.
func (b *RowBatch) setRows(n int) {
	for j := range b.Cols {
		b.SetCol(j, b.Cols[j])
	}
	b.n = n
}

// AliasCol makes column j share column srcIdx of src — data and null
// bitmap — without copying or rescanning. The alias is valid as long as
// src's current batch contents are.
func (b *RowBatch) AliasCol(j int, src *RowBatch, srcIdx int) {
	b.Cols[j] = src.Cols[srcIdx]
	b.Nulls[j] = src.Nulls[srcIdx]
	if n := len(b.Cols[j]); n > b.n {
		b.n = n
	}
}

// FillRows replaces the batch contents, selection vector included, with a
// column-wise transpose of rows, growing column and bitmap capacity as
// needed. It is the bulk
// equivalent of calling AppendRow per row, without per-cell append and
// bitmap-grow checks. When cols is non-nil only those column indices are
// materialized; the rest stay empty (length 0) — the pruned-scan shape,
// where unreferenced columns are never copied out of the heap.
func (b *RowBatch) FillRows(rows []storage.Row, cols []int) {
	words := bitmapWords(len(rows))
	if cols == nil {
		for j := range b.Cols {
			b.fillCol(j, rows, words)
		}
	} else {
		for j := range b.Cols {
			b.Cols[j] = b.Cols[j][:0]
			b.Nulls[j] = b.Nulls[j][:0]
		}
		for _, j := range cols {
			b.fillCol(j, rows, words)
		}
	}
	b.n = len(rows)
	b.Sel = nil
}

// fillCol transposes column j of rows into the batch.
func (b *RowBatch) fillCol(j int, rows []storage.Row, words int) {
	n := len(rows)
	col := b.Cols[j]
	if cap(col) < n {
		col = make([]types.Datum, n)
	}
	col = col[:n]
	m := b.Nulls[j]
	if cap(m) < words {
		m = make(NullBitmap, words)
	}
	m = m[:words]
	for w := range m {
		m[w] = 0
	}
	for i, r := range rows {
		col[i] = r[j]
		if col[i].IsNull() {
			m.Set(i)
		}
	}
	b.Cols[j], b.Nulls[j] = col, m
}

// batchPool recycles RowBatch shells between operators; capacity sizing
// happens lazily in the operators themselves.
var batchPool = sync.Pool{New: func() any { return &RowBatch{} }}

// GetBatch fetches a pooled batch resized to the given width (column
// contents are reset, capacity retained where possible).
func GetBatch(width int) *RowBatch {
	b := batchPool.Get().(*RowBatch)
	for len(b.Cols) < width {
		b.Cols = append(b.Cols, nil)
		b.Nulls = append(b.Nulls, nil)
	}
	b.Cols = b.Cols[:width]
	b.Nulls = b.Nulls[:width]
	b.Reset()
	return b
}

// PutBatch returns a batch to the pool. The caller must not use it again.
func PutBatch(b *RowBatch) {
	if b != nil {
		batchPool.Put(b)
	}
}

// BatchIterator is the batch-at-a-time operator interface. NextBatch
// returns a non-empty batch, or (nil, nil) at end of stream; the batch is
// valid until the next NextBatch or Close call on the same iterator.
type BatchIterator interface {
	NextBatch() (*RowBatch, error)
	Close()
}

// BatchSizeHinter is optionally implemented by batch iterators that know
// (or can bound) their cardinality up front; CollectBatches and
// BatchSortIter use it to size their buffers once.
type BatchSizeHinter interface {
	// SizeHint returns the expected row count; exact reports whether the
	// count is precise rather than an upper bound.
	SizeHint() (n int64, exact bool)
}

// ---------- Batch scan ----------

// BatchScanIter is the batch scan — the leaf of every batch pipeline. It
// walks a heap page range in one loop that picks its delivery per stretch
// of pages, because a heap is a union of two representations of the same
// rows (cold pages frozen into column vectors, the write-hot rest in row
// form) and selection and projection commute with that union:
//
//   - a frozen page becomes one batch whose plain columns alias the
//     page's immutable vectors (no per-row work) and whose segment columns
//     are decoded for this statement, at the rows it keeps, into vectors
//     of the scan's own; a column only segment kernels read is not decoded
//     at all (LazyCols): RowBatch.Segs carries the column segments so
//     segment-aware operators can skip the datums entirely;
//   - a run of row-form pages is transposed, up to DefaultBatchSize rows at
//     a time, into a scan-owned buffer.
//
// Either way the scan's SelFilter runs over the batch and publishes the
// rows that pass through RowBatch.Sel (selfilter.go); no row is ever
// moved. A fully frozen heap therefore yields one batch per page, a
// never-frozen one DefaultBatchSize-row batches, and a mixed one both, in
// heap order.
//
// Set-up is the constructor's filter, then NeedCols, SetParams,
// SetPageSkip and SetSelFilter, all before the first NextBatch
// (plan.ScanNode.Open is the one place the planner does it).
type BatchScanIter struct {
	// NeedCols, when non-nil, lists the only column indices downstream
	// operators read (ascending). The scan materializes just those columns
	// into its batches; the rest stay empty.
	NeedCols []int
	// LazyCols lists needed columns that no operator above reads as
	// values: a segment kernel or a Top-N takes them through
	// RowBatch.Segs, or only the filter reads them. On a frozen page where
	// one is segment-backed the scan decodes it only for a conjunct that
	// reads it; a kernel that declines the segment decodes it for itself,
	// and a Top-N decodes the rows it keeps.
	LazyCols []int

	chunk *storage.HeapChunkIter
	width int
	nrows int64 // live rows at open (for SizeHint; no filter only)
	ctx   *EvalCtx
	shell *RowBatch // frozen-page shell; aliases, never pooled/Reset
	own   *RowBatch // pooled transpose buffer for row-form runs

	// The filter, its evaluation state, and the count of
	// selection-carrying batches returned (flushed to the heap's stats on
	// Close).
	sf         *SelFilter
	eval       *selEval
	heap       *storage.Heap
	selBatches int64

	// ids is the address of each physical row of the batch NextBatch last
	// returned, when the scan reports them (ReportRowIDs).
	ids []storage.RowID

	// The frozen page being delivered (nil for a row-form run) and the
	// decoder of its segment columns.
	fp  *storage.FrozenPage
	dec *segDecoder
}

// NewBatchScan returns a batch scan over all pages of v, filtered by
// filter (nil: none), compiled as one conjunct with no extraction slots;
// SetSelFilter replaces it with a plan's ranked form. Stat flushes on
// Close key on the view's owner heap, so snapshot scans account like live
// scans.
func NewBatchScan(v storage.ReadView, filter Expr) *BatchScanIter {
	s := &BatchScanIter{
		chunk: v.IterateChunks(),
		width: len(v.Schema().Cols),
		ctx:   NewEvalCtx(),
		heap:  v.Owner(),
		nrows: v.NumRows(),
	}
	if filter != nil {
		s.sf = CompileSelFilter([]Expr{filter}, s.width, nil, nil)
	}
	return s
}

// SetParams gives the scan the statement's parameter values: its filter
// and the page-skip test read them.
func (s *BatchScanIter) SetParams(params []types.Datum) { s.ctx.SetParams(params) }

// SetPageSkip installs the page-skip predicate mk derives from the scan's
// chunk cursor (storage page summaries) and the statement's parameter
// values: mk runs here, at open, so it sees the pages this scan will read
// and none it will not, and the values this execution is bound to.
func (s *BatchScanIter) SetPageSkip(mk func(*storage.HeapChunkIter, []types.Datum) func(*storage.PageSummary) bool) {
	s.chunk.SetSkip(mk(s.chunk, s.ctx.params))
}

// SetSelFilter installs the plan-compiled filter, whose conjunction must
// be equivalent to the constructor's filter; nil keeps that one.
func (s *BatchScanIter) SetSelFilter(sf *SelFilter) {
	if sf != nil {
		s.sf = sf
	}
}

// ReportRowIDs makes the scan record where each row it returns is stored
// (RowIDs): a write's scan asks for them, a SELECT's does not and does no
// work for them. Call before the first NextBatch.
func (s *BatchScanIter) ReportRowIDs() { s.chunk.ReportRowIDs() }

// RowIDs returns the address of each physical row of the batch NextBatch
// last returned (index it as the batch's columns, through its Sel); nil
// unless ReportRowIDs was called. Valid until the next NextBatch.
func (s *BatchScanIter) RowIDs() []storage.RowID { return s.ids }

// NextBatch implements BatchIterator.
func (s *BatchScanIter) NextBatch() (*RowBatch, error) {
	for {
		pv, ok := s.chunk.ReadPage(DefaultBatchSize)
		if !ok {
			return nil, nil
		}
		s.ids = pv.IDs
		var b *RowBatch
		if pv.Frozen == nil {
			b = s.rowBatch(pv.Rows)
		} else {
			b = s.frozenBatch(pv.Frozen)
		}
		sel, err := s.filter(b)
		if err != nil {
			return nil, err
		}
		b.Sel = sel
		if b.Len() == 0 {
			continue // everything filtered out: read on
		}
		if err := s.fillNeeded(sel, false); err != nil {
			return nil, err
		}
		if sel != nil {
			s.selBatches++
		}
		return b, nil
	}
}

// filter runs the scan's SelFilter over b and returns the rows that pass
// (nil: all of them). A conjunct that fails sends the batch to a replay of
// the whole conjunction over every row, which reads every needed column.
func (s *BatchScanIter) filter(b *RowBatch) ([]int32, error) {
	if s.sf == nil {
		return nil, nil
	}
	if s.eval == nil {
		s.eval = newSelEval(s.sf, s.width)
	}
	s.eval.begin(b)
	if sel, err := s.eval.narrow(s.ctx, s); err == nil {
		return sel, nil
	}
	if err := s.fillNeeded(nil, true); err != nil {
		return nil, err
	}
	return s.eval.replay(b, s.ctx)
}

// rowBatch transposes a run of row-form rows into the scan-owned batch.
// The buffer is separate from the frozen-page shell — FillRows reuses
// column capacity, which must never overwrite aliased page vectors — and
// pooled, so column capacity survives across queries.
func (s *BatchScanIter) rowBatch(rows []storage.Row) *RowBatch {
	if s.own == nil {
		s.own = GetBatch(s.width)
	}
	s.fp = nil
	s.own.FillRows(rows, s.NeedCols)
	return s.own
}

// frozenBatch starts delivering fp in the shell: needed plain columns
// alias the page's vectors, and every segment-backed column rides in Segs,
// decoded only as it is filled.
func (s *BatchScanIter) frozenBatch(fp *storage.FrozenPage) *RowBatch {
	b := s.shell
	if b == nil {
		b = &RowBatch{
			Cols:  make([][]types.Datum, s.width),
			Nulls: make([]NullBitmap, s.width),
			Segs:  make([]storage.ColumnSegment, s.width),
		}
		s.shell = b
	}
	s.fp = fp
	if s.dec != nil {
		s.dec.forget()
	}
	for j := 0; j < s.width; j++ {
		vals, nulls, seg := fp.Col(j)
		b.Cols[j], b.Nulls[j], b.Segs[j] = nil, nil, seg
		if seg == nil && s.needs(j) {
			b.Cols[j], b.Nulls[j] = vals, nulls
		}
	}
	b.n = fp.NumRows()
	b.Sel = nil
	return b
}

// needs reports whether the operators above or the filter read column j.
func (s *BatchScanIter) needs(j int) bool {
	return s.NeedCols == nil || slices.Contains(s.NeedCols, j)
}

// fill decodes segment column j of the page being delivered at the rows
// of sel (every row when sel is nil) into the shell and the filter's view,
// unless it is already there; plain columns are in place from the start,
// and so is every column of a row-form run.
func (s *BatchScanIter) fill(j int, sel []int32) error {
	if s.fp == nil || s.shell.Segs[j] == nil {
		return nil
	}
	d := useDecoder(&s.dec, s.width)
	if !d.held(j, sel) {
		if _, _, err := d.decode(j, s.shell.Segs[j], sel); err != nil {
			return err
		}
	}
	s.shell.Cols[j], s.shell.Nulls[j] = d.cols[j], d.nulls[j]
	if s.eval != nil {
		s.eval.view.Cols[j] = d.cols[j]
	}
	return nil
}

// fillNeeded decodes the page's needed segment columns at the rows of sel
// — what the operators above read. A lazy one stays undecoded unless all
// is set: a replay of the filter and a conjunct whose columns are unknown
// read every needed column.
func (s *BatchScanIter) fillNeeded(sel []int32, all bool) error {
	if s.fp == nil {
		return nil
	}
	for j := 0; j < s.width; j++ {
		if s.shell.Segs[j] == nil || !s.needs(j) || !all && slices.Contains(s.LazyCols, j) {
			continue
		}
		if err := s.fill(j, sel); err != nil {
			return err
		}
	}
	return nil
}

// segDecoder decodes the segment columns of frozen pages for the readers
// of their values, per statement: each column into a vector of its own
// that the next page reuses, at the rows a selection keeps. The bytes the
// segments build (a spliced record) go into an arena whose bytes are never
// written again, so values a consumer keeps past the batch stay valid. The
// vectors are pooled, like the batches a scan transposes rows into.
type segDecoder struct {
	cols  [][]types.Datum
	nulls []NullBitmap
	// state is what decode last left in each column since forget.
	state []fillState
	bytes storage.ValueArena
	width int // the columns to make room for at the first decode
}

// fillState is how much of a page's column a decoder holds.
type fillState uint8

const (
	unfilled fillState = iota
	filledSel
	filledAll
)

var segDecoders = sync.Pool{New: func() any { return new(segDecoder) }}

// useDecoder returns *d, taking a decoder for batches of width columns
// from the pool first when there is none.
func useDecoder(d **segDecoder, width int) *segDecoder {
	if *d == nil {
		*d = segDecoders.Get().(*segDecoder)
		(*d).width = width
	}
	return *d
}

// release returns d to the pool: its vectors cleared, so they pin no value,
// and without its arena, whose bytes values may still alias. The caller
// must not use d again.
func (d *segDecoder) release() {
	for j := range d.cols {
		clear(d.cols[j])
	}
	d.forget()
	d.bytes = storage.ValueArena{}
	segDecoders.Put(d)
}

// forget starts a new page: no column is held.
func (d *segDecoder) forget() { clear(d.state) }

// held reports whether column j, as decode last left it since forget,
// serves a reader of the rows of sel: decoded at every row, or at a
// selection while sel is one too — a page's selection only narrows until
// its batch is returned, except for a replay, which reads every row.
func (d *segDecoder) held(j int, sel []int32) bool {
	if j >= len(d.state) {
		return false
	}
	f := d.state[j]
	return f == filledAll || f == filledSel && sel != nil
}

// decode decodes column j of a page from seg at the rows of sel (every
// row when sel is nil). The rows sel drops read NULL: nothing reads them
// through the selection, and a row kernel run over every physical row
// extracts nothing from them.
func (d *segDecoder) decode(j int, seg storage.ColumnSegment, sel []int32) ([]types.Datum, NullBitmap, error) {
	if len(d.cols) <= j {
		w := max(j+1, d.width)
		d.cols = slices.Grow(d.cols, w-len(d.cols))[:w]
		d.nulls = slices.Grow(d.nulls, w-len(d.nulls))[:w]
		d.state = slices.Grow(d.state, w-len(d.state))[:w]
	}
	n := seg.NumRows()
	col, m := d.cols[j], d.nulls[j]
	if cap(col) < n {
		col = make([]types.Datum, n)
	}
	if words := bitmapWords(n); cap(m) < words {
		m = make(NullBitmap, words)
	} else {
		m = m[:words]
		clear(m)
	}
	col = col[:n]
	d.cols[j], d.nulls[j], d.state[j] = col, m, unfilled
	if sel == nil {
		if err := seg.Values(col, 0, &d.bytes); err != nil {
			return nil, nil, err
		}
	} else {
		null := types.NewNull(types.Bytes)
		for i := range col {
			col[i] = null
		}
		for _, i := range sel {
			if err := seg.Values(col[i:i+1], int(i), &d.bytes); err != nil {
				return nil, nil, err
			}
		}
	}
	for i := range col {
		if col[i].IsNull() {
			m.Set(i)
		}
	}
	d.state[j] = filledAll
	if sel != nil {
		d.state[j] = filledSel
	}
	return col, m, nil
}

// Close implements BatchIterator.
func (s *BatchScanIter) Close() {
	s.chunk.Close()
	if s.selBatches > 0 && s.heap != nil {
		s.heap.RecordSelBatches(s.selBatches)
		s.selBatches = 0
	}
	if s.own != nil {
		PutBatch(s.own)
		s.own = nil
	}
	if s.dec != nil {
		s.dec.release()
		s.dec = nil
	}
}

// SizeHint implements BatchSizeHinter: exact when unfiltered.
func (s *BatchScanIter) SizeHint() (int64, bool) {
	if s.sf != nil {
		return 0, false
	}
	return s.nrows, true
}

// ---------- Batch filter / project / limit ----------

// BatchFilterIter drops the rows of its input that fail Filter, run as a
// scan runs its own (ranked conjuncts, a replay of the whole conjunction
// on any error), without extraction slots. The batch it returns is its
// input's, columns aliased, under a narrowed selection vector of the
// filter's own.
type BatchFilterIter struct {
	In     BatchIterator
	Filter *SelFilter
	// Params are the statement's parameter values, for a Filter holding
	// ParamExprs.
	Params []types.Datum

	ctx  *EvalCtx
	eval *selEval
}

// NextBatch implements BatchIterator.
func (f *BatchFilterIter) NextBatch() (*RowBatch, error) {
	if f.ctx == nil {
		f.ctx = NewEvalCtx()
		f.ctx.SetParams(f.Params)
	}
	for {
		in, err := f.In.NextBatch()
		if in == nil || err != nil {
			return nil, err
		}
		if f.eval == nil {
			f.eval = newSelEval(f.Filter, in.Width())
		}
		f.eval.begin(in)
		sel, err := f.eval.narrow(f.ctx, nil)
		if err != nil {
			if sel, err = f.eval.replay(in, f.ctx); err != nil {
				return nil, err
			}
		}
		out := f.eval.view
		out.Sel = sel
		if out.Len() > 0 {
			return out, nil
		}
	}
}

// Close implements BatchIterator.
func (f *BatchFilterIter) Close() { f.In.Close() }

// RowBudgeter is implemented by cardinality-preserving batch operators
// that can skip work for rows a LIMIT above them will discard. A parent
// LIMIT announces the remaining row budget before each NextBatch pull; the
// operator truncates its input batch to the budget *before* evaluating
// expressions, so a pipeline never evaluates (and never surfaces errors
// from) rows the LIMIT discards.
type RowBudgeter interface {
	SetRowBudget(n int64)
}

// truncateBatch trims b to at most n logical rows (pruned empty columns
// are left untouched). A selection-carrying batch is trimmed by shortening
// its selection vector; the physical columns stay intact because they may
// alias immutable frozen-page storage.
func truncateBatch(b *RowBatch, n int64) {
	if n < 0 || int64(b.Len()) <= n {
		return
	}
	if b.Sel != nil {
		b.Sel = b.Sel[:n]
		return
	}
	for j := range b.Cols {
		if int64(len(b.Cols[j])) > n {
			b.Cols[j] = b.Cols[j][:n]
		}
	}
	b.n = int(n)
}

// BatchProjectIter evaluates output expressions once per batch. Output
// columns may alias input columns (plain column projections are free).
type BatchProjectIter struct {
	In    BatchIterator
	Exprs []Expr

	ctx       *EvalCtx
	out       *RowBatch
	budget    int64
	budgetSet bool
}

// SetRowBudget implements RowBudgeter: projection preserves cardinality,
// so rows beyond the parent LIMIT's budget can be dropped before any
// expression is evaluated.
func (p *BatchProjectIter) SetRowBudget(n int64) {
	p.budget, p.budgetSet = n, true
	if rb, ok := p.In.(RowBudgeter); ok {
		rb.SetRowBudget(n)
	}
}

// NextBatch implements BatchIterator.
func (p *BatchProjectIter) NextBatch() (*RowBatch, error) {
	if p.ctx == nil {
		p.ctx = NewEvalCtx()
	}
	in, err := p.In.NextBatch()
	if err != nil {
		return nil, err
	}
	if in == nil {
		return nil, nil
	}
	if p.budgetSet {
		truncateBatch(in, p.budget)
		p.budgetSet = false
	}
	if p.out == nil {
		p.out = &RowBatch{
			Cols:  make([][]types.Datum, len(p.Exprs)),
			Nulls: make([]NullBitmap, len(p.Exprs)),
		}
	}
	out := p.out
	out.n = 0
	for j, e := range p.Exprs {
		// Plain column projections alias the input column and its bitmap;
		// no copy, no bitmap rescan.
		if ce, ok := e.(*ColExpr); ok && ce.Idx >= 0 && ce.Idx < in.Width() {
			out.AliasCol(j, in, ce.Idx)
			continue
		}
		col, err := EvalBatch(e, in, p.ctx)
		if err != nil {
			return nil, err
		}
		out.SetCol(j, col)
	}
	// Projection preserves the physical layout: output columns are aliases
	// or PhysLen-sized evaluation results, so the input's selection vector
	// carries over verbatim.
	out.n = in.PhysLen()
	out.Sel = in.Sel
	return out, nil
}

// Close implements BatchIterator.
func (p *BatchProjectIter) Close() { p.In.Close() }

// SizeHint implements BatchSizeHinter (projection preserves cardinality).
func (p *BatchProjectIter) SizeHint() (int64, bool) {
	if sh, ok := p.In.(BatchSizeHinter); ok {
		return sh.SizeHint()
	}
	return 0, false
}

// BatchLimitIter stops after N rows, truncating the final batch.
type BatchLimitIter struct {
	In BatchIterator
	N  int64

	seen int64
}

// NextBatch implements BatchIterator.
func (l *BatchLimitIter) NextBatch() (*RowBatch, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	// Announce the remaining budget so budget-aware children (Project,
	// MultiExtract) stop evaluating expressions past the limit.
	if rb, ok := l.In.(RowBudgeter); ok {
		rb.SetRowBudget(l.N - l.seen)
	}
	b, err := l.In.NextBatch()
	if err != nil {
		return nil, err
	}
	if b == nil {
		return nil, nil
	}
	truncateBatch(b, l.N-l.seen)
	l.seen += int64(b.Len())
	return b, nil
}

// Close implements BatchIterator.
func (l *BatchLimitIter) Close() { l.In.Close() }

// ---------- Fused multi-extraction ----------

// BatchMultiExtractIter appends K computed columns to every input batch,
// all filled by one MultiExtractKernel invocation per batch: the kernel
// decodes each serialized record of column DataIdx once and resolves every
// requested key from that single pass, replacing K independent extraction
// UDF evaluations. Input columns pass through by alias.
type BatchMultiExtractIter struct {
	In      BatchIterator
	DataIdx int
	Kernel  MultiExtractKernel
	K       int
	// SegKernel, when set, handles batches whose data column carries a
	// striped ColumnSegment (RowBatch.Segs, attached by the scan):
	// the requested keys are read from the segment's per-attribute vectors
	// instead of decoding each record. A segment the kernel does not
	// recognize falls back to Kernel over the materialized column.
	SegKernel SegExtractKernel

	out       *RowBatch
	cols      [][]types.Datum
	segs      []storage.ColumnSegment
	dec       *segDecoder // the data column of a declined segment
	budget    int64
	budgetSet bool
}

// SetRowBudget implements RowBudgeter (extraction preserves cardinality).
func (m *BatchMultiExtractIter) SetRowBudget(n int64) {
	m.budget, m.budgetSet = n, true
	if rb, ok := m.In.(RowBudgeter); ok {
		rb.SetRowBudget(n)
	}
}

// NextBatch implements BatchIterator.
func (m *BatchMultiExtractIter) NextBatch() (*RowBatch, error) {
	in, err := m.In.NextBatch()
	if err != nil {
		return nil, err
	}
	if in == nil {
		return nil, nil
	}
	if m.budgetSet {
		truncateBatch(in, m.budget)
		m.budgetSet = false
	}
	inW := in.Width()
	outW := inW + m.K
	if m.out == nil {
		m.out = &RowBatch{
			Cols:  make([][]types.Datum, outW),
			Nulls: make([]NullBitmap, outW),
		}
		m.cols = make([][]types.Datum, m.K)
	}
	out := m.out
	out.n = 0
	for len(out.Cols) < outW {
		out.Cols = append(out.Cols, nil)
		out.Nulls = append(out.Nulls, nil)
	}
	for j := 0; j < inW; j++ {
		out.AliasCol(j, in, j)
	}
	// Segments pass through like columns do (appended extraction outputs
	// are plain), so a further extraction stacked above still sees its data
	// column striped.
	out.Segs = nil
	if in.Segs != nil {
		if cap(m.segs) < outW {
			m.segs = make([]storage.ColumnSegment, outW)
		}
		segs := m.segs[:outW]
		copy(segs, in.Segs)
		for j := len(in.Segs); j < outW; j++ {
			segs[j] = nil
		}
		out.Segs = segs
	}
	// Kernels fill every physical row: a selection-carrying batch keeps its
	// columns (and the backing segment) at full page length, and extraction
	// over rows the selection dropped is harmless — they are valid records.
	n := in.PhysLen()
	for k := 0; k < m.K; k++ {
		if cap(m.cols[k]) < n {
			m.cols[k] = make([]types.Datum, n)
		}
		m.cols[k] = m.cols[k][:n]
	}
	if err := extract(in, m.DataIdx, m.SegKernel, m.Kernel, &m.dec, m.cols); err != nil {
		return nil, err
	}
	for k := 0; k < m.K; k++ {
		out.SetCol(inW+k, m.cols[k])
	}
	out.n = n
	out.Sel = in.Sel
	return out, nil
}

// extract fills cols, PhysLen rows each, with the keys a fused extraction
// requests from column j of b. segK reads them straight from the column's
// segment when the segment has the batch's rows and segK accepts it;
// otherwise rowK decodes the column's records, the column first decoded
// by *dec at the rows b keeps when b carries it as its segment alone (a
// scan's lazy column).
func extract(b *RowBatch, j int, segK SegExtractKernel, rowK MultiExtractKernel, dec **segDecoder, cols [][]types.Datum) error {
	n := b.PhysLen()
	if segK != nil && j < len(b.Segs) {
		if seg := b.Segs[j]; seg != nil && seg.NumRows() == n {
			if handled, err := segK(seg, cols); handled || err != nil {
				return err
			}
		}
	}
	data := b.Cols[j]
	if seg := lazySeg(b, j); seg != nil {
		var err error
		if data, _, err = useDecoder(dec, b.Width()).decode(j, seg, b.Sel); err != nil {
			return err
		}
	}
	if len(data) != n {
		return fmt.Errorf("exec: extraction data column %d not materialized (%d of %d rows)", j, len(data), n)
	}
	return rowK(data, cols)
}

// Close implements BatchIterator.
func (m *BatchMultiExtractIter) Close() {
	m.In.Close()
	if m.dec != nil {
		m.dec.release()
		m.dec = nil
	}
}

// SizeHint implements BatchSizeHinter (extraction preserves cardinality).
func (m *BatchMultiExtractIter) SizeHint() (int64, bool) {
	if sh, ok := m.In.(BatchSizeHinter); ok {
		return sh.SizeHint()
	}
	return 0, false
}

// SizeHint implements BatchSizeHinter.
func (l *BatchLimitIter) SizeHint() (int64, bool) {
	if sh, ok := l.In.(BatchSizeHinter); ok {
		if n, exact := sh.SizeHint(); exact {
			if n > l.N {
				n = l.N
			}
			return n, true
		}
	}
	return l.N, true
}
