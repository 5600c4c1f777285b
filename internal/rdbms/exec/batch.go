package exec

import (
	"fmt"
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

// FillRows replaces the batch contents with a column-wise transpose of
// rows, growing column and bitmap capacity as needed. It is the bulk
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

// Row copies row i into dst (reallocating when dst is too small) and
// returns it — the row-major view per-row fallback evaluation uses.
// Columns a pruned scan left empty yield zero Datums; the planner
// guarantees no consumer reads them.
func (b *RowBatch) Row(i int, dst storage.Row) storage.Row {
	if cap(dst) < len(b.Cols) {
		dst = make(storage.Row, len(b.Cols))
	}
	dst = dst[:len(b.Cols)]
	for j := range b.Cols {
		if col := b.Cols[j]; i < len(col) {
			dst[j] = col[i]
		} else {
			dst[j] = types.Datum{}
		}
	}
	return dst
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
//   - a frozen page becomes one batch whose columns alias the page's
//     immutable vectors (no per-row work; RowBatch.Segs carries the column
//     segments so segment-aware operators can skip the datums entirely).
//     Aliased storage is never compacted in place: a pushed-down filter
//     runs as a SelFilter over the page vectors and publishes the
//     surviving rows through RowBatch.Sel (selfilter.go);
//   - a run of row-form pages is transposed, up to DefaultBatchSize rows at
//     a time, into a scan-owned buffer and filtered by in-place compaction.
//
// A fully frozen heap therefore yields one batch per page, a never-frozen
// one DefaultBatchSize-row batches, and a mixed one both, in heap order.
//
// Set-up is the constructor's range and filter, then NeedCols, SetParams,
// SetPageSkip and SetSelFilter, all before the first NextBatch
// (plan.ScanNode.Open is the one place the planner does it, for the whole
// heap or a gather worker's partition).
type BatchScanIter struct {
	Filter Expr
	// NeedCols, when non-nil, lists the only column indices downstream
	// operators read (ascending). The scan materializes just those columns
	// into its batches; the rest stay empty.
	NeedCols []int

	chunk *storage.HeapChunkIter
	width int
	nrows int64 // live rows in the range at open (for SizeHint; no filter only)
	ctx   *EvalCtx
	keep  []bool
	shell *RowBatch // frozen-page shell; aliases, never pooled/Reset
	own   *RowBatch // pooled transpose buffer for row-form runs

	// In-scan selection filtering (selfilter.go): the compiled filter, its
	// per-scan state, and the count of selection-carrying batches emitted
	// (flushed to the heap's stats on Close).
	sf         *SelFilter
	selState   *selScanState
	heap       *storage.Heap
	selBatches int64
}

// NewBatchScan returns a batch scan over all pages of v.
func NewBatchScan(v storage.ReadView, filter Expr) *BatchScanIter {
	return NewBatchScanRange(v, filter, 0, v.NumPages())
}

// NewBatchScanRange returns a batch scan over pages [start, end) of v —
// one partition of a parallel pipeline. Stat flushes on Close key on the
// view's owner heap, so snapshot scans account like live scans.
func NewBatchScanRange(v storage.ReadView, filter Expr, start, end int) *BatchScanIter {
	s := &BatchScanIter{
		Filter: filter,
		chunk:  v.IterateRange(start, end),
		width:  len(v.Schema().Cols),
		ctx:    NewEvalCtx(),
		heap:   v.Owner(),
	}
	// The size hint is exact only without a filter. The whole heap knows
	// its row count; a partition counts the live rows of its own pages.
	switch {
	case filter != nil:
	case start <= 0 && end >= v.NumPages():
		s.nrows = v.NumRows()
	default:
		s.nrows = s.chunk.LiveRows()
	}
	return s
}

// SetParams gives the scan the statement's parameter values: its filter,
// the selection kernels and the page-skip test read them.
func (s *BatchScanIter) SetParams(params []types.Datum) { s.ctx.SetParams(params) }

// SetPageSkip installs the page-skip predicate mk derives from the scan's
// chunk cursor (storage page summaries) and the statement's parameter
// values: mk runs here, at open, so it sees the pages this scan will read
// and none it will not, and the values this execution is bound to.
func (s *BatchScanIter) SetPageSkip(mk func(*storage.HeapChunkIter, []types.Datum) func(*storage.PageSummary) bool) {
	s.chunk.SetSkip(mk(s.chunk, s.ctx.params))
}

// SetSelFilter installs the plan-compiled form of Filter for frozen pages;
// its conjunction must be equivalent to Filter, which stays the row-form
// and replay predicate. Without one (a plan made before the heap's first
// freeze, a scan built by hand) the first frozen page compiles Filter as a
// single conjunct.
func (s *BatchScanIter) SetSelFilter(sf *SelFilter) { s.sf = sf }

// NextBatch implements BatchIterator.
func (s *BatchScanIter) NextBatch() (*RowBatch, error) {
	for {
		pv, ok := s.chunk.ReadPage(DefaultBatchSize)
		if !ok {
			return nil, nil
		}
		var b *RowBatch
		var err error
		switch {
		case pv.Frozen == nil:
			b, err = s.rowBatch(pv.Rows)
		case s.Filter == nil:
			b, err = s.frozenBatch(pv.Frozen)
		default:
			b, err = s.frozenSelBatch(pv.Frozen)
		}
		if b != nil || err != nil {
			return b, err
		}
		// Everything filtered out: read on.
	}
}

// rowBatch transposes a run of row-form rows into the scan-owned batch and
// compacts it by Filter; (nil, nil) when no row survives. The buffer is
// separate from the frozen-page shell — FillRows reuses column capacity,
// which must never overwrite aliased page vectors — and pooled, so column
// capacity survives across queries.
func (s *BatchScanIter) rowBatch(rows []storage.Row) (*RowBatch, error) {
	if s.own == nil {
		s.own = GetBatch(s.width)
	}
	b := s.own
	b.FillRows(rows, s.NeedCols)
	if s.Filter == nil {
		return b, nil
	}
	keep, err := EvalPredBatch(s.Filter, b, s.ctx, s.keep)
	if err != nil {
		return nil, err
	}
	s.keep = keep
	if compactBatch(b, keep) == 0 {
		return nil, nil
	}
	return b, nil
}

// frozenBatch wraps one frozen page as a batch: needed columns alias the
// page's vectors (materializing and caching segment columns on first use),
// and every segment-backed column is exposed through Segs.
func (s *BatchScanIter) frozenBatch(fp *storage.FrozenPage) (*RowBatch, error) {
	b := s.frozenShell()
	fill := func(j int) error {
		vals, nulls, err := fp.ColVals(j)
		if err != nil {
			return err
		}
		b.Cols[j] = vals
		b.Nulls[j] = NullBitmap(nulls)
		return nil
	}
	if s.NeedCols == nil {
		for j := 0; j < s.width; j++ {
			if err := fill(j); err != nil {
				return nil, err
			}
		}
	} else {
		for _, j := range s.NeedCols {
			if err := fill(j); err != nil {
				return nil, err
			}
		}
	}
	s.attachSegs(b, fp)
	b.n = fp.NumRows()
	return b, nil
}

// attachSegs exposes every segment-backed column of fp through b.Segs.
func (s *BatchScanIter) attachSegs(b *RowBatch, fp *storage.FrozenPage) {
	for j := 0; j < s.width; j++ {
		if _, _, seg := fp.Col(j); seg != nil {
			b.Segs[j] = seg
		}
	}
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
}

// BytesRead reports this scan's (partition's) charged bytes.
func (s *BatchScanIter) BytesRead() int64 { return s.chunk.BytesRead() }

// SizeHint implements BatchSizeHinter: exact when unfiltered.
func (s *BatchScanIter) SizeHint() (int64, bool) {
	if s.Filter != nil {
		return 0, false
	}
	return s.nrows, true
}

// compactBatch keeps only rows with keep[i] set, in order, and returns the
// surviving count. It requires a dense batch: the scan compacts its own
// batch straight out of FillRows, before any selection vector can exist,
// so logical and physical indices coincide.
//
//lint:ignore sinew/sel-invariant dense-only helper: the scan compacts its own FillRows batch, which never carries Sel
func compactBatch(b *RowBatch, keep []bool) int {
	n := b.Len()
	k := 0
	for i := 0; i < n; i++ {
		if keep[i] {
			k++
		}
	}
	if k == n {
		return k
	}
	for j := range b.Cols {
		col := b.Cols[j]
		if len(col) == 0 {
			continue // column pruned away by the scan
		}
		m := b.Nulls[j]
		for w := range m {
			m[w] = 0
		}
		out := 0
		for i := 0; i < n; i++ {
			if !keep[i] {
				continue
			}
			col[out] = col[i]
			if col[i].IsNull() {
				b.growNulls(j, out+1)
				b.Nulls[j].Set(out)
			}
			out++
		}
		b.Cols[j] = col[:out]
	}
	b.n = k
	return k
}

// ---------- Batch filter / project / limit ----------

// BatchFilterIter drops rows failing the predicate, evaluating it once per
// batch. Output batches are compacted copies, never aliases of the input.
type BatchFilterIter struct {
	In   BatchIterator
	Pred Expr
	// Params are the statement's parameter values, for a Pred holding
	// ParamExprs.
	Params []types.Datum

	ctx  *EvalCtx
	out  *RowBatch
	keep []bool
}

// NextBatch implements BatchIterator.
func (f *BatchFilterIter) NextBatch() (*RowBatch, error) {
	if f.ctx == nil {
		f.ctx = NewEvalCtx()
		f.ctx.SetParams(f.Params)
	}
	for {
		in, err := f.In.NextBatch()
		if err != nil {
			return nil, err
		}
		if in == nil {
			return nil, nil
		}
		keep, err := EvalPredBatch(f.Pred, in, f.ctx, f.keep)
		if err != nil {
			return nil, err
		}
		f.keep = keep
		if f.out == nil {
			f.out = NewRowBatch(in.Width(), in.Len())
		}
		out := f.out
		out.Reset()
		for len(out.Cols) < in.Width() {
			out.Cols = append(out.Cols, nil)
			out.Nulls = append(out.Nulls, nil)
		}
		n := in.Len()
		sel := in.Sel
		kept := 0
		for si := 0; si < n; si++ {
			if keep[si] {
				kept++
			}
		}
		for j := range in.Cols {
			src := in.Cols[j]
			col := out.Cols[j][:0]
			// A column-pruned scan leaves unneeded columns empty; keep
			// them empty rather than indexing past their length. The keep
			// mask is logical, so a selection-carrying input is compacted
			// through its Sel here (the output is always dense).
			if len(src) == in.PhysLen() {
				for si := 0; si < n; si++ {
					if keep[si] {
						col = append(col, src[selIdx(sel, si)])
					}
				}
			}
			out.SetCol(j, col)
		}
		out.n = kept
		if out.n > 0 {
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
	handled := false
	if m.SegKernel != nil && m.DataIdx < len(in.Segs) {
		if seg := in.Segs[m.DataIdx]; seg != nil && seg.NumRows() == n {
			var err error
			handled, err = m.SegKernel(seg, m.cols)
			if err != nil {
				return nil, err
			}
		}
	}
	if !handled {
		if len(in.Cols[m.DataIdx]) != n {
			return nil, fmt.Errorf("exec: multi-extract data column %d not materialized (%d of %d rows)",
				m.DataIdx, len(in.Cols[m.DataIdx]), n)
		}
		if err := m.Kernel(in.Cols[m.DataIdx], m.cols); err != nil {
			return nil, err
		}
	}
	for k := 0; k < m.K; k++ {
		out.SetCol(inW+k, m.cols[k])
	}
	out.n = n
	out.Sel = in.Sel
	return out, nil
}

// Close implements BatchIterator.
func (m *BatchMultiExtractIter) Close() { m.In.Close() }

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
