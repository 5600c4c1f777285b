package exec

import (
	"sync"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements morsel-driven parallel pipelines: each worker runs a
// full SCAN→FILTER→PROJECT(→partial AGGREGATE / JOIN probe) operator chain
// over one contiguous heap page range, and a merge step combines the
// per-worker streams. Three merge strategies exist:
//
//   - ParallelPipelineIter: ordered merge — partition streams are drained
//     in ascending partition order, so the merged stream preserves heap
//     order exactly like the serial pipeline (the property the three-way
//     differential test pins).
//   - ParallelHashAggIter: two-phase aggregation — each worker accumulates
//     a partial hash table; partials merge via aggState.merge in partition
//     order (COUNT/SUM/AVG/MIN/MAX and GROUP BY; DISTINCT stays serial).
//   - ParallelHashJoinIter: shared build table, partitioned probe — the
//     build side is drained once into a read-only hash table, then workers
//     probe their partitions and the match streams merge in partition
//     order.
//
// Cancellation is the same everywhere: Close signals stop, drains the
// channels so blocked producers can observe it, and waits for every
// worker (each worker closes its own source, flushing partition-
// local pager accounting — no goroutine or byte leaks on early LIMIT or
// error termination).

// PipelineBuild constructs one worker's operator chain over a page range.
// It runs on the worker goroutine; any per-worker scratch state (fused
// extraction kernels, eval contexts) must be created inside it.
type PipelineBuild func(part storage.PageRange) (BatchIterator, error)

// workerBatchPool is one gather worker's private recycling loop for the
// output batches it sends across the merge channel: the merger returns a
// consumed batch to the worker that produced it instead of the global
// sync.Pool, so channel-crossing batches never race with another worker's
// recycling and column capacity stays worker-local. Overflow (or a worker
// that already exited) falls back to the global pool.
type workerBatchPool struct {
	free chan *RowBatch
}

func newWorkerBatchPool() *workerBatchPool {
	return &workerBatchPool{free: make(chan *RowBatch, 4)}
}

// get returns a recycled batch resized to width, or a global-pool batch
// when the local loop is empty.
func (p *workerBatchPool) get(width int) *RowBatch {
	select {
	case b := <-p.free:
		for len(b.Cols) < width {
			b.Cols = append(b.Cols, nil)
			b.Nulls = append(b.Nulls, nil)
		}
		b.Cols = b.Cols[:width]
		b.Nulls = b.Nulls[:width]
		b.Reset()
		return b
	default:
		return GetBatch(width)
	}
}

// put hands a consumed batch back to the worker's loop (global pool when
// full).
func (p *workerBatchPool) put(b *RowBatch) {
	if b == nil {
		return
	}
	select {
	case p.free <- b:
	default:
		PutBatch(b)
	}
}

// releaseBatch returns a merged-stream batch to its producing worker's
// pool, or the global pool for batches without one.
func releaseBatch(b *RowBatch, pool *workerBatchPool) {
	if b == nil {
		return
	}
	if pool != nil {
		pool.put(b)
		return
	}
	PutBatch(b)
}

// cloneBatch deep-copies b into a batch from the worker's pool. Workers
// clone the top-of-pipeline batch before sending it across the merge
// channel, because inner operators (project, multi-extract) recycle their
// output shells and the scan aliases frozen-page vectors. A
// selection-carrying batch is compacted through its selection here, so
// batches crossing the channel are always dense copies.
func cloneBatch(b *RowBatch, pool *workerBatchPool) *RowBatch {
	var out *RowBatch
	if pool != nil {
		out = pool.get(b.Width())
	} else {
		out = GetBatch(b.Width())
	}
	if sel := b.Sel; sel != nil {
		n := b.Len()
		for j := range b.Cols {
			src := b.Cols[j]
			col := out.Cols[j][:0]
			// Pruned columns stay empty, exactly like the dense path.
			if len(src) == b.PhysLen() {
				for si := 0; si < n; si++ {
					col = append(col, src[sel[si]])
				}
			}
			out.SetCol(j, col)
		}
		out.n = n
		return out
	}
	for j := range b.Cols {
		out.Cols[j] = append(out.Cols[j][:0], b.Cols[j]...)
		if cap(out.Nulls[j]) < len(b.Nulls[j]) {
			out.Nulls[j] = make(NullBitmap, len(b.Nulls[j]))
		}
		out.Nulls[j] = out.Nulls[j][:len(b.Nulls[j])]
		copy(out.Nulls[j], b.Nulls[j])
	}
	out.SetLen(b.Len())
	return out
}

// parallelItem is what a partition worker sends its merger.
type parallelItem struct {
	b   *RowBatch
	err error
	// pool is the producing worker's private batch pool; the merger hands
	// the consumed batch back to it (releaseBatch).
	pool *workerBatchPool
}

// ParallelPipelineIter runs build once per partition on its own goroutine
// and merges the resulting batch streams in ascending partition order.
type ParallelPipelineIter struct {
	parts []chan parallelItem
	stop  chan struct{}
	wg    sync.WaitGroup

	cur      int
	last     *RowBatch
	lastPool *workerBatchPool
	closed   bool
}

// NewParallelPipeline starts one worker per partition. An empty partition
// list yields an immediately exhausted iterator.
func NewParallelPipeline(parts []storage.PageRange, build PipelineBuild) *ParallelPipelineIter {
	p := &ParallelPipelineIter{
		parts: make([]chan parallelItem, len(parts)),
		stop:  make(chan struct{}),
	}
	for i, r := range parts {
		p.parts[i] = make(chan parallelItem, 2)
		p.wg.Add(1)
		go p.worker(i, r, build)
	}
	return p
}

func (p *ParallelPipelineIter) worker(i int, r storage.PageRange, build PipelineBuild) {
	defer p.wg.Done()
	defer close(p.parts[i])
	src, err := build(r)
	if err != nil {
		select {
		case p.parts[i] <- parallelItem{err: err}:
		case <-p.stop:
		}
		return
	}
	defer src.Close()
	pool := newWorkerBatchPool()
	for {
		b, err := src.NextBatch()
		if err != nil {
			select {
			case p.parts[i] <- parallelItem{err: err}:
			case <-p.stop:
			}
			return
		}
		if b == nil {
			return
		}
		out := cloneBatch(b, pool)
		select {
		case p.parts[i] <- parallelItem{b: out, pool: pool}:
		case <-p.stop:
			pool.put(out)
			return
		}
	}
}

// NextBatch implements BatchIterator, draining partitions in ascending
// order. The previously returned batch is recycled, per the BatchIterator
// contract that batches are valid only until the next call.
func (p *ParallelPipelineIter) NextBatch() (*RowBatch, error) {
	if p.last != nil {
		releaseBatch(p.last, p.lastPool)
		p.last, p.lastPool = nil, nil
	}
	for p.cur < len(p.parts) {
		item, ok := <-p.parts[p.cur]
		if !ok {
			p.cur++
			continue
		}
		if item.err != nil {
			return nil, item.err
		}
		p.last, p.lastPool = item.b, item.pool
		return item.b, nil
	}
	return nil, nil
}

// Close implements BatchIterator: signals workers, drains, waits.
func (p *ParallelPipelineIter) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.stop)
	for _, ch := range p.parts {
		for range ch { //nolint:revive // drained for effect
		}
	}
	p.wg.Wait()
}

// ParallelHashAggIter is the two-phase parallel hash aggregate: phase one
// runs build + a partial aggTable accumulation per partition worker;
// phase two merges the partial tables in partition order (so first-seen
// semantics — group key values, MIN/MAX first-type rule — match the serial
// heap-order accumulator) and emits groups sorted by encoded key, matching
// BatchHashAggIter's output exactly.
type ParallelHashAggIter struct {
	GroupBy []Expr
	Aggs    []*AggSpec

	ranges  []storage.PageRange
	build   PipelineBuild
	results []chan aggPartial
	stop    chan struct{}
	wg      sync.WaitGroup

	started bool
	done    bool
	closed  bool
	err     error
	emit    groupEmitter
}

type aggPartial struct {
	table *aggTable
	err   error
}

// NewParallelHashAgg prepares (but does not yet start) a two-phase
// aggregation over the given partitions.
func NewParallelHashAgg(parts []storage.PageRange, build PipelineBuild, groupBy []Expr, aggs []*AggSpec) *ParallelHashAggIter {
	return &ParallelHashAggIter{
		GroupBy: groupBy,
		Aggs:    aggs,
		ranges:  parts,
		build:   build,
		stop:    make(chan struct{}),
	}
}

func (p *ParallelHashAggIter) start() {
	p.started = true
	p.results = make([]chan aggPartial, len(p.ranges))
	for i, r := range p.ranges {
		p.results[i] = make(chan aggPartial, 1)
		p.wg.Add(1)
		go p.worker(i, r)
	}
}

func (p *ParallelHashAggIter) worker(i int, r storage.PageRange) {
	defer p.wg.Done()
	src, err := p.build(r)
	if err != nil {
		p.results[i] <- aggPartial{err: err}
		return
	}
	t := newAggTable(len(p.GroupBy), p.Aggs)
	err = t.accumulate(src, p.GroupBy, p.stop)
	p.results[i] <- aggPartial{table: t, err: err}
}

func (p *ParallelHashAggIter) run() {
	p.done = true
	if !p.started {
		p.start()
	}
	// Merge in ascending partition order: a group's key values and MIN/MAX
	// first-seen type come from its earliest partition, as in a serial
	// scan. The first partition's table is the merged table's start.
	var merged *aggTable
	for i := range p.results {
		part := <-p.results[i]
		if part.err != nil && p.err == nil {
			p.err = part.err
		}
		if p.err != nil {
			continue
		}
		if merged == nil {
			merged = part.table
			continue
		}
		p.err = merged.merge(part.table)
	}
	p.wg.Wait()
	if p.err != nil {
		return
	}
	if merged == nil {
		merged = newAggTable(len(p.GroupBy), p.Aggs)
	}
	p.emit.start(merged)
}

// NextBatch implements BatchIterator.
func (p *ParallelHashAggIter) NextBatch() (*RowBatch, error) {
	if !p.done {
		p.run()
	}
	if p.err != nil {
		return nil, p.err
	}
	return p.emit.next(), nil
}

// Close implements BatchIterator. Safe before, during, and after run.
func (p *ParallelHashAggIter) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.stop)
	if p.started && !p.done {
		// Drain pending partials so workers can exit, then wait.
		for i := range p.results {
			select {
			case <-p.results[i]:
			default:
			}
		}
	}
	p.wg.Wait()
}

// ParallelHashJoinIter is an inner equi-join with a shared build table and
// partitioned probe: the build side is drained once (serially — it may
// itself be a parallel gather) into a hash table, then partition workers
// run the probe-side pipeline over their page ranges and emit joined rows.
// Output matches BatchHashJoinIter's exactly: probeRow ++ buildRow, NULL
// keys never match, and Residual is checked on joined rows.
type ParallelHashJoinIter struct {
	Build     BatchIterator
	ProbeKeys []Expr
	BuildKeys []Expr
	Residual  Expr

	ranges     []storage.PageRange
	buildFn    PipelineBuild
	outWidth   int
	buildWidth int

	table   *joinBuildTable
	started bool

	parts    []chan parallelItem
	stop     chan struct{}
	wg       sync.WaitGroup
	cur      int
	last     *RowBatch
	lastPool *workerBatchPool
	closed   bool
	err      error
}

// NewParallelHashJoin prepares a partitioned-probe join. outWidth is the
// joined row width (probe width + build width) and buildWidth the build
// side's column count.
func NewParallelHashJoin(parts []storage.PageRange, probe PipelineBuild, build BatchIterator, probeKeys, buildKeys []Expr, residual Expr, outWidth, buildWidth int) *ParallelHashJoinIter {
	return &ParallelHashJoinIter{
		Build:      build,
		ProbeKeys:  probeKeys,
		BuildKeys:  buildKeys,
		Residual:   residual,
		ranges:     parts,
		buildFn:    probe,
		outWidth:   outWidth,
		buildWidth: buildWidth,
		stop:       make(chan struct{}),
	}
}

func (p *ParallelHashJoinIter) buildTable() error {
	p.table = newJoinBuildTable(p.buildWidth, len(p.BuildKeys))
	return p.table.addBatches(p.Build, p.BuildKeys)
}

func (p *ParallelHashJoinIter) start() {
	p.started = true
	if err := p.buildTable(); err != nil {
		p.err = err
		return
	}
	p.parts = make([]chan parallelItem, len(p.ranges))
	for i, r := range p.ranges {
		p.parts[i] = make(chan parallelItem, 2)
		p.wg.Add(1)
		go p.worker(i, r)
	}
}

func (p *ParallelHashJoinIter) worker(i int, r storage.PageRange) {
	defer p.wg.Done()
	defer close(p.parts[i])
	src, err := p.buildFn(r)
	if err != nil {
		select {
		case p.parts[i] <- parallelItem{err: err}:
		case <-p.stop:
		}
		return
	}
	defer src.Close()
	ctx := NewEvalCtx()
	keyCols := make([][]types.Datum, len(p.ProbeKeys))
	var hashes []uint64
	matches := joinMatches{t: p.table}
	var rowBuf, joined storage.Row
	pool := newWorkerBatchPool()
	ob := pool.get(p.outWidth)
	send := func() bool {
		if ob.Len() == 0 {
			return true
		}
		select {
		case p.parts[i] <- parallelItem{b: ob, pool: pool}:
			ob = pool.get(p.outWidth)
			return true
		case <-p.stop:
			pool.put(ob)
			ob = nil
			return false
		}
	}
	fail := func(err error) {
		if ob != nil {
			pool.put(ob)
			ob = nil
		}
		select {
		case p.parts[i] <- parallelItem{err: err}:
		case <-p.stop:
		}
	}
	for {
		in, err := src.NextBatch()
		if err != nil {
			fail(err)
			return
		}
		if in == nil {
			send()
			if ob != nil {
				pool.put(ob)
			}
			return
		}
		ctx.BeginBatch()
		for k, ke := range p.ProbeKeys {
			if keyCols[k], err = EvalBatch(ke, in, ctx); err != nil {
				fail(err)
				return
			}
		}
		sel := in.Sel
		hashes = hashKeys(hashes, keyCols, sel, in.Len())
		for si, h := range hashes {
			r := selIdx(sel, si)
			bid := matches.start(keyCols, r, h)
			if bid < 0 {
				continue
			}
			rowBuf = in.Row(r, rowBuf)
			for ; bid >= 0; bid = matches.next() {
				// Joined rows assemble in one reused scratch; AppendRow
				// copies its cells into the output columns, so no per-match
				// storage.Row is ever allocated.
				joined = append(joined[:0], rowBuf...)
				joined = p.table.appendTo(joined, bid)
				if p.Residual != nil {
					keep, err := EvalBool(p.Residual, joined)
					if err != nil {
						fail(err)
						return
					}
					if !keep {
						continue
					}
				}
				ob.AppendRow(joined)
				if ob.Len() >= DefaultBatchSize {
					if !send() {
						return
					}
				}
			}
		}
	}
}

// NextBatch implements BatchIterator, merging partitions in ascending
// order so output order matches the serial BatchHashJoinIter probe order.
func (p *ParallelHashJoinIter) NextBatch() (*RowBatch, error) {
	if !p.started {
		p.start()
	}
	if p.err != nil {
		return nil, p.err
	}
	if p.last != nil {
		releaseBatch(p.last, p.lastPool)
		p.last, p.lastPool = nil, nil
	}
	for p.cur < len(p.parts) {
		item, ok := <-p.parts[p.cur]
		if !ok {
			p.cur++
			continue
		}
		if item.err != nil {
			return nil, item.err
		}
		p.last, p.lastPool = item.b, item.pool
		return item.b, nil
	}
	return nil, nil
}

// Close implements BatchIterator.
func (p *ParallelHashJoinIter) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if !p.started {
		p.Build.Close()
	}
	close(p.stop)
	for _, ch := range p.parts {
		for range ch { //nolint:revive // drained for effect
		}
	}
	p.wg.Wait()
}
