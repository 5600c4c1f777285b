package exec

import (
	"sync"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
)

// This file implements morsel-driven parallel pipelines: a gather runs one
// plan fragment per contiguous heap page range, each on its own goroutine,
// and merges the per-worker streams. One exchange starts the workers,
// carries their batches and stops them; the merges differ only in how they
// read it:
//
//   - ParallelPipelineIter: ordered merge — partition streams are drained
//     in ascending partition order, so the merged stream preserves heap
//     order exactly like the serial pipeline (the property the
//     differential tests pin).
//   - ParallelHashAggIter: two-phase aggregation — each worker accumulates
//     a partial hash table and sends nothing; partials merge via
//     aggState.merge in partition order (COUNT/SUM/AVG/MIN/MAX and GROUP
//     BY; DISTINCT stays serial).
//   - ParallelHashJoinIter: shared build table, partitioned probe — the
//     build side is drained once into a read-only hash table, then each
//     worker probes its partition with a BatchHashJoinIter over it and the
//     match streams merge in partition order.
//   - ParallelSortedMergeIter (sortbatch.go): sorted merge — each worker
//     sorts its partition, the merge k-way-scans the partition heads.

// PipelineBuild opens one worker's fragment over a page range. It runs on
// the worker goroutine, so per-worker scratch state (fused extraction
// kernels, eval contexts) made while opening is that worker's own. An open
// that fails yields an iterator reporting the error on its first pull.
type PipelineBuild func(part storage.PageRange) BatchIterator

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

// exchangeWork runs partition i over page range r on the worker
// goroutine. It hands each batch it produces to out.send and returns once
// send reports false, when the exchange is stopping; work that sends
// nothing polls out.stop instead. Its error reaches the merge through
// recv(i).
type exchangeWork func(i int, r storage.PageRange, out *exchangePart) error

// exchange runs one worker goroutine per partition and carries what each
// produces to the merge, partition by partition. Cancellation is the same
// for every merge: close signals stop, drains the partition channels so a
// blocked worker observes it, and waits for every worker — each closes its
// own fragment first, flushing partition-local pager accounting, so no
// goroutine or byte leaks when a LIMIT or an error abandons the gather.
// A zero exchange has no partitions, and close does nothing to it.
type exchange struct {
	parts  []exchangePart
	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// exchangePart is one partition: its worker's end (send, stop, the
// worker's batch pool) and the merge's (the batch it holds).
type exchangePart struct {
	ch   chan parallelItem
	stop <-chan struct{}
	// pool is the worker's batch pool, made on its first send, so work
	// that sends nothing allocates none.
	pool *workerBatchPool
	held parallelItem
}

// start starts one worker per range. An empty range list leaves the
// exchange with nothing to deliver.
func (x *exchange) start(ranges []storage.PageRange, work exchangeWork) {
	x.parts = make([]exchangePart, len(ranges))
	x.stop = make(chan struct{})
	for i, r := range ranges {
		p := &x.parts[i]
		// Two batches in flight let a worker produce its next batch while
		// the merge reads the last, without running far ahead of it.
		p.ch = make(chan parallelItem, 2)
		p.stop = x.stop
		x.wg.Add(1)
		go x.run(i, r, p, work)
	}
}

// run is one worker: it runs work and hands its error to the merge, then
// closes the partition's channel.
func (x *exchange) run(i int, r storage.PageRange, p *exchangePart, work exchangeWork) {
	defer x.wg.Done()
	defer close(p.ch)
	if err := work(i, r, p); err != nil {
		select {
		case p.ch <- parallelItem{err: err}:
		case <-p.stop:
		}
	}
}

// send clones b into the worker's pool and hands it to the merge; false
// means the exchange is stopping and the worker should return.
func (p *exchangePart) send(b *RowBatch) bool {
	if p.pool == nil {
		p.pool = newWorkerBatchPool()
	}
	out := cloneBatch(b, p.pool)
	select {
	case p.ch <- parallelItem{b: out, pool: p.pool}:
		return true
	case <-p.stop:
		p.pool.put(out)
		return false
	}
}

// recv returns partition i's next batch, or nil once the partition is
// done, or the error its worker stopped on. The batch stays valid until
// the next recv(i) or close, which hand it back to its worker.
func (x *exchange) recv(i int) (*RowBatch, error) {
	p := &x.parts[i]
	releaseBatch(p.held.b, p.held.pool)
	p.held = parallelItem{}
	item, ok := <-p.ch
	if !ok {
		return nil, nil
	}
	if item.err != nil {
		return nil, item.err
	}
	p.held = item
	return item.b, nil
}

// close signals the workers to stop, drains their channels and waits for
// them. It is idempotent and safe on an exchange never started.
func (x *exchange) close() {
	if x.closed || x.stop == nil {
		return
	}
	x.closed = true
	close(x.stop)
	for i := range x.parts {
		p := &x.parts[i]
		releaseBatch(p.held.b, p.held.pool)
		p.held = parallelItem{}
		for item := range p.ch {
			PutBatch(item.b)
		}
	}
	x.wg.Wait()
}

// drainWork is the work of a fragment whose every batch the merge reads:
// it opens build's fragment over the range and sends what it yields.
func drainWork(build PipelineBuild) exchangeWork {
	return func(_ int, r storage.PageRange, out *exchangePart) error {
		src := build(r)
		defer src.Close()
		for {
			b, err := src.NextBatch()
			if err != nil || b == nil {
				return err
			}
			if !out.send(b) {
				return nil
			}
		}
	}
}

// ParallelPipelineIter is the ordered merge: it runs build once per
// partition and drains the partition streams in ascending order.
type ParallelPipelineIter struct {
	x   exchange
	cur int
}

// NewParallelPipeline starts one worker per partition. An empty partition
// list yields an immediately exhausted iterator.
func NewParallelPipeline(parts []storage.PageRange, build PipelineBuild) *ParallelPipelineIter {
	p := &ParallelPipelineIter{}
	p.x.start(parts, drainWork(build))
	return p
}

// NextBatch implements BatchIterator, draining partitions in ascending
// order. The previously returned batch is recycled, per the BatchIterator
// contract that batches are valid only until the next call.
func (p *ParallelPipelineIter) NextBatch() (*RowBatch, error) {
	for ; p.cur < len(p.x.parts); p.cur++ {
		if b, err := p.x.recv(p.cur); b != nil || err != nil {
			return b, err
		}
	}
	return nil, nil
}

// Close implements BatchIterator: signals workers, drains, waits.
func (p *ParallelPipelineIter) Close() { p.x.close() }

// ParallelHashAggIter is the two-phase parallel hash aggregate: phase one
// runs build + a partial aggTable accumulation per partition worker;
// phase two merges the partial tables in partition order (so first-seen
// semantics — group key values, MIN/MAX first-type rule — match the serial
// heap-order accumulator) and emits groups sorted by encoded key, matching
// BatchHashAggIter's output exactly.
type ParallelHashAggIter struct {
	GroupBy []Expr
	Aggs    []*AggSpec

	ranges []storage.PageRange
	build  PipelineBuild
	x      exchange

	done bool
	err  error
	emit groupEmitter
}

// NewParallelHashAgg prepares (but does not yet start) a two-phase
// aggregation over the given partitions.
func NewParallelHashAgg(parts []storage.PageRange, build PipelineBuild, groupBy []Expr, aggs []*AggSpec) *ParallelHashAggIter {
	return &ParallelHashAggIter{GroupBy: groupBy, Aggs: aggs, ranges: parts, build: build}
}

// run starts phase one and does phase two as the partitions finish, in
// partition order; the first partition's table is the merged table's
// start. A partition's error returns at once, and Close stops the others.
func (p *ParallelHashAggIter) run() error {
	tables := make([]*aggTable, len(p.ranges))
	p.x.start(p.ranges, func(i int, r storage.PageRange, out *exchangePart) error {
		tables[i] = newAggTable(len(p.GroupBy), p.Aggs)
		return tables[i].accumulate(p.build(r), p.GroupBy, out.stop)
	})
	var merged *aggTable
	for i := range tables {
		// recv returns once worker i is done, so tables[i] is complete.
		if _, err := p.x.recv(i); err != nil {
			return err
		}
		if merged == nil {
			merged = tables[i]
		} else if err := merged.merge(tables[i]); err != nil {
			return err
		}
	}
	if merged == nil {
		merged = newAggTable(len(p.GroupBy), p.Aggs)
	}
	p.emit.start(merged)
	return nil
}

// NextBatch implements BatchIterator.
func (p *ParallelHashAggIter) NextBatch() (*RowBatch, error) {
	if !p.done {
		p.done = true
		p.err = p.run()
	}
	if p.err != nil {
		return nil, p.err
	}
	return p.emit.next(), nil
}

// Close implements BatchIterator. Safe before, during, and after run.
func (p *ParallelHashAggIter) Close() { p.x.close() }

// ParallelHashJoinIter is an inner equi-join with a shared build table and
// partitioned probe: on the first pull the build side is drained once
// (serially — it may itself be a parallel gather) into a read-only table,
// then each partition worker runs a BatchHashJoinIter over its probe
// fragment and that table, and the ordered merge reads their outputs. The
// output is therefore BatchHashJoinIter's exactly.
type ParallelHashJoinIter struct {
	Build     BatchIterator
	ProbeKeys []Expr
	BuildKeys []Expr
	Residual  Expr

	ranges     []storage.PageRange
	probe      PipelineBuild
	buildWidth int

	started bool
	err     error
	merge   ParallelPipelineIter
}

// NewParallelHashJoin prepares a partitioned-probe join; buildWidth is the
// build side's column count.
func NewParallelHashJoin(parts []storage.PageRange, probe PipelineBuild, build BatchIterator, probeKeys, buildKeys []Expr, residual Expr, buildWidth int) *ParallelHashJoinIter {
	return &ParallelHashJoinIter{
		Build:      build,
		ProbeKeys:  probeKeys,
		BuildKeys:  buildKeys,
		Residual:   residual,
		ranges:     parts,
		probe:      probe,
		buildWidth: buildWidth,
	}
}

// NextBatch implements BatchIterator.
func (p *ParallelHashJoinIter) NextBatch() (*RowBatch, error) {
	if !p.started {
		p.started = true
		table := newJoinBuildTable(p.buildWidth, len(p.BuildKeys))
		if p.err = table.addBatches(p.Build, p.BuildKeys); p.err == nil {
			p.merge.x.start(p.ranges, drainWork(func(r storage.PageRange) BatchIterator {
				return &BatchHashJoinIter{Probe: p.probe(r), ProbeKeys: p.ProbeKeys, Residual: p.Residual, table: table}
			}))
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return p.merge.NextBatch()
}

// Close implements BatchIterator.
func (p *ParallelHashJoinIter) Close() {
	if !p.started {
		p.Build.Close()
	}
	p.merge.Close()
}
