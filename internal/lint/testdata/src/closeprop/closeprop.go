// Package closeprop seeds positive and negative cases for the
// sinew/close-propagation check.
package closeprop

import "sync"

type child struct{ open bool }

func (c *child) Close() { c.open = false }

// LeakyIter owns a child iterator but its Close never forwards: flagged.
type LeakyIter struct {
	src  *child
	done bool
}

func (l *LeakyIter) Next() bool { return false }

func (l *LeakyIter) Close() { // want `LeakyIter\.Close does not release field "src"`
	l.done = true
}

// NoCloseIter looks like an iterator (it has Next) and owns a closable
// field, but has no Close method at all: flagged.
type NoCloseIter struct { // want `NoCloseIter has Next/NextBatch and closable field src but no Close method`
	src *child
}

func (n *NoCloseIter) Next() bool { return false }

// GoodIter forwards Close directly: no finding.
type GoodIter struct{ src *child }

func (g *GoodIter) Next() bool { return false }
func (g *GoodIter) Close()     { g.src.Close() }

// FanIter releases its children through a range loop inside a sibling
// method reached from Close: no finding.
type FanIter struct{ kids []*child }

func (f *FanIter) NextBatch() bool { return false }
func (f *FanIter) Close()          { f.release() }

func (f *FanIter) release() {
	for _, k := range f.kids {
		k.Close()
	}
}

// HandOffIter passes its child to a helper, which takes ownership of the
// release: no finding.
type HandOffIter struct{ src *child }

func reap(c *child) { c.Close() }

func (h *HandOffIter) Next() bool { return false }
func (h *HandOffIter) Close()     { reap(h.src) }

// WorkerIter is the worker hand-off pattern: the constructor stores each
// scan into the field AND hands it to a spawned worker whose `defer
// s.Close()` closes it on every path, and Close waits on the WaitGroup —
// so the workers provably release the field. No finding.
type WorkerIter struct {
	wg    sync.WaitGroup
	stop  chan struct{}
	scans []*child
}

func NewWorkerIter(n int) *WorkerIter {
	w := &WorkerIter{stop: make(chan struct{}), scans: make([]*child, n)}
	for i := 0; i < n; i++ {
		s := &child{open: true}
		w.scans[i] = s
		w.wg.Add(1)
		go w.worker(i, s)
	}
	return w
}

func (w *WorkerIter) worker(i int, s *child) {
	defer w.wg.Done()
	defer s.Close()
	<-w.stop
}

func (w *WorkerIter) Next() bool { return false }

func (w *WorkerIter) Close() {
	close(w.stop)
	w.wg.Wait()
}

// LeakyWorkerIter spawns workers too, but the worker only closes its scan
// on one path — the hand-off proof must NOT accept it, so Close is
// flagged for the unreleased field.
type LeakyWorkerIter struct {
	wg    sync.WaitGroup
	stop  chan struct{}
	scans []*child
}

func NewLeakyWorkerIter(n int) *LeakyWorkerIter {
	w := &LeakyWorkerIter{stop: make(chan struct{}), scans: make([]*child, n)}
	for i := 0; i < n; i++ {
		s := &child{open: true}
		w.scans[i] = s
		w.wg.Add(1)
		go w.worker(i, s)
	}
	return w
}

func (w *LeakyWorkerIter) worker(i int, s *child) {
	defer w.wg.Done()
	if i%2 == 0 {
		s.Close() // the odd-index path leaks the scan
	}
	<-w.stop
}

func (w *LeakyWorkerIter) Next() bool { return false }

func (w *LeakyWorkerIter) Close() { // want `LeakyWorkerIter\.Close does not release field "scans"`
	close(w.stop)
	w.wg.Wait()
}
