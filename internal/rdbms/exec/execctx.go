package exec

import (
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// ExecCtx is the per-statement execution context: it pins one storage
// snapshot per heap so every scan of one statement — across batch
// pipelines and join sides — reads the same frozen page-table version,
// however the plan interleaves its opens. A statement runs on the
// goroutine that issued it, so a context is never shared between
// goroutines. A nil ExecCtx means "read the live heap" (single-writer
// paths that hold the table lock, and embedded callers that never run
// concurrent writers).
type ExecCtx struct {
	views map[*storage.Heap]*storage.HeapSnapshot
	// params are the statement's bound parameter values (Bind), read by
	// the ParamExprs of a cached shape's plan.
	params []types.Datum
}

// NewExecCtx returns an empty context. Callers must Release it when the
// statement finishes.
func NewExecCtx() *ExecCtx { return &ExecCtx{} }

// View resolves the statement's read view of h: the first call per heap
// pins the heap's latest snapshot, later calls return the same pin. A nil
// receiver (or nil heap) returns the live heap itself.
func (ec *ExecCtx) View(h *storage.Heap) storage.ReadView {
	if ec == nil || h == nil {
		return h
	}
	if s, ok := ec.views[h]; ok {
		return s
	}
	if ec.views == nil {
		ec.views = make(map[*storage.Heap]*storage.HeapSnapshot, 2)
	}
	s := h.AcquireSnapshot()
	ec.views[h] = s
	return s
}

// Bind sets the statement's parameter values, before any plan node opens
// under the context. A plan without parameters needs none.
func (ec *ExecCtx) Bind(params []types.Datum) { ec.params = params }

// Params returns the statement's bound parameter values (nil when none are
// bound).
func (ec *ExecCtx) Params() []types.Datum {
	if ec == nil {
		return nil
	}
	return ec.params
}

// Resolve maps a plan-time view through the context: live heaps are
// re-pinned via View, already-frozen snapshots pass through unchanged.
func (ec *ExecCtx) Resolve(v storage.ReadView) storage.ReadView {
	if h, ok := v.(*storage.Heap); ok {
		return ec.View(h)
	}
	return v
}

// Release drops every snapshot pin the context holds. Safe on nil and
// safe to call more than once.
func (ec *ExecCtx) Release() {
	if ec == nil {
		return
	}
	for h, s := range ec.views {
		s.Release()
		delete(ec.views, h)
	}
}
