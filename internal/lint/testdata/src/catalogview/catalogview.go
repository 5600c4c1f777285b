// Package catalogview seeds positive and negative cases for the
// sinew/catalog-view check: the column state a schema view copies may be
// written only by CollectionCatalog methods that discard the view, on
// every path, after the write.
package catalogview

import (
	"errors"
	"sync/atomic"
)

// ColumnState is the rewrite-visible half of a column record.
type ColumnState struct {
	AttrID       uint32
	Key          string
	Materialized bool
	Dirty        bool
	PhysicalName string
}

// ColumnInfo adds load statistics, which views do not copy.
type ColumnInfo struct {
	ColumnState
	Count int64
}

type column struct{ ColumnInfo }

type schemaView struct{ all []ColumnState }

// CollectionCatalog owns the live records and the published view.
type CollectionCatalog struct {
	columns map[uint32]*column
	view    atomic.Pointer[schemaView]
}

// setDirty is a sound mutator: the one path that writes also invalidates.
func (tc *CollectionCatalog) setDirty(id uint32, dirty bool) bool {
	c, ok := tc.columns[id]
	if !ok || c.Dirty == dirty {
		return false
	}
	c.Dirty = dirty
	tc.view.Store(nil)
	return true
}

// settle writes on two paths and invalidates after both join.
func (tc *CollectionCatalog) settle(id uint32, materialized bool) {
	c := tc.columns[id]
	c.Dirty = false
	if !materialized {
		c.PhysicalName = ""
	}
	tc.view.Store(nil)
}

// ensure inserts a record and invalidates only when it did.
func (tc *CollectionCatalog) ensure(id uint32, key string) *column {
	c, ok := tc.columns[id]
	if !ok {
		c = &column{ColumnInfo{ColumnState: ColumnState{AttrID: id, Key: key}}}
		tc.columns[id] = c
		tc.view.Store(nil)
	}
	return c
}

// observe moves a statistic only: views do not hold counts, so there is
// nothing to invalidate.
func (tc *CollectionCatalog) observe(id uint32) { tc.columns[id].Count++ }

// observeBatch is the batch form of the observation mutator: one lock's
// worth of attributes, each of which may insert a record or turn a
// materialized column dirty. It invalidates next to every such write, so
// no trip round the loop leaves one behind.
func (tc *CollectionCatalog) observeBatch(ids []uint32, counts []int64) (changed bool) {
	for i, id := range ids {
		c, ok := tc.columns[id]
		if !ok {
			c = &column{ColumnInfo{ColumnState: ColumnState{AttrID: id}}}
			tc.columns[id] = c
			tc.view.Store(nil)
			changed = true
		}
		c.Count += counts[i]
		if c.Materialized && !c.Dirty {
			c.Dirty = true
			tc.view.Store(nil)
			changed = true
		}
	}
	return changed
}

// observeBatchLate invalidates once after the loop, and only if it
// remembers to: the early return on an empty column leaves the records
// inserted so far behind a stale view.
func (tc *CollectionCatalog) observeBatchLate(ids []uint32, counts []int64) error {
	changed := false
	for i, id := range ids {
		c, ok := tc.columns[id]
		if !ok {
			c = &column{ColumnInfo{ColumnState: ColumnState{AttrID: id}}}
			tc.columns[id] = c // want `observeBatchLate writes CollectionCatalog\.columns but can return without invalidating the schema view`
			changed = true
		}
		if counts[i] == 0 {
			return errEmpty
		}
		c.Count += counts[i]
		if c.Materialized && !c.Dirty {
			c.Dirty = true // want `observeBatchLate writes ColumnState\.Dirty but can return without invalidating the schema view`
			changed = true
		}
	}
	if changed {
		tc.view.Store(nil)
	}
	return nil
}

var errEmpty = errors.New("catalogview: empty observation")

// states reads the guarded fields freely.
func (tc *CollectionCatalog) states() []ColumnState {
	var out []ColumnState
	for _, c := range tc.columns {
		if c.Dirty || c.PhysicalName != "" {
			out = append(out, c.ColumnState)
		}
	}
	return out
}

// retarget forgets the view on its early-return path.
func (tc *CollectionCatalog) retarget(id uint32, want bool) bool {
	c := tc.columns[id]
	c.Materialized = want // want `retarget writes ColumnState\.Materialized but can return without invalidating the schema view`
	if c.PhysicalName == "" {
		return false
	}
	c.Dirty = true
	tc.view.Store(nil)
	return true
}

// rename invalidates before the write instead of after it.
func (tc *CollectionCatalog) rename(id uint32, name string) {
	tc.view.Store(nil)
	tc.columns[id].PhysicalName = name // want `rename writes ColumnState\.PhysicalName but can return without invalidating`
}

// forget is a catalog method, but not a mutator: it never invalidates.
func (tc *CollectionCatalog) forget(id uint32) {
	delete(tc.columns, id) // want `forget writes CollectionCatalog\.columns outside a view-invalidating CollectionCatalog mutator`
}

// Analyze flips flags from outside the catalog, the way the schema
// analyzer did under its own lock/unlock pair before views existed.
func Analyze(tc *CollectionCatalog, want bool) {
	for _, c := range tc.columns {
		if c.Materialized != want {
			c.Materialized = want // want `Analyze writes ColumnState\.Materialized outside a view-invalidating`
			c.Dirty = true        // want `Analyze writes ColumnState\.Dirty outside a view-invalidating`
		}
	}
	tc.view.Store(nil) // invalidating here does not make Analyze a mutator
}

// Adopt inserts a record behind the catalog's back.
func Adopt(tc *CollectionCatalog, c *column) {
	tc.columns[c.AttrID] = c // want `Adopt writes CollectionCatalog\.columns outside`
}

// Plan edits its private copy of a state; the directive says so.
func Plan(tc *CollectionCatalog, id uint32, name string) ColumnState {
	st := tc.columns[id].ColumnState
	//lint:ignore sinew/catalog-view a by-value copy, not the catalog's record
	st.PhysicalName = name
	return st
}
