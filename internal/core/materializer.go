package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
	"github.com/sinewdata/sinew/internal/sqlutil"
)

// Materializer is the background column materializer (§3.1.4): it polls the
// catalog for dirty columns and incrementally moves values between the
// column reservoir and physical columns, one atomic row update at a time.
// The whole pass is interruptible — Pause() makes it yield between rows and
// queries run correctly against partially-materialized (dirty) columns via
// the rewriter's COALESCE.
type Materializer struct {
	db     *DB
	paused atomic.Bool

	// RowsMoved counts values moved since creation (observability).
	RowsMoved atomic.Int64
	// Passes counts completed full passes.
	Passes atomic.Int64
}

// NewMaterializer returns a materializer for db.
func NewMaterializer(db *DB) *Materializer { return &Materializer{db: db} }

// Pause makes the materializer yield between row updates; queries can run
// against the partially-materialized state.
func (m *Materializer) Pause() { m.paused.Store(true) }

// Resume lifts a Pause.
func (m *Materializer) Resume() { m.paused.Store(false) }

// Paused reports the pause flag.
func (m *Materializer) Paused() bool { return m.paused.Load() }

// Run polls every collection at the given interval until ctx is cancelled —
// the "background process running when there are spare resources" shape of
// the paper's Postgres worker.
func (m *Materializer) Run(ctx context.Context, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			for _, coll := range m.db.cat.Collections() {
				_, _ = m.RunOnce(coll)
			}
		}
	}
}

// RunOnce processes all dirty columns of one collection. It returns the
// number of row-values moved. If paused mid-pass it returns early with the
// work done so far and the dirty bits still set; the next call resumes
// (the process is idempotent because direction and placement are read from
// the data itself).
func (m *Materializer) RunOnce(collection string) (int64, error) {
	collection = strings.ToLower(collection)
	tc, ok := m.db.cat.Lookup(collection)
	if !ok {
		return 0, fmt.Errorf("core: collection %q does not exist", collection)
	}
	// The loader and materializer exclude each other via the catalog latch.
	if !tc.TryLatch() {
		return 0, nil
	}
	defer tc.Unlatch()

	// The pass works on by-value states: a target mode the analyzer flips
	// meanwhile is picked up by the next pass (see settle).
	dirty := tc.DirtyColumns()
	if len(dirty) == 0 {
		return 0, nil
	}

	// Ensure physical columns exist for materialization targets.
	for i := range dirty {
		col := &dirty[i]
		if col.Materialized && col.PhysicalName == "" {
			name := m.db.physicalColumnName(tc, *col)
			stmt := fmt.Sprintf("ALTER TABLE %s ADD COLUMN %s %s",
				collection, sqlutil.QuoteIdent(name), sqlTypeOf(col.Type).String())
			if _, err := m.db.rdb.Exec(stmt); err != nil {
				return 0, err
			}
			tc.setPhysicalName(col.AttrID, name)
			//lint:ignore sinew/catalog-view the pass's private copy of the state, not the catalog's record
			col.PhysicalName = name
		}
	}

	schema, err := m.db.rdb.TableSchema(collection)
	if err != nil {
		return 0, err
	}
	reservoirIdx := schema.ColumnIndex(ReservoirColumn)

	// Collect the row IDs first (under a read lock), then update row by
	// row, each update atomic (§3.1.4).
	type pending struct {
		id  storage.RowID
		row storage.Row
	}
	var work []pending
	err = m.db.rdb.ScanTable(collection, func(id storage.RowID, row storage.Row) bool {
		work = append(work, pending{id: id, row: row.Clone()})
		return true
	})
	if err != nil {
		return 0, err
	}

	// Order matters for nested keys sharing a pass: dematerializations run
	// shallow-first (a returning parent must land before its subkeys are
	// written over it), then materializations deep-first (a subkey must be
	// copied out before its parent object is moved).
	ordered := make([]ColumnState, 0, len(dirty))
	for _, c := range dirty {
		if !c.Materialized {
			ordered = append(ordered, c)
		}
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		return pathDepth(ordered[i].Key) < pathDepth(ordered[j].Key)
	})
	mats := make([]ColumnState, 0, len(dirty))
	for _, c := range dirty {
		if c.Materialized {
			mats = append(mats, c)
		}
	}
	sort.SliceStable(mats, func(i, j int) bool {
		return pathDepth(mats[i].Key) > pathDepth(mats[j].Key)
	})
	ordered = append(ordered, mats...)

	var moved int64
	interrupted := false
	for _, w := range work {
		if m.paused.Load() {
			interrupted = true
			break
		}
		row := w.row
		changed := false
		var doc *jsonx.Doc
		if !row[reservoirIdx].IsNull() {
			d, err := serial.Deserialize(row[reservoirIdx].Bytes(), m.db.dict())
			if err != nil {
				return moved, err
			}
			doc = d
		} else {
			doc = jsonx.NewDoc()
		}
		for _, col := range ordered {
			if col.PhysicalName == "" {
				continue // dematerialization of a never-created column
			}
			physIdx := schema.ColumnIndex(col.PhysicalName)
			if physIdx < 0 {
				continue
			}
			if col.Materialized {
				v, found := docGetTyped(doc, col.Key, col.Type)
				if !found {
					continue
				}
				d, err := datumFromJSON(v, m.db.dict())
				if err != nil {
					return moved, err
				}
				// The reservoir copy stays in place for now: §4.2's top-level
				// MOVE is completed by the purge sweep below, after the epoch
				// bump, so plans bound to either location keep seeing the
				// value throughout this sweep.
				row[physIdx] = d
				changed = true
				moved++
			} else {
				// Physical column → reservoir (overwriting any stale copy a
				// nested parent may hold). The physical value stays in place:
				// plans bound before the mode flip still read the column
				// directly, so both locations must agree until the end-of-pass
				// DROP COLUMN removes the physical side wholesale. A resumed
				// pass re-copies already-moved rows, which is idempotent.
				if row[physIdx].IsNull() {
					continue
				}
				jv, err := jsonFromDatum(row[physIdx], m.db.dict())
				if err != nil {
					return moved, err
				}
				docSetPath(doc, col.Key, jv)
				changed = true
				moved++
			}
		}
		if !changed {
			continue
		}
		data, err := serial.Serialize(doc, m.db.dict())
		if err != nil {
			return moved, err
		}
		row[reservoirIdx] = types.NewBytes(data)
		// One atomic row update; queries between updates see a consistent
		// (partially materialized) state.
		if err := m.db.rdb.UpdateRow(collection, w.id, row); err != nil {
			return moved, err
		}
	}
	m.RowsMoved.Add(moved)
	// Values gained a second location (reservoir ↔ physical column);
	// cached plans that bound either representation must be rebuilt.
	m.db.rdb.BumpCatalogEpoch()
	if interrupted {
		return moved, nil // dirty bits stay set; next run resumes
	}

	// Purge sweep: complete the §4.2 top-level MOVE by deleting the
	// reservoir copies of promoted keys (nested keys stay COPIED so the
	// parent object remains whole-referenceable). This runs after the
	// epoch bump, so stale extract-based plans were invalidated while the
	// copies were still in place; plans built during this sweep still see
	// the dirty bit and COALESCE over the physical column, which the copy
	// sweep filled. Rows are re-read rather than reusing the first
	// snapshot so updates landed between the sweeps are preserved.
	var purge []uint32
	for _, col := range mats {
		if pathDepth(col.Key) == 1 && col.PhysicalName != "" {
			purge = append(purge, col.AttrID)
		}
	}
	if len(purge) > 0 {
		work = work[:0]
		err = m.db.rdb.ScanTable(collection, func(id storage.RowID, row storage.Row) bool {
			work = append(work, pending{id: id, row: row.Clone()})
			return true
		})
		if err != nil {
			return moved, err
		}
		for _, w := range work {
			if m.paused.Load() {
				return moved, nil // dirty bits stay set; next run redoes the pass
			}
			row := w.row
			if row[reservoirIdx].IsNull() {
				continue
			}
			// Top-level keys only, so the record's header is spliced and
			// no value decoded; a row holding none of them is left alone.
			rec := row[reservoirIdx].Bytes()
			data, err := serial.DeleteAttrs(rec, purge...)
			if err != nil {
				return moved, err
			}
			if len(data) == len(rec) {
				continue
			}
			row[reservoirIdx] = types.NewBytes(data)
			if err := m.db.rdb.UpdateRow(collection, w.id, row); err != nil {
				return moved, err
			}
		}
	}

	// Full pass complete: clear dirty bits, then drop columns fully
	// dematerialized. The catalog forgets a column before the table loses
	// it, so no statement rewritten in between names a dropped column.
	for _, col := range dirty {
		if tc.settle(col.AttrID, col.Materialized) && !col.Materialized && col.PhysicalName != "" {
			stmt := fmt.Sprintf("ALTER TABLE %s DROP COLUMN %s",
				collection, sqlutil.QuoteIdent(col.PhysicalName))
			if _, err := m.db.rdb.Exec(stmt); err != nil {
				return moved, err
			}
		}
	}
	m.Passes.Add(1)
	// Dirty bits cleared: the rewriter now emits plain column references
	// instead of COALESCE fallbacks for the finished columns.
	m.db.rdb.BumpCatalogEpoch()
	return moved, nil
}
