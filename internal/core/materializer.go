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
// column reservoir and physical columns, one atomic page update at a time.
// The whole pass is interruptible — Pause() makes it yield between pages and
// queries run correctly against partially-materialized (dirty) columns via
// the rewriter's COALESCE.
type Materializer struct {
	db     *DB
	paused atomic.Bool

	// RowsMoved counts values moved since creation (observability).
	RowsMoved atomic.Int64
	// Passes counts completed full passes.
	Passes atomic.Int64

	// pageDone, if set, is called after each page of a pass, outside every
	// lock (tests pause a pass at a page of their choosing).
	pageDone func(page int)
}

// NewMaterializer returns a materializer for db.
func NewMaterializer(db *DB) *Materializer { return &Materializer{db: db} }

// Pause makes the materializer yield between page updates; queries can run
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

// RunOnce processes all dirty columns of one collection in one sweep over
// its pages and returns the number of row-values moved. Each page is read,
// rewritten and published under one acquisition of the table's write lock
// (rdbms.DB.RewritePage): a SQL write lands wholly before or wholly after
// the page's move and is never overwritten, and a reader sees a page with
// all of the pass's values moved or none. A value leaves its old place in
// the step that fills its new one. What keeps every statement correct
// meanwhile: the catalog epoch is bumped before the first moved page is
// published, and a statement runs only over snapshots pinned while the
// epoch of its rewrite still held (rdbms.DB.ExecSelectCached) — so one
// rewritten before the columns were dirty never meets a moved page, and
// the others COALESCE.
//
// If paused mid-pass it returns early with the work done so far and the
// dirty bits still set; the next call resumes (the process is idempotent
// because direction and placement are read from the data itself).
func (m *Materializer) RunOnce(collection string) (moved int64, err error) {
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

	// Materialization targets without a physical column get theirs in one
	// rewrite of the heap; the catalog learns the names once the table has
	// the columns.
	var add []storage.Column
	for i := range dirty {
		if col := &dirty[i]; col.Materialized && col.PhysicalName == "" {
			//lint:ignore sinew/catalog-view the pass's private copy of the state, not the catalog's record
			col.PhysicalName = m.db.physicalColumnName(tc, *col, add)
			add = append(add, storage.Column{Name: col.PhysicalName, Typ: sqlTypeOf(col.Type)})
		}
	}
	if len(add) > 0 {
		if err := m.db.rdb.AddColumns(collection, add); err != nil {
			return 0, err
		}
		for _, col := range dirty {
			tc.setPhysicalName(col.AttrID, col.PhysicalName)
		}
	}
	schema, err := m.db.rdb.TableSchema(collection)
	if err != nil {
		return 0, err
	}
	p := newPass(m.db.dict(), schema, dirty)

	// From here on pages are published with values moved: statements
	// rewritten under an older epoch — extract-only ones among them — must
	// fail their epoch re-check from now on.
	m.db.rdb.BumpCatalogEpoch()
	defer func() { m.RowsMoved.Add(moved) }()
	for page, more := 0, true; more; page++ {
		if m.paused.Load() {
			return moved, nil // dirty bits stay set; the next run resumes
		}
		if more, err = m.db.rdb.RewritePage(collection, page, p.rewriteRow); err != nil {
			return moved, err // the page stayed as it was
		}
		moved = p.moved
		if m.pageDone != nil {
			m.pageDone(page)
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

// pass is one RunOnce's plan for a row.
type pass struct {
	dict      *serial.Dictionary
	reservoir int // the reservoir's column index
	// demats are the columns emptying into the reservoir, shallow keys
	// first: a returning parent object must land before its subkeys are
	// written over it.
	demats []passColumn
	// The keys leaving the reservoir are resolved against a record together:
	// specs.Specs[k] fills column matAt[k]. purge lists the top-level ones,
	// which move; a nested key is copied, so that its parent object stays
	// whole-referenceable (§4.2).
	specs *serial.PreparedMulti
	matAt []int
	purge []uint32

	rec   serial.Record
	vals  []jsonx.Value
	found []bool
	moved int64
}

// passColumn is a dirty column with the index of its physical column.
type passColumn struct {
	ColumnState
	at int
}

func newPass(dict *serial.Dictionary, schema *storage.Schema, dirty []ColumnState) *pass {
	p := &pass{dict: dict, reservoir: schema.ColumnIndex(ReservoirColumn)}
	var specs []serial.MultiSpec
	for _, col := range dirty {
		at := schema.ColumnIndex(col.PhysicalName)
		switch {
		case col.PhysicalName == "" || at < 0:
			// Dematerialization of a never-created column.
		case !col.Materialized:
			p.demats = append(p.demats, passColumn{col, at})
		default:
			specs, p.matAt = append(specs, serial.MultiSpec{Path: col.Key, Want: col.Type}), append(p.matAt, at)
			if pathDepth(col.Key) == 1 {
				p.purge = append(p.purge, col.AttrID)
			}
		}
	}
	sort.SliceStable(p.demats, func(i, j int) bool {
		return pathDepth(p.demats[i].Key) < pathDepth(p.demats[j].Key)
	})
	p.specs = serial.PrepareMulti(specs, dict)
	p.vals, p.found = make([]jsonx.Value, len(specs)), make([]bool, len(specs))
	return p
}

// rewriteRow moves one row's values (rdbms.DB.RewritePage's callback); it
// returns nil when the row holds nothing to move.
func (p *pass) rewriteRow(row storage.Row) (storage.Row, error) {
	var data []byte
	if !row[p.reservoir].IsNull() {
		data = row[p.reservoir].Bytes()
	}
	var out storage.Row // row's replacement, cloned from it on the first write
	put := func(at int, d types.Datum) {
		if out == nil {
			out = row.Clone()
		}
		out[at] = d
	}

	// Physical column → reservoir, overwriting any stale copy (a nested
	// parent may hold one). The physical value stays in place: plans bound
	// before the mode flip read the column directly, and the end-of-pass
	// DROP COLUMN removes the physical side wholesale. A resumed pass
	// re-copies already-moved rows, which is idempotent.
	for _, col := range p.demats {
		d := row[col.at]
		if d.IsNull() {
			continue
		}
		v, err := jsonFromDatum(d, p.dict)
		if err != nil {
			return nil, err
		}
		if pathDepth(col.Key) == 1 {
			data, err = serial.Insert(data, col.AttrID, v, p.dict)
		} else {
			data, err = setNested(data, col.Key, v, p.dict)
		}
		if err != nil {
			return nil, err
		}
		put(p.reservoir, types.NewBytes(data))
		p.moved++
	}

	// Reservoir → physical columns: every promoted key resolved in one
	// pass over the record's header, the way the rewriter's own
	// COALESCE(column, extract…) fallback reads them, then the top-level
	// ones spliced out of the header and the body.
	if len(p.matAt) > 0 && data != nil {
		if err := p.rec.Reset(data); err != nil {
			return nil, err
		}
		if err := p.rec.MultiExtract(p.specs, p.dict, p.vals, p.found); err != nil {
			return nil, err
		}
		for k, at := range p.matAt {
			if !p.found[k] {
				continue
			}
			d, err := datumFromJSON(p.vals[k], p.dict)
			if err != nil {
				return nil, err
			}
			put(at, d)
			p.moved++
		}
		rest, err := serial.DeleteAttrs(data, p.purge...)
		if err != nil {
			return nil, err
		}
		if len(rest) != len(data) {
			put(p.reservoir, types.NewBytes(rest))
		}
	}
	return out, nil
}
