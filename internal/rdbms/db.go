// Package rdbms is the embedded relational database Sinew layers on: an
// unmodified "Postgres stand-in" with SQL, a cost-based optimizer driven by
// ANALYZE statistics, user-defined functions, table-level locking with
// per-statement atomicity, and EXPLAIN.
//
// Sinew (internal/core) talks to it exactly the way the paper's prototype
// talks to Postgres: DDL/DML/queries over SQL, UDFs for serialization and
// key extraction, and background processes doing single-row atomic updates.
package rdbms

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/plan"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// DB is an embedded relational database instance.
//
// Concurrency model (DESIGN.md §10): readers never take table locks. Every
// SELECT opens an exec.ExecCtx and pins each referenced heap's published
// snapshot with one atomic load; it plans and scans those frozen page
// versions for the whole statement. Writers serialize per table on t.mu,
// mutate private page versions (copy-on-write for anything a snapshot may
// share), and publish a new snapshot before unlocking. Unpinned versions
// are reclaimed by the garbage collector.
type DB struct {
	mu     sync.RWMutex // guards the table map
	tables map[string]*table
	pager  *storage.Pager
	funcs  *exec.Registry
	cfgMu  sync.Mutex // guards writes to *cfg (SET) and planCfg's copy
	cfg    *plan.Config
	// flags is flagsKey(cfg), republished by every SET.
	flags atomic.Pointer[string]
	// epoch counts catalog-shape changes; the prepared-plan cache keys on
	// it so DDL/ANALYZE/materializer moves invalidate cached plans.
	epoch atomic.Uint64
	plans *planCache
	// sessions counts logical client sessions (sinewd's pool); feeds
	// sinew_stats() and /metrics.
	sessions atomic.Int64
}

// table couples a heap with its writer lock and statistics. t.mu is a
// write-write exclusion lock only — readers go through heap snapshots and
// never acquire it. heap is assigned once at creation; stats swings
// atomically so lock-free planners can load it.
type table struct {
	mu    sync.RWMutex
	name  string
	heap  *storage.Heap
	stats atomic.Pointer[storage.TableStats]
}

// Open creates an empty database.
func Open() *DB {
	db := &DB{
		tables: make(map[string]*table),
		pager:  storage.NewPager(),
		funcs:  exec.NewRegistry(),
		cfg:    plan.DefaultConfig(),
		plans:  newPlanCache(),
	}
	db.publishFlags()
	return db
}

// RegisterFunc installs a user-defined function, available to SQL
// immediately (Sinew's extraction functions, pgjson's parser, matches()).
func (db *DB) RegisterFunc(def *exec.FuncDef) { db.funcs.Register(def) }

// RegisterMultiExtract installs the fused multi-key extraction kernel
// factory for a function family (see exec.MultiExtractFactory); the
// planner fuses co-occurring calls of that family into one batch operator.
func (db *DB) RegisterMultiExtract(family string, f exec.MultiExtractFactory) {
	db.funcs.RegisterMultiExtract(family, f)
}

// RegisterStripedExtract installs the segment-kernel factory for a
// function family — the striped-scan counterpart of RegisterMultiExtract,
// used when scans deliver frozen-page column segments with their batches.
func (db *DB) RegisterStripedExtract(family string, f exec.SegExtractFactory) {
	db.funcs.RegisterStripedExtract(family, f)
}

// Funcs exposes the function registry (read-mostly).
func (db *DB) Funcs() *exec.Registry { return db.funcs }

// Pager returns the I/O accounting pager shared by all tables.
func (db *DB) Pager() *storage.Pager { return db.pager }

// PlanConfig returns the optimizer configuration; experiments adjust it in
// place before planning.
func (db *DB) PlanConfig() *plan.Config { return db.cfg }

// Result is the materialized outcome of one statement.
type Result struct {
	Columns      []string
	Types        []types.Type
	Rows         []storage.Row
	RowsAffected int64
	// ExplainText is set for EXPLAIN statements.
	ExplainText string
}

// Table returns a table's live heap and current statistics. Sinew core
// uses it to wire serializers and segmenters onto the heap; statement
// planning goes through snapshotCatalog instead, so planners see an
// epoch-pinned snapshot rather than the mutable heap.
func (db *DB) Table(name string) (*storage.Heap, *storage.TableStats, error) {
	t, err := db.lookup(name)
	if err != nil {
		return nil, nil, err
	}
	return t.heap, t.stats.Load(), nil
}

// snapshotCatalog implements plan.Catalog for one statement: table lookups
// resolve through the statement's ExecCtx, so the planner sizes and shapes
// the plan against the very snapshot the executor will scan. With a nil
// ExecCtx it degrades to live-heap views (embedded callers that serialize
// writes themselves).
type snapshotCatalog struct {
	db *DB
	ec *exec.ExecCtx
}

func (c snapshotCatalog) Table(name string) (storage.ReadView, *storage.TableStats, error) {
	t, err := c.db.lookup(name)
	if err != nil {
		return nil, nil, err
	}
	return c.ec.View(t.heap), t.stats.Load(), nil
}

func (db *DB) lookup(name string) (*table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("rdbms: relation %q does not exist", name)
	}
	return t, nil
}

// Exec parses and runs one SQL statement.
func (db *DB) Exec(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt)
}

// Query is Exec restricted by convention to SELECTs; it exists for caller
// readability.
func (db *DB) Query(sql string) (*Result, error) { return db.Exec(sql) }

// ExecStmt runs an already-parsed statement (the Sinew rewriter produces
// ASTs directly, skipping a reparse).
func (db *DB) ExecStmt(stmt sqlparse.Statement) (*Result, error) {
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		return db.execSelect(st)
	case *sqlparse.InsertStmt:
		return db.execInsert(st)
	case *sqlparse.UpdateStmt:
		return db.execUpdate(st, nil)
	case *sqlparse.DeleteStmt:
		return db.execDelete(st, nil)
	case *sqlparse.CreateTableStmt:
		return db.execCreateTable(st)
	case *sqlparse.DropTableStmt:
		return db.execDropTable(st)
	case *sqlparse.AlterTableStmt:
		return db.execAlterTable(st)
	case *sqlparse.TruncateStmt:
		return db.execTruncate(st)
	case *sqlparse.AnalyzeStmt:
		if err := db.Analyze(st.Table); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparse.SetStmt:
		return db.execSet(st)
	case *sqlparse.ExplainStmt:
		sel, ok := st.Stmt.(*sqlparse.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("rdbms: EXPLAIN supports only SELECT")
		}
		text, err := db.ExplainSelect(sel)
		if err != nil {
			return nil, err
		}
		return &Result{ExplainText: text}, nil
	default:
		return nil, fmt.Errorf("rdbms: unsupported statement %T", stmt)
	}
}

// execSet applies SET name = value to the session/planner configuration.
// Writes go under cfgMu so a concurrent statement snapshotting the config
// (planCfg) sees a consistent value; the plan-cache key's flags component
// is republished from the new settings before the lock is released.
func (db *DB) execSet(st *sqlparse.SetStmt) (*Result, error) {
	db.cfgMu.Lock()
	defer db.cfgMu.Unlock()
	switch st.Name {
	case "enable_batch":
		b, err := setBoolValue(st)
		if err != nil {
			return nil, err
		}
		db.cfg.EnableBatch = b
	case "max_parallel_workers":
		// Accepted in [0, 1024] and ignored: every statement runs on one
		// goroutine, so no value shapes a plan and none is part of the
		// plan-cache key. The benchmark's oracle still sends it; the case
		// can go once it stops.
		if _, err := setIntValue(st, 0, 1024); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("rdbms: SET %s: unrecognized configuration parameter (known: %s)",
			st.Name, strings.Join(sessionVars, ", "))
	}
	db.publishFlags()
	return &Result{}, nil
}

// sessionVars lists every session variable execSet accepts, for the
// unknown-parameter error. Keep sorted and in sync with the switch above.
var sessionVars = []string{"enable_batch", "max_parallel_workers"}

// setValueDesc renders the offending value for SET error messages.
func setValueDesc(d types.Datum) string {
	if d.IsNull() {
		return "NULL"
	}
	return fmt.Sprintf("%s %s", d.Typ, d.String())
}

// Every SET validation error follows one shape — "rdbms: SET <name>:
// <problem>" — so clients and tests can rely on the variable being named.
func setIntValue(st *sqlparse.SetStmt, lo, hi int64) (int64, error) {
	if st.Value.Typ != types.Int || st.Value.IsNull() {
		return 0, fmt.Errorf("rdbms: SET %s: requires an integer value, got %s", st.Name, setValueDesc(st.Value))
	}
	if st.Value.I < lo || st.Value.I > hi {
		return 0, fmt.Errorf("rdbms: SET %s: %d is outside the valid range [%d, %d]", st.Name, st.Value.I, lo, hi)
	}
	return st.Value.I, nil
}

func setBoolValue(st *sqlparse.SetStmt) (bool, error) {
	if st.Value.Typ != types.Bool || st.Value.IsNull() {
		return false, fmt.Errorf("rdbms: SET %s: requires a boolean value (on/off), got %s", st.Name, setValueDesc(st.Value))
	}
	return st.Value.Bool(), nil
}

// planCfg snapshots the session configuration for one statement, so a
// concurrent SET cannot race the planner mid-plan. The returned copy is
// private to the statement.
func (db *DB) planCfg() *plan.Config {
	db.cfgMu.Lock()
	cfg := *db.cfg
	db.cfgMu.Unlock()
	return &cfg
}

// execSelect runs a SELECT against epoch-pinned snapshots: no table locks,
// so reads never block behind loads, UPDATEs, or ANALYZE. The ExecCtx pins
// each referenced heap's published snapshot on first touch (planning),
// execution scans the same pinned versions, and Release drops the pins.
func (db *DB) execSelect(st *sqlparse.SelectStmt) (*Result, error) {
	ec := exec.NewExecCtx()
	defer ec.Release()
	p := plan.NewPlanner(snapshotCatalog{db: db, ec: ec}, db.funcs, db.planCfg())
	sp, err := p.PlanSelect(st)
	if err != nil {
		return nil, err
	}
	rows, err := sp.CollectCtx(ec)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: sp.ColumnNames, Types: sp.ColumnTypes, Rows: rows}, nil
}

// PlanSelect plans (but does not run) a SELECT — benchmarks and tools use
// it to drive the executor directly. Planning reads a pinned snapshot; the
// returned plan re-binds to the live heaps, so the caller must not run
// DDL/DML concurrently with executing it (or must execute it with
// CollectCtx under its own ExecCtx).
func (db *DB) PlanSelect(st *sqlparse.SelectStmt) (*plan.SelectPlan, error) {
	ec := exec.NewExecCtx()
	defer ec.Release()
	p := plan.NewPlanner(snapshotCatalog{db: db, ec: ec}, db.funcs, db.planCfg())
	return p.PlanSelect(st)
}

// ExplainSelect plans (but does not run) a SELECT and renders the plan.
func (db *DB) ExplainSelect(st *sqlparse.SelectStmt) (string, error) {
	ec := exec.NewExecCtx()
	defer ec.Release()
	p := plan.NewPlanner(snapshotCatalog{db: db, ec: ec}, db.funcs, db.planCfg())
	sp, err := p.PlanSelect(st)
	if err != nil {
		return "", err
	}
	return sp.Explain(), nil
}

func fromTables(st *sqlparse.SelectStmt) []string {
	names := make([]string, 0, len(st.From))
	for _, f := range st.From {
		names = append(names, f.Name)
	}
	return names
}

func (db *DB) execInsert(st *sqlparse.InsertStmt) (*Result, error) {
	t, err := db.lookup(st.Table)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Publish before unlocking (LIFO defers) so the statement's effect —
	// including a rollback — becomes the snapshot readers pin next.
	defer t.heap.Publish()
	schema := t.heap.Schema()

	// Map the column list to schema positions.
	colIdx := make([]int, 0, len(st.Columns))
	if len(st.Columns) == 0 {
		for i := range schema.Cols {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, c := range st.Columns {
			i := schema.ColumnIndex(c)
			if i < 0 {
				return nil, fmt.Errorf("rdbms: column %q of relation %q does not exist", c, st.Table)
			}
			colIdx = append(colIdx, i)
		}
	}

	// VALUES expressions read no column: each is evaluated over one row
	// of a zero-width batch.
	emptyLayout := &plan.Layout{}
	one := exec.NewRowBatch(0, 1)
	one.SetLen(1)
	ctx := exec.NewEvalCtx()
	var inserted int64
	// Per-statement atomicity: remember how many rows were added; since
	// Insert appends, failure mid-way rolls back by deleting the tail.
	var added []storage.RowID
	rollback := func() {
		for i := len(added) - 1; i >= 0; i-- {
			_, _ = t.heap.Delete(added[i])
		}
	}
	for _, rowExprs := range st.Rows {
		if len(rowExprs) != len(colIdx) {
			rollback()
			return nil, fmt.Errorf("rdbms: INSERT has %d expressions but %d target columns", len(rowExprs), len(colIdx))
		}
		row := make(storage.Row, len(schema.Cols))
		for i, c := range schema.Cols {
			row[i] = types.NewNull(c.Typ)
		}
		for i, e := range rowExprs {
			ce, err := plan.CompileExpr(e, emptyLayout, db.funcs, "VALUES")
			if err != nil {
				rollback()
				return nil, err
			}
			col, err := exec.EvalBatch(ce, one, ctx)
			if err != nil {
				rollback()
				return nil, err
			}
			v, err := coerceTo(col[0], schema.Cols[colIdx[i]].Typ)
			if err != nil {
				rollback()
				return nil, err
			}
			row[colIdx[i]] = v
		}
		id, err := insertReturningID(t.heap, row)
		if err != nil {
			rollback()
			return nil, err
		}
		added = append(added, id)
		inserted++
	}
	return &Result{RowsAffected: inserted}, nil
}

// coerceTo casts v to the column type on insert/update, keeping NULLs and
// accepting exact or numeric-compatible types.
func coerceTo(v types.Datum, t types.Type) (types.Datum, error) {
	if v.IsNull() || v.Typ == t || t == types.Unknown {
		return v, nil
	}
	return types.Cast(v, t)
}

// insertReturningID inserts and reports where the row landed (the heap
// appends, so it is the last slot).
func insertReturningID(h *storage.Heap, row storage.Row) (storage.RowID, error) {
	if err := h.Insert(row); err != nil {
		return storage.RowID{}, err
	}
	return h.LastRowID(), nil
}

// errEpochMoved is what a write built under an older catalog epoch returns
// once it holds its table's lock; ExecWriteOnce builds it again.
var errEpochMoved = errors.New("rdbms: catalog epoch moved")

// stale reports, under the write lock of the table a statement writes,
// whether the catalog epoch moved since the statement was built at *epoch.
// A nil epoch — a statement ExecStmt runs as given — is never stale.
func (db *DB) stale(epoch *uint64) bool {
	return epoch != nil && db.epoch.Load() != *epoch
}

func (db *DB) execUpdate(st *sqlparse.UpdateStmt, epoch *uint64) (*Result, error) {
	t, err := db.lookup(st.Table)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if db.stale(epoch) {
		return nil, errEpochMoved
	}
	defer t.heap.Publish()
	schema := t.heap.Schema()
	idx := make([]int, len(st.Set))
	values := make([]sqlparse.Expr, len(st.Set))
	for k, s := range st.Set {
		if idx[k] = schema.ColumnIndex(s.Column); idx[k] < 0 {
			return nil, fmt.Errorf("rdbms: column %q of relation %q does not exist", s.Column, st.Table)
		}
		values[k] = s.Value
	}
	wp, err := db.planWrite(t, st.Where, values)
	if err != nil {
		return nil, err
	}

	// Phase 1: find matches and compute new rows (Halloween-safe).
	type change struct {
		id  storage.RowID
		row storage.Row
	}
	var changes []change
	ctx := exec.NewEvalCtx()
	vals := make([][]types.Datum, len(wp.Sets))
	err = wp.Run(nil, func(b *exec.RowBatch, ids []storage.RowID) error {
		for k, e := range wp.Sets {
			col, err := exec.EvalBatch(e, b, ctx)
			if err != nil {
				return err
			}
			vals[k] = col
		}
		for si := 0; si < b.Len(); si++ {
			i := si
			if b.Sel != nil {
				i = int(b.Sel[si])
			}
			// The scan reads every column of an UPDATE's table: the new row
			// starts as the stored one.
			newRow := make(storage.Row, len(b.Cols))
			for j := range newRow {
				newRow[j] = b.Cols[j][i]
			}
			for k, j := range idx {
				v, err := coerceTo(vals[k][i], schema.Cols[j].Typ)
				if err != nil {
					return err
				}
				// The stored value owns its payload: an extracted one
				// aliases the record or frozen segment it came from, which
				// it would pin.
				newRow[j] = v.Clone()
			}
			changes = append(changes, change{id: ids[i], row: newRow})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: apply with undo logging for statement atomicity.
	type undo struct {
		id  storage.RowID
		row storage.Row
	}
	var undoLog []undo
	for _, ch := range changes {
		old, err := t.heap.Update(ch.id, ch.row)
		if err != nil {
			for i := len(undoLog) - 1; i >= 0; i-- {
				_, _ = t.heap.Update(undoLog[i].id, undoLog[i].row)
			}
			return nil, err
		}
		undoLog = append(undoLog, undo{id: ch.id, row: old})
	}
	return &Result{RowsAffected: int64(len(changes))}, nil
}

func (db *DB) execDelete(st *sqlparse.DeleteStmt, epoch *uint64) (*Result, error) {
	t, err := db.lookup(st.Table)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if db.stale(epoch) {
		return nil, errEpochMoved
	}
	defer t.heap.Publish()
	wp, err := db.planWrite(t, st.Where, nil)
	if err != nil {
		return nil, err
	}
	var ids []storage.RowID
	err = wp.Run(nil, func(b *exec.RowBatch, run []storage.RowID) error {
		for si := 0; si < b.Len(); si++ {
			i := si
			if b.Sel != nil {
				i = int(b.Sel[si])
			}
			ids = append(ids, run[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	type undo struct {
		id  storage.RowID
		row storage.Row
	}
	var undoLog []undo
	for _, id := range ids {
		old, err := t.heap.Delete(id)
		if err != nil {
			for i := len(undoLog) - 1; i >= 0; i-- {
				_ = t.heap.Restore(undoLog[i].id, undoLog[i].row)
			}
			return nil, err
		}
		undoLog = append(undoLog, undo{id: id, row: old})
	}
	return &Result{RowsAffected: int64(len(ids))}, nil
}

// planWrite plans the read side of an UPDATE or DELETE of t (the SET
// values, or nil). The caller holds t's write lock, and runs the plan with
// a nil ExecCtx (WritePlan.Run): a write must read the live heap it is
// about to change, not a published snapshot, so the planner binds t's live
// heap too.
func (db *DB) planWrite(t *table, where sqlparse.Expr, sets []sqlparse.Expr) (*plan.WritePlan, error) {
	return plan.NewPlanner(lockedTable{t}, db.funcs, db.planCfg()).PlanWrite(t.name, where, sets)
}

// lockedTable is a write's Catalog: the one table the write names, whose
// write lock it holds, as its live heap.
type lockedTable struct{ t *table }

func (c lockedTable) Table(string) (storage.ReadView, *storage.TableStats, error) {
	return c.t.heap, c.t.stats.Load(), nil
}

func (db *DB) execCreateTable(st *sqlparse.CreateTableStmt) (*Result, error) {
	cols := make([]storage.Column, len(st.Columns))
	for i, c := range st.Columns {
		cols[i] = storage.Column{Name: c.Name, Typ: c.Typ, NotNull: c.NotNull}
	}
	err := db.CreateTable(st.Table, cols, st.IfNotExists)
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// CreateTable creates a table programmatically (loaders use this directly).
func (db *DB) CreateTable(name string, cols []storage.Column, ifNotExists bool) error {
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[key]; exists {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("rdbms: relation %q already exists", name)
	}
	schema, err := storage.NewSchema(cols...)
	if err != nil {
		return err
	}
	db.tables[key] = &table{name: key, heap: storage.NewHeap(schema, db.pager)}
	db.BumpCatalogEpoch()
	return nil
}

func (db *DB) execDropTable(st *sqlparse.DropTableStmt) (*Result, error) {
	key := strings.ToLower(st.Table)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[key]; !ok {
		if st.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("rdbms: relation %q does not exist", st.Table)
	}
	delete(db.tables, key)
	db.BumpCatalogEpoch()
	return &Result{}, nil
}

func (db *DB) execAlterTable(st *sqlparse.AlterTableStmt) (*Result, error) {
	if st.AddColumn != nil {
		col := storage.Column{Name: st.AddColumn.Name, Typ: st.AddColumn.Typ, NotNull: st.AddColumn.NotNull}
		if err := db.AddColumns(st.Table, []storage.Column{col}); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	t, err := db.lookup(st.Table)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st.DropColumn != "" {
		if t.heap.Schema().ColumnIndex(st.DropColumn) < 0 {
			return nil, fmt.Errorf("rdbms: column %q of relation %q does not exist", st.DropColumn, st.Table)
		}
		idx, err := t.heap.AlterDropColumn(st.DropColumn)
		if err != nil {
			return nil, err
		}
		if err := t.heap.DropColumnData(idx); err != nil {
			return nil, err
		}
	}
	t.schemaChanged(db)
	return &Result{}, nil
}

// schemaChanged ends an ALTER under t.mu: statistics are stale, and the
// epoch moves before the new shape is published (storage invariant 4), so
// any cached plan that manages to pin the post-ALTER snapshot fails its
// epoch re-check.
func (t *table) schemaChanged(db *DB) {
	t.stats.Store(nil)
	db.BumpCatalogEpoch()
	t.heap.Publish()
}

// AddColumns appends columns to a table in one rewrite of its heap — what
// ALTER TABLE … ADD COLUMN does for one column; the materializer adds all
// the columns of a pass at once. Every existing row reads NULL in them.
func (db *DB) AddColumns(name string, cols []storage.Column) error {
	t, err := db.lookup(name)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, col := range cols {
		if col.NotNull && t.heap.NumRows() > 0 {
			return fmt.Errorf("rdbms: cannot add NOT NULL column %q to non-empty table", col.Name)
		}
	}
	// AlterAddColumn swaps in a schema clone rather than mutating the one
	// pinned snapshots share (storage invariant 3).
	if err := t.heap.AlterAddColumn(cols...); err != nil {
		return err
	}
	if err := t.heap.AddColumnData(len(cols)); err != nil {
		return err
	}
	t.schemaChanged(db)
	return nil
}

func (db *DB) execTruncate(st *sqlparse.TruncateStmt) (*Result, error) {
	t, err := db.lookup(st.Table)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.heap.Truncate()
	t.stats.Store(nil)
	db.BumpCatalogEpoch()
	t.heap.Publish()
	return &Result{}, nil
}

// Analyze recomputes optimizer statistics for a table (the SQL ANALYZE).
// storage.Analyze is one pass over the heap that also rebuilds the page
// summaries and, doubling as the compaction trigger, freezes cold full
// pages into column-striped segments (no-op without a segmenter); both
// install new page versions, so the pass holds the write lock. Readers
// are unaffected — they keep scanning the snapshot from the previous
// publish until the new one lands.
func (db *DB) Analyze(name string) error {
	t, err := db.lookup(name)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.stats.Store(storage.Analyze(t.heap))
	// New statistics can change plan choice; cached plans are stale. Bump
	// before publishing (storage invariant 4).
	db.BumpCatalogEpoch()
	t.heap.Publish()
	t.mu.Unlock()
	return nil
}

// ---------- Programmatic access for loaders and background workers ----------

// InsertRows bulk-appends rows under a single lock acquisition; the fast
// path all four benchmarked loaders use.
func (db *DB) InsertRows(name string, rows []storage.Row) error {
	t, err := db.lookup(name)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.heap.Publish()
	for _, r := range rows {
		if err := t.heap.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// ScanTable iterates the rows of the table's published snapshot — no lock,
// so it never blocks behind a writer. fn must not retain row slices;
// return false to stop. A frozen page that fails to decode ends the scan
// with its error.
func (db *DB) ScanTable(name string, fn func(id storage.RowID, row storage.Row) bool) error {
	t, err := db.lookup(name)
	if err != nil {
		return err
	}
	return t.heap.CurrentSnapshot().Scan(fn)
}

// RewritePage reads, rewrites and publishes one heap page under one
// acquisition of the table's write lock (the column materializer's unit of
// work: each page update is atomic, the whole pass is not — §3.1.4 asks as
// much of each row). fn sees every live row of the page, which it must not
// modify, and returns the row's replacement or nil to keep it; an error
// leaves the page as it was. No SQL write can land between the read and
// the write, and readers see the page wholly before or wholly after. fn
// runs under that lock: it must not go back to the table. RewritePage
// reports false once page is past the end of the table.
func (db *DB) RewritePage(name string, page int, fn func(storage.Row) (storage.Row, error)) (bool, error) {
	t, err := db.lookup(name)
	if err != nil {
		return false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if page >= t.heap.NumPages() {
		return false, nil
	}
	changed, err := t.heap.RewritePage(page, fn)
	if changed {
		t.heap.Publish()
	}
	return true, err
}

// GetRow fetches one row by ID from the published snapshot; the returned
// row is a copy. A frozen page that fails to decode the row returns its
// error.
func (db *DB) GetRow(name string, id storage.RowID) (storage.Row, bool, error) {
	t, err := db.lookup(name)
	if err != nil {
		return nil, false, err
	}
	row, ok, err := t.heap.CurrentSnapshot().Get(id)
	if !ok {
		return nil, false, err
	}
	return row.Clone(), true, nil
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TableSizeBytes reports the estimated stored size of a table's published
// snapshot.
func (db *DB) TableSizeBytes(name string) (int64, error) {
	t, err := db.lookup(name)
	if err != nil {
		return 0, err
	}
	return t.heap.CurrentSnapshot().SizeBytes(), nil
}

// TableRowCount reports the row count of a table's published snapshot.
func (db *DB) TableRowCount(name string) (int64, error) {
	t, err := db.lookup(name)
	if err != nil {
		return 0, err
	}
	return t.heap.CurrentSnapshot().NumRows(), nil
}

// TableSchema returns a copy of the table's published schema.
func (db *DB) TableSchema(name string) (*storage.Schema, error) {
	t, err := db.lookup(name)
	if err != nil {
		return nil, err
	}
	return t.heap.CurrentSnapshot().Schema().Clone(), nil
}

// TotalSizeBytes sums all table sizes (the database footprint for Table 3).
func (db *DB) TotalSizeBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var total int64
	for _, t := range db.tables {
		total += t.heap.CurrentSnapshot().SizeBytes()
	}
	return total
}

// FrozenPages sums the column-striped (frozen) page count across all
// tables — the segments_total figure of sinew_stats().
func (db *DB) FrozenPages() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var total int64
	for _, t := range db.tables {
		total += int64(t.heap.CurrentSnapshot().NumFrozenPages())
	}
	return total
}

// SegmentBytes sums the bytes of the frozen pages' segments across all
// tables — the segment_bytes figure of sinew_stats(). DatabaseSizeBytes
// does not count them: it is the row bytes a table stores.
func (db *DB) SegmentBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var total int64
	for _, t := range db.tables {
		total += t.heap.CurrentSnapshot().SegmentBytes()
	}
	return total
}

// ---------- Session & snapshot telemetry ----------

// SessionEnter and SessionExit track logical client sessions (sinewd's
// session pool). The gauge feeds sinew_stats() and /metrics.
func (db *DB) SessionEnter() { db.sessions.Add(1) }

// SessionExit decrements the logical session gauge.
func (db *DB) SessionExit() { db.sessions.Add(-1) }

// SessionsActive reports the current logical session count.
func (db *DB) SessionsActive() int64 { return db.sessions.Load() }

// SnapshotStats reports the MVCC counters: snapshots currently pinned by
// in-flight statements, snapshot publishes to date (the global epoch
// clock), and pages cloned by copy-on-write. These survive Pager.Reset —
// they describe lifetime concurrency behavior, not one query.
func (db *DB) SnapshotStats() (open, epoch, cow int64) {
	return db.pager.SnapshotStats()
}
