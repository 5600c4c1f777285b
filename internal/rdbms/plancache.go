package rdbms

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/plan"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// The prepared-plan cache: repeated statements skip parsing, rewriting and
// planning entirely. Entries are keyed by the statement's shape — its text
// with the WHERE clause's literals lifted to typed parameters
// (sqlparse.ScanShape) — the plan-shaping session flags, and the catalog
// epoch — a counter bumped by every DDL, ANALYZE, and (via
// BumpCatalogEpoch) any upper-layer change that alters what the same SQL
// text should compile to, such as a materializer pass moving columns. An
// epoch bump therefore invalidates every cached plan at once without
// enumerating dependencies.
//
// A shape is parsed, rewritten and planned once, with the values of the
// execution that missed, and every execution binds its own values when the
// plan opens (exec.ExecCtx.Bind). When the planner reports that the plan
// depends on the values (plan.SelectPlan.ValueDependent: a join or a
// hash-or-sort choice that read them, a parameter in a join's keys or
// condition), the shape's entry becomes a marker and each statement of the
// shape is cached under its own text, planned from its literals — the plan
// and EXPLAIN it has without the cache.
//
// Cached *plan.SelectPlan values are safe to re-execute and to execute
// concurrently: Open builds fresh iterator state per execution, fused
// multi-extract kernels are instantiated per Open by their factory, and
// parameters are read from the execution's context, never stored in the
// plan.

// planCacheCap bounds the number of retained plans (LRU eviction).
const planCacheCap = 256

type planKey struct {
	sql   string
	flags string
	epoch uint64
}

// cachedPlan is one entry: a plan, or — literal set — the marker of a
// shape whose plans depend on its values, whose statements are cached
// under their own text.
type cachedPlan struct {
	sp      *plan.SelectPlan
	tables  []string
	literal bool
	key     planKey // for eviction bookkeeping
}

// PlanCacheStats is a snapshot of the cache counters, surfaced through the
// sinew_stats() UDF and the CLI.
type PlanCacheStats struct {
	Hits          uint64
	Misses        uint64
	Entries       int
	Invalidations uint64
	Epoch         uint64
}

type planCache struct {
	mu      sync.Mutex
	entries map[planKey]*list.Element
	lru     *list.List // front = most recent; values are *cachedPlan
	hits    atomic.Uint64
	misses  atomic.Uint64
	invals  atomic.Uint64
}

func newPlanCache() *planCache {
	return &planCache{
		entries: make(map[planKey]*list.Element),
		lru:     list.New(),
	}
}

func (c *planCache) get(key planKey) (*cachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cachedPlan), true
}

func (c *planCache) put(key planKey, cp *cachedPlan) {
	cp.key = key
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = cp
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(cp)
	for c.lru.Len() > planCacheCap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cachedPlan).key)
	}
}

func (c *planCache) remove(key planKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.Remove(el)
		delete(c.entries, key)
	}
}

// clear drops every entry; called on epoch bumps so stale-epoch plans do
// not linger until LRU eviction.
func (c *planCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) > 0 {
		c.entries = make(map[planKey]*list.Element)
		c.lru.Init()
	}
	c.invals.Add(1)
}

func (c *planCache) stats(epoch uint64) PlanCacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return PlanCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Entries:       n,
		Invalidations: c.invals.Load(),
		Epoch:         epoch,
	}
}

// BumpCatalogEpoch invalidates every cached plan. The rdbms layer calls it
// on DDL/TRUNCATE/ANALYZE; upper layers (Sinew core) call it whenever the
// logical-to-physical mapping changes — schema analysis, a materializer
// pass, or document loads that mint new attributes — since those change
// what the rewriter emits for the same statement text.
func (db *DB) BumpCatalogEpoch() {
	db.epoch.Add(1)
	db.plans.clear()
}

// CatalogEpoch reports the current epoch (tests pin invalidation with it).
func (db *DB) CatalogEpoch() uint64 { return db.epoch.Load() }

// PlanCacheStats snapshots the prepared-plan cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats {
	return db.plans.stats(db.epoch.Load())
}

// flagsKey folds the plan-shaping session settings into the cache key, so
// SET enable_batch forces a re-plan rather than replaying a plan built
// under the other setting. The key is computed when a setting changes
// (Open, execSet) and stored in db.flags: every statement reads it, few
// change it.
func flagsKey(cfg *plan.Config) string {
	if cfg.EnableBatch {
		return "b1"
	}
	return "b0"
}

// publishFlags recomputes db.flags from the current settings.
func (db *DB) publishFlags() {
	k := flagsKey(db.cfg)
	db.flags.Store(&k)
}

// CachedSelect is one SELECT as the plan cache sees it: Text is the
// statement as the client submitted it; Shape is Text with its WHERE
// literals lifted and Params their values (sqlparse.ScanShape). Without
// parameters Shape is Text.
type CachedSelect struct {
	Text, Shape string
	Params      []types.Datum
}

// ExecSelectCached runs a SELECT through the prepared-plan cache. On a
// miss, build produces the planned-against AST: of q.Shape (parsed by
// sqlparse.ParseShape) when shape is set, of q.Text otherwise. For Sinew it
// performs parse + virtual-column rewrite, which a hit skips entirely along
// with planning.
//
// Hit or miss, a statement runs only over snapshots it pinned while the
// epoch it was built under still held. Whoever changes what the same text
// should compile to — DDL, a load that dirties a column, the materializer
// moving values between the reservoir and a column — bumps the epoch before
// publishing the first snapshot that shows the change (storage invariant
// 4), so pin-then-recheck proves that none of the pinned snapshots can.
func (db *DB) ExecSelectCached(q CachedSelect, build func(shape bool) (*sqlparse.SelectStmt, error)) (*Result, error) {
	flags := *db.flags.Load()
	for {
		// The epoch is sampled once, before build: a plan is cached under
		// the epoch its rewrite may have read catalog state at.
		key := planKey{sql: q.Shape, flags: flags, epoch: db.epoch.Load()}
		shaped := len(q.Params) > 0
		ent, hit := db.plans.get(key)
		if hit && ent.literal {
			key.sql, shaped = q.Text, false
			ent, hit = db.plans.get(key)
		}
		var st *sqlparse.SelectStmt
		if !hit {
			db.plans.misses.Add(1)
			var err error
			if st, err = build(shaped); err != nil {
				return nil, err
			}
			ent = &cachedPlan{tables: fromTables(st)}
		}
		ec := exec.NewExecCtx()
		if shaped {
			ec.Bind(q.Params)
		}
		if !db.pinAt(ec, ent.tables, key.epoch) {
			// A catalog change landed between the sample and the pins: the
			// cached plan is stale, a fresh build may be. Start over under
			// the new epoch; every turn is paid for by somebody's bump.
			ec.Release()
			if hit {
				db.plans.remove(key)
			}
			continue
		}
		if hit {
			db.plans.hits.Add(1)
		} else {
			sp, err := db.planPinned(ec, st)
			if err != nil {
				ec.Release()
				return nil, err
			}
			if sp.ValueDependent {
				// Another value could want another plan: mark the shape and
				// go round again, to the statement's own text.
				ec.Release()
				db.plans.put(key, &cachedPlan{literal: true})
				continue
			}
			ent.sp = sp
		}
		res, err := db.runPinned(ec, ent.sp)
		ec.Release()
		if err == nil && !hit {
			db.plans.put(key, ent)
		}
		return res, err
	}
}

// ExecSelectOnce runs a SELECT whose build serves one execution only and is
// never cached (Sinew's matches() binds a per-statement result set), under
// ExecSelectCached's protocol: build is called again whenever the epoch
// moved before the snapshots were pinned.
func (db *DB) ExecSelectOnce(build func() (*sqlparse.SelectStmt, error)) (*Result, error) {
	for {
		epoch := db.epoch.Load()
		st, err := build()
		if err != nil {
			return nil, err
		}
		ec := exec.NewExecCtx()
		if !db.pinAt(ec, fromTables(st), epoch) {
			ec.Release()
			continue
		}
		sp, err := db.planPinned(ec, st)
		var res *Result
		if err == nil {
			res, err = db.runPinned(ec, sp)
		}
		ec.Release()
		return res, err
	}
}

// ExecWriteOnce runs an UPDATE or DELETE under the same protocol: build is
// called again whenever the epoch moved before the statement took its
// table's write lock. The comparison is made under that lock, because a
// materializer pass bumps the epoch before its first page rewrite takes
// it: a write rewritten while a key was virtual lands wholly before the
// pass moves the key, or is rewritten after the bump. Any other statement
// runs once, as ExecStmt runs it.
func (db *DB) ExecWriteOnce(build func() (sqlparse.Statement, error)) (*Result, error) {
	for {
		epoch := db.epoch.Load()
		stmt, err := build()
		if err != nil {
			return nil, err
		}
		var res *Result
		switch st := stmt.(type) {
		case *sqlparse.UpdateStmt:
			res, err = db.execUpdate(st, &epoch)
		case *sqlparse.DeleteStmt:
			res, err = db.execDelete(st, &epoch)
		default:
			return db.ExecStmt(stmt)
		}
		if !errors.Is(err, errEpochMoved) {
			return res, err
		}
	}
}

// pinAt pins the published snapshot of every named table in ec and reports
// whether the catalog epoch still is epoch afterwards. A table that does
// not exist pins nothing: planning reports it.
func (db *DB) pinAt(ec *exec.ExecCtx, tables []string, epoch uint64) bool {
	for _, n := range tables {
		if t, err := db.lookup(n); err == nil {
			ec.View(t.heap)
		}
	}
	return db.epoch.Load() == epoch
}

// planPinned plans st against the snapshots ec holds, its estimates
// reading the parameter values ec is bound to.
func (db *DB) planPinned(ec *exec.ExecCtx, st *sqlparse.SelectStmt) (*plan.SelectPlan, error) {
	p := plan.NewPlanner(snapshotCatalog{db: db, ec: ec}, db.funcs, db.planCfg())
	p.Params = ec.Params()
	return p.PlanSelect(st)
}

// runPinned runs sp over the snapshots ec holds, with the parameter values
// ec is bound to.
func (db *DB) runPinned(ec *exec.ExecCtx, sp *plan.SelectPlan) (*Result, error) {
	rows, err := sp.CollectCtx(ec)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: sp.ColumnNames, Types: sp.ColumnTypes, Rows: rows}, nil
}
