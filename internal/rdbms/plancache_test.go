package rdbms

import (
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
)

// TestPlanCacheStaleBuildRebuilt pins the miss path's epoch protocol: a
// statement runs only over snapshots pinned while the epoch its build was
// sampled under still held. Here the first build bumps the epoch before
// returning — a catalog change landing after the rewrite read the old
// catalog, before the snapshots are pinned — and hands back the statement
// that old catalog implied. It must not run, let alone be cached: the
// statement is built again under the new epoch and answers from that.
func TestPlanCacheStaleBuildRebuilt(t *testing.T) {
	db := newTestDB(t)
	const text = `SELECT name FROM users WHERE id = 1`
	const stale = `SELECT name FROM users WHERE id = 2`
	builds := 0
	// build hands out what the catalog implies at the time: the stale text
	// until the epoch has moved past staleUntil.
	staleUntil := db.CatalogEpoch()
	build := func() (*sqlparse.SelectStmt, error) {
		builds++
		rewritten := text
		if db.CatalogEpoch() == staleUntil {
			rewritten = stale
		}
		st, err := sqlparse.Parse(rewritten)
		if err != nil {
			return nil, err
		}
		if rewritten == stale {
			db.BumpCatalogEpoch() // lands between the rewrite and the pin
		}
		return st.(*sqlparse.SelectStmt), nil
	}
	run := func() string {
		t.Helper()
		res, err := db.ExecSelectCached(CachedSelect{Text: text, Shape: text},
			func(bool) (*sqlparse.SelectStmt, error) { return build() })
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %v", res.Rows)
		}
		return res.Rows[0][0].Text()
	}

	before := db.PlanCacheStats()
	if got := run(); got != "alice" || builds != 2 {
		t.Fatalf("a build that raced an epoch bump: got %q after %d builds; want alice from a second build (the stale rewrite ran)", got, builds)
	}
	after := db.PlanCacheStats()
	if after.Entries != 1 || after.Misses-before.Misses != 2 {
		t.Fatalf("cache after the rebuild: %d entries, %d misses; want the rebuilt plan alone, one miss per build", after.Entries, after.Misses-before.Misses)
	}
	if got := run(); got != "alice" || builds != 2 {
		t.Fatalf("second run: got %q with %d builds; want a cache hit on the rebuilt plan", got, builds)
	}
	if hits := db.PlanCacheStats().Hits - after.Hits; hits != 1 {
		t.Fatalf("second run: %d hits, want 1", hits)
	}
}

// TestExecSelectOnceRebuilds: the uncached entry point follows the same
// protocol — a build that raced an epoch bump is thrown away and built
// again — and leaves nothing in the cache.
func TestExecSelectOnceRebuilds(t *testing.T) {
	db := newTestDB(t)
	staleUntil := db.CatalogEpoch()
	builds := 0
	res, err := db.ExecSelectOnce(func() (*sqlparse.SelectStmt, error) {
		builds++
		text := `SELECT name FROM users WHERE id = 1`
		if db.CatalogEpoch() == staleUntil {
			text = `SELECT name FROM users WHERE id = 2`
			defer db.BumpCatalogEpoch()
		}
		st, err := sqlparse.Parse(text)
		if err != nil {
			return nil, err
		}
		return st.(*sqlparse.SelectStmt), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "alice" || builds != 2 {
		t.Fatalf("got %v after %d builds; want alice from a second build", res.Rows, builds)
	}
	if s := db.PlanCacheStats(); s.Entries != 0 {
		t.Fatalf("%d plans cached by ExecSelectOnce", s.Entries)
	}
}

// TestExecWriteOnceRebuilds: writes follow the protocol too — an UPDATE or
// DELETE whose build raced an epoch bump is thrown away before it touches
// a row and built again, and only the rebuilt statement's rows change.
func TestExecWriteOnceRebuilds(t *testing.T) {
	for _, c := range []struct {
		fresh, stale, check string
		want                int
	}{
		{`UPDATE users SET age = 99 WHERE id = 1`, `UPDATE users SET age = 99 WHERE id = 2`, `SELECT id FROM users WHERE age = 99`, 1},
		{`DELETE FROM users WHERE id = 1`, `DELETE FROM users WHERE id = 2`, `SELECT id FROM users WHERE id <= 2`, 2},
	} {
		db := newTestDB(t)
		staleUntil := db.CatalogEpoch()
		builds := 0
		res, err := db.ExecWriteOnce(func() (sqlparse.Statement, error) {
			builds++
			text := c.fresh
			if db.CatalogEpoch() == staleUntil {
				text = c.stale
				defer db.BumpCatalogEpoch()
			}
			return sqlparse.Parse(text)
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 || builds != 2 {
			t.Fatalf("%s: %d rows after %d builds; want 1 from a second build", c.fresh, res.RowsAffected, builds)
		}
		got := mustExec(t, db, c.check)
		if len(got.Rows) != 1 || got.Rows[0][0].I != int64(c.want) {
			t.Errorf("after %s: %s = %v, want id %d alone (the stale build ran)", c.fresh, c.check, got.Rows, c.want)
		}
	}
}
