package rdbms

import (
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
)

// TestPlanCacheStaleBuildNotReplayed pins the miss path's epoch protocol: a
// plan is cached under the epoch sampled before build ran. Here build bumps
// the epoch before returning — a catalog change landing after the rewrite
// read the old catalog — and hands back the statement that old catalog
// implied; the entry must never be replayed.
func TestPlanCacheStaleBuildNotReplayed(t *testing.T) {
	db := newTestDB(t)
	const text = `SELECT name FROM users WHERE id = 1`
	builds := 0
	build := func(rewritten string, bump bool) func() (*sqlparse.SelectStmt, error) {
		return func() (*sqlparse.SelectStmt, error) {
			builds++
			st, err := sqlparse.Parse(rewritten)
			if err != nil {
				return nil, err
			}
			if bump {
				db.BumpCatalogEpoch()
			}
			return st.(*sqlparse.SelectStmt), nil
		}
	}
	run := func(rewritten string, bump bool) string {
		t.Helper()
		res, err := db.ExecSelectCached(text, build(rewritten, bump))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %v", res.Rows)
		}
		return res.Rows[0][0].Text()
	}

	stale := `SELECT name FROM users WHERE id = 2`
	if got := run(stale, true); got != "bob" {
		t.Fatalf("stale build's own execution = %q, want bob", got)
	}
	if got := run(text, false); got != "alice" || builds != 2 {
		t.Fatalf("after a build that raced an epoch bump: got %q with %d builds; want alice from a second build (stale plan replayed)", got, builds)
	}
	if got := run(stale, false); got != "alice" || builds != 2 {
		t.Fatalf("third run: got %q with %d builds; want a cache hit on the second build's plan", got, builds)
	}
}
