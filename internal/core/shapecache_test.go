package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
)

// shapeDB loads NoBench under the paper's materialization policy in one of
// three layouts: "frozen" (ANALYZE stripes the full pages), "row" (no page
// ever freezes) and "dirty" (frozen, then a second load leaves the
// materialized columns dirty, so the rewrite COALESCEs them).
func shapeDB(t testing.TB, layout string, n int) *DB {
	t.Helper()
	const table = "nobench_main"
	db := Open(DefaultConfig())
	if err := db.CreateCollection(table); err != nil {
		t.Fatal(err)
	}
	if layout == "row" {
		heap, _, err := db.rdb.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		heap.SetColumnSegmenter(nil)
	}
	docs := nobench.Generate(n, 1)
	first := docs
	if layout == "dirty" {
		first = docs[:n*7/8]
	}
	if _, err := db.LoadDocuments(table, first); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AnalyzeSchema(table); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaterializer(db).RunOnce(table); err != nil {
		t.Fatal(err)
	}
	if err := db.rdb.Analyze(table); err != nil {
		t.Fatal(err)
	}
	if layout == "dirty" {
		if _, err := db.LoadDocuments(table, docs[len(first):]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// freshQuery runs sql from a plan of its own literals, outside the plan
// cache: parse, rewrite, plan, run.
func (db *DB) freshQuery(sql string) (*QueryResult, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	rewritten, cleanup, err := db.RewriteStmt(stmt)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return db.rdb.ExecStmt(rewritten)
}

// execSkips is one execution's outcome beside its page-skip counters.
type execSkips struct {
	result         string
	pages, zoneMap int64
}

func runCounted(db *DB, query func(string) (*QueryResult, error), sql string) execSkips {
	pager := db.rdb.Pager()
	pager.Reset()
	res, err := query(sql)
	pages, _ := pager.ExecStats()
	zones, _, _ := pager.SelStats()
	out := execSkips{pages: pages, zoneMap: zones}
	if err != nil {
		out.result = "ERROR: " + err.Error()
	} else {
		out.result = strings.Join(res.Columns, "|") + "\n" + resultKey(res)
	}
	return out
}

// shapeCase is one statement with the literal values it is run with.
type shapeCase struct {
	name string
	text func(k int) string
	// dependent: the shape's plan reads its values, so each text is planned
	// from its literals.
	dependent bool
}

func shapeCases(n int) []shapeCase {
	w := n / 1000
	return []shapeCase{
		{name: "Q5", text: func(k int) string {
			return fmt.Sprintf(`SELECT * FROM nobench_main WHERE str1 = '%s'`, nobench.StrValue(int64(k*37%n)))
		}},
		{name: "Q6", text: func(k int) string {
			lo := k * 97 % n
			return fmt.Sprintf(`SELECT * FROM nobench_main WHERE num BETWEEN %d AND %d`, lo, lo+w)
		}},
		{name: "Q10", text: func(k int) string {
			lo := k * 97 % n
			return fmt.Sprintf(`SELECT thousandth, COUNT(*) FROM nobench_main WHERE num BETWEEN %d AND %d GROUP BY thousandth`, lo, lo+w)
		}},
		{name: "negative-float", text: func(k int) string {
			return fmt.Sprintf(`SELECT _id, num FROM nobench_main WHERE num >= %d AND num < %.1f`, k*53%n-n/2, float64(k*53%n)+0.5)
		}},
		{name: "type-error", text: func(k int) string {
			return fmt.Sprintf(`SELECT _id FROM nobench_main WHERE num = 'v%d'`, k)
		}},
		{name: "literal-left", text: func(k int) string {
			return fmt.Sprintf(`SELECT _id, str1 FROM nobench_main WHERE %d = num`, k*89%n)
		}},
		{name: "like", text: func(k int) string {
			v := nobench.StrValue(int64(k * 41 % n))
			return fmt.Sprintf(`SELECT _id FROM nobench_main WHERE str1 LIKE '%s%%'`, v[:len(v)-2])
		}},
		{name: "in-list", text: func(k int) string {
			return fmt.Sprintf(`SELECT _id FROM nobench_main WHERE num IN (%d, %d, %d)`, k, k*7%n, k*13%n)
		}},
		{name: "or", text: func(k int) string {
			return fmt.Sprintf(`SELECT _id FROM nobench_main WHERE num = %d OR str1 = '%s'`, k*89%n, nobench.StrValue(int64(k*37%n)))
		}},
		// A literal inside a call's parentheses is never lifted, so the
		// parameter sits beside the COALESCE; in the dirty layout the
		// rewrite nests str1's own COALESCE under it.
		{name: "coalesce", text: func(k int) string {
			return fmt.Sprintf(`SELECT _id, sparse_110 FROM nobench_main WHERE coalesce(sparse_110, str1) = '%s'`, nobench.StrValue(int64(k*37%n)))
		}},
		{name: "Q11", dependent: true, text: func(k int) string {
			lo := k * 97 % n
			return fmt.Sprintf(`SELECT l._id, r._id FROM nobench_main l, nobench_main r WHERE l."nested_obj.str" = r.str1 AND l.num BETWEEN %d AND %d`, lo, lo+w)
		}},
	}
}

// checkShapeCase runs c with values 0..values-1 through DB.Query and holds
// every execution to a fresh plan of its literal text: the same rows in the
// same order (or the same error), and the same page-skip and zone-map
// counts — a skip test that kept the first execution's value would drop
// rows silently. It asserts the builds: one for a value-independent shape,
// one for the shape plus one per text for a value-dependent one.
func checkShapeCase(t *testing.T, db *DB, c shapeCase, values int) {
	t.Helper()
	before := db.rdb.PlanCacheStats()
	for k := 0; k < values; k++ {
		sql := c.text(k)
		want := runCounted(db, db.freshQuery, sql)
		got := runCounted(db, db.Query, sql)
		if got != want {
			t.Fatalf("%s: %s\ncached shape: skipped %d pages (%d by zone map), result\n%.400s\nfresh plan: skipped %d pages (%d by zone map), result\n%.400s",
				c.name, sql, got.pages, got.zoneMap, got.result, want.pages, want.zoneMap, want.result)
		}
	}
	builds := db.rdb.PlanCacheStats().Misses - before.Misses
	want := uint64(1)
	if c.dependent {
		want = uint64(values) + 1
	}
	if builds != want {
		t.Errorf("%s: %d builds for %d values, want %d", c.name, builds, values, want)
	}
}

// TestShapeCacheMatchesFreshPlan is the differential test of the shape
// cache: each statement, run with 24 values through the cache, against an
// uncached plan of each literal text, over frozen, row-form and dirty
// layouts.
func TestShapeCacheMatchesFreshPlan(t *testing.T) {
	const n, values = 3000, 24
	for _, layout := range []string{"frozen", "row", "dirty"} {
		t.Run(layout, func(t *testing.T) {
			db := shapeDB(t, layout, n)
			for _, c := range shapeCases(n) {
				checkShapeCase(t, db, c, values)
			}
		})
	}
	// A GROUP BY whose hash-or-sort choice moves with the value: with the
	// hash table capped below the group bound, the choice reads the range
	// estimate.
	t.Run("group-choice", func(t *testing.T) {
		db := shapeDB(t, "frozen", n)
		db.rdb.PlanConfig().HashAggMaxGroups = 2
		db.rdb.BumpCatalogEpoch()
		c := shapeCases(n)[2]
		c.name, c.dependent = "Q10 with HashAggMaxGroups=2", true
		checkShapeCase(t, db, c, values)
	})
}

// TestShapeCacheConcurrentLiterals runs one shape from eight goroutines,
// each with its own literals, against one cached plan: every execution
// binds its own values, so each answer must be the serial one for its
// text.
func TestShapeCacheConcurrentLiterals(t *testing.T) {
	const n, workers, perWorker = 2000, 8, 25
	db := shapeDB(t, "frozen", n)
	c := shapeCases(n)[1] // Q6
	want := make([]string, workers*perWorker)
	for i := range want {
		want[i] = runCounted(db, db.freshQuery, c.text(i)).result
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				i := w*perWorker + j
				res, err := db.Query(c.text(i))
				if err != nil {
					t.Errorf("worker %d: %s: %v", w, c.text(i), err)
					return
				}
				if got := strings.Join(res.Columns, "|") + "\n" + resultKey(res); got != want[i] {
					t.Errorf("worker %d: %s returned\n%.300s\nwant\n%.300s", w, c.text(i), got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s := db.rdb.PlanCacheStats(); s.Entries != 1 {
		t.Errorf("plan cache holds %d entries, want the one shape", s.Entries)
	}
}

// TestPlanCacheWordMatches: a statement is kept out of the plan cache only
// by a call of matches(), not by the word in a literal or a column name.
func TestPlanCacheWordMatches(t *testing.T) {
	db := webDB(t)
	for _, sql := range []string{
		`SELECT url FROM webrequests WHERE url = 'rematches'`,
		`SELECT url AS matches_total FROM webrequests WHERE hits > 2`,
	} {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
		before := db.rdb.PlanCacheStats()
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
		if hits := db.rdb.PlanCacheStats().Hits - before.Hits; hits != 1 {
			t.Errorf("%s run twice: %d plan-cache hits on the second run, want 1", sql, hits)
		}
	}
}
