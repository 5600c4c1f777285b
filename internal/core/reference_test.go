package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
)

// refDB loads the fixture of TestReferencePlanTakesNoShortcut: twelve full
// pages and a tail of documents, id, num and str1 materialized, str2, grp
// and zv left virtual. num and zv rise with the document, so the pages'
// summaries (num) and the frozen segments' zone maps (zv) cover disjoint
// ranges; ANALYZE freezes the full pages. A small second collection is
// the join partner.
func refDB(t *testing.T) *DB {
	t.Helper()
	db := Open(DefaultConfig())
	for _, c := range []string{"ref", "side"} {
		if err := db.CreateCollection(c); err != nil {
			t.Fatal(err)
		}
	}
	lines := make([]string, 12*storage.PageCapacity+40)
	for i := range lines {
		lines[i] = fmt.Sprintf(`{"id":%d,"num":%d,"str1":"a%d","str2":"b%d","grp":%d,"zv":%d}`,
			i, i, i%50, i%13, i%7, i)
	}
	if _, err := db.LoadDocuments("ref", mustDocs(t, lines...)); err != nil {
		t.Fatal(err)
	}
	side := make([]string, 7)
	for g := range side {
		side[g] = fmt.Sprintf(`{"grp":%d,"name":"g%d"}`, g, g)
	}
	if _, err := db.LoadDocuments("side", mustDocs(t, side...)); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"id", "num", "str1"} {
		if err := db.SetMaterialized("ref", key, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewMaterializer(db).RunOnce("ref"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"ref", "side"} {
		if err := db.RDBMS().Analyze(c); err != nil {
			t.Fatal(err)
		}
	}
	heap, _, err := db.RDBMS().Table("ref")
	if err != nil {
		t.Fatal(err)
	}
	if heap.NumFrozenPages() != 12 {
		t.Fatalf("ANALYZE froze %d pages, want 12", heap.NumFrozenPages())
	}
	return db
}

// TestReferencePlanTakesNoShortcut pins what SET enable_batch = off plans:
// the reference the differential tests and the benchmark's oracle compare
// against. Every statement below takes at least one shortcut in the
// default plan — a page skip on a filter or a Top-N bound, a zone-map
// skip, a Top-N, a fused extraction, column pruning —
// and under the reference none of them: EXPLAIN shows no Top-N, Page Skip
// or Multi Extract, the skip and short-circuit
// counters do not move, and the answer is the default plan's.
func TestReferencePlanTakesNoShortcut(t *testing.T) {
	db := refDB(t)
	defer mustSet(t, db, `SET enable_batch = on`)

	shortcuts := []string{"Top-N", "Page Skip", "Multi Extract"}
	counters := []string{"pages_skipped", "segments_skipped_zonemap", "topn_short_circuits"}
	queries := []string{
		`SELECT id FROM ref WHERE num > 1500`,                                        // page skip
		`SELECT id, str2 FROM ref WHERE zv > 1400`,                                   // zone-map skip
		`SELECT id, num FROM ref ORDER BY num LIMIT 5`,                               // Top-N, its page bound
		`SELECT str2, grp, zv FROM ref`,                                              // fused extraction
		`SELECT str1, num FROM ref`,                                                  // Q1: column pruning
		`SELECT grp, COUNT(*), SUM(num) FROM ref WHERE num >= 100 GROUP BY grp`,      // page skip under an aggregate
		`SELECT r.id, s.name FROM ref r, side s WHERE r.grp = s.grp AND r.num < 300`, // page skip under a join
	}

	// run executes q under settings and reports its EXPLAIN text, its
	// order-insensitive answer and how far each counter moved.
	run := func(q string, settings ...string) (string, string, []int64) {
		t.Helper()
		mustSet(t, db, settings...)
		text, err := db.Explain(q)
		if err != nil {
			t.Fatalf("EXPLAIN %s: %v", q, err)
		}
		before := make([]int64, len(counters))
		for i, c := range counters {
			before[i] = statCounter(t, db, c)
		}
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		moved := make([]int64, len(counters))
		for i, c := range counters {
			moved[i] = statCounter(t, db, c) - before[i]
		}
		return text, sortedResultKey(res), moved
	}

	seen := map[string]bool{}
	for _, q := range queries {
		text, want, moved := run(q, `SET enable_batch = on`)
		for _, s := range shortcuts {
			seen[s] = seen[s] || strings.Contains(text, s)
		}
		for i, c := range counters {
			seen[c] = seen[c] || moved[i] > 0
		}

		text, got, moved := run(q, `SET enable_batch = off`)
		for _, s := range shortcuts {
			if strings.Contains(text, s) {
				t.Errorf("%s: the reference plan shows %q:\n%s", q, s, text)
			}
		}
		for i, c := range counters {
			if moved[i] != 0 {
				t.Errorf("%s: the reference plan moved %s by %d", q, c, moved[i])
			}
		}
		if got != want {
			t.Errorf("%s: the reference plan's answer differs\nreference:\n%s\ndefault:\n%s", q, got, want)
		}
	}
	// The fixture must give the default plan every shortcut to take.
	for _, s := range append(shortcuts, counters...) {
		if !seen[s] {
			t.Errorf("no statement's default plan shows %s; the fixture no longer exercises it", s)
		}
	}
}
