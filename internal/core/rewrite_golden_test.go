package core

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/rewrite_golden.txt from the current rewriter")

const rewriteGoldenFile = "testdata/rewrite_golden.txt"

// goldenMaterializedKeys are §6.1's NoBench keys (internal/bench pins the
// same list; importing it here would cycle).
var goldenMaterializedKeys = []string{"str1", "num", "nested_arr", "nested_obj", "thousandth"}

// goldenMixedDocs is a small collection covering what NoBench does not:
// a multi-typed key, one key per scalar type, a key colliding with the
// reservoir column's name, and dotted keys under two levels of objects.
var goldenMixedDocs = []string{
	`{"dyn": 1, "s": "x", "f": 1.5, "b": true, "arr": ["x", "y"], "data": "payload", "obj": {"inner": 3, "deep": {"leaf": "l"}}}`,
	`{"dyn": "one", "s": "y", "f": 2.5, "obj": {"inner": 4, "deep": {"leaf": "m"}}}`,
	`{"dyn": 2, "s": "x", "b": false}`,
}

var goldenMixedKeys = []string{"dyn", "s", "data", "obj", "obj.deep"}

// goldenStatements is the corpus; %d takes the state's index so every
// state's UPDATE mints its own brand-new key.
func goldenStatements(state int) []string {
	par := nobench.NewParams(300)
	q := par.Queries()
	var out []string
	for _, id := range nobench.QueryOrder() {
		out = append(out, q[id])
	}
	out = append(out,
		// rewriter_test.go's cases.
		`SELECT s FROM m`, `SELECT f FROM m`, `SELECT b FROM m`, `SELECT arr FROM m`,
		`SELECT 1 FROM m WHERE dyn = 5`,
		`SELECT 1 FROM m WHERE dyn = 'one'`,
		`SELECT 1 FROM m WHERE dyn BETWEEN 1 AND 2`,
		`SELECT dyn FROM m`,
		`SELECT 1 FROM m WHERE f > 1`,
		`SELECT COUNT(*) FROM m WHERE s = TRUE`,
		fmt.Sprintf(`UPDATE m SET s = 'z', brand_new_%d = 'v' WHERE f > 1`, state),
		fmt.Sprintf(`UPDATE m SET fresh_%d = 7, dyn = 3 WHERE fresh_%d IS NULL`, state, state),
		`SELECT v FROM plain WHERE v > 1`,
		`SELECT d.s FROM m d, plain p WHERE d.dyn = p.v`,
		// Stars, qualifiers, aliases, self-joins.
		`SELECT * FROM m`,
		`SELECT m.* FROM m`,
		`SELECT x.* FROM m x`,
		`SELECT x.*, p.* FROM m x, plain p`,
		`SELECT * FROM m a, m b WHERE a.s = b.s`,
		`SELECT a.s AS left_s, b.f FROM m a, m b WHERE a.dyn = b.dyn`,
		`SELECT l.str1, r.s FROM nobench_main l, m r WHERE l.str1 = r.s`,
		`SELECT m.s, m._id, m.data FROM m`,
		`SELECT s AS renamed, f ff FROM m`,
		// Dotted keys under (possibly materialized) parent objects.
		`SELECT "obj.inner", "obj.deep.leaf" FROM m WHERE "obj.inner" = 3`,
		`SELECT obj, "obj.deep" FROM m`,
		`SELECT "nested_obj.str" FROM nobench_main WHERE "nested_obj.num" > 5`,
		// Every expression form the rewriter walks.
		`SELECT s, COUNT(*) FROM m GROUP BY s HAVING COUNT(*) > 1 ORDER BY s DESC LIMIT 3`,
		`SELECT DISTINCT dyn FROM m ORDER BY dyn`,
		`SELECT 1 FROM m WHERE dyn IN (1, 2)`,
		`SELECT 1 FROM m WHERE s NOT IN ('x', 'y') AND s LIKE 'x%'`,
		`SELECT 1 FROM m WHERE f IS NOT NULL AND NOT b`,
		`SELECT CAST(dyn AS integer) FROM m WHERE CAST(s AS text) = 'x'`,
		`SELECT -f, f + 1, dyn * 2 FROM m WHERE -dyn < 0 AND s || 'a' = 'xa'`,
		`SELECT 1 FROM m WHERE 'x' = ANY(arr)`,
		`SELECT 1 FROM m WHERE 'x' IN arr`,
		`SELECT 1 FROM m WHERE f BETWEEN dyn AND 9.5`,
		`SELECT upper(s), length(data) FROM m`,
		`DELETE FROM m WHERE dyn = 5`,
		`EXPLAIN SELECT s FROM m WHERE dyn = 1`,
		// Rewrite errors are part of the contract too.
		`SELECT ghost FROM m`,
		`SELECT s FROM m a, m b`,
		`SELECT z.* FROM m`,
		`SELECT m.ghost FROM m`,
	)
	return out
}

// TestRewriteGoldenCorpus pins the rewriter's output byte for byte across
// the storage states a column moves through (§3.1.4): the corpus was
// captured before the rewriter moved onto catalog views, so any drift is a
// behaviour change, not a refactor.
func TestRewriteGoldenCorpus(t *testing.T) {
	db := Open(DefaultConfig())
	for _, c := range []string{"nobench_main", "m"} {
		if err := db.CreateCollection(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.RDBMS().Exec(`CREATE TABLE plain (v integer)`); err != nil {
		t.Fatal(err)
	}
	nb := nobench.Generate(300, 7)
	load := func() {
		t.Helper()
		if _, err := db.LoadDocuments("nobench_main", nb); err != nil {
			t.Fatal(err)
		}
		if _, err := db.LoadDocuments("m", mustDocs(t, goldenMixedDocs...)); err != nil {
			t.Fatal(err)
		}
	}
	target := func(coll string, keys []string, want bool) {
		t.Helper()
		for _, k := range keys {
			if err := db.SetMaterialized(coll, k, want); err != nil {
				t.Fatal(err)
			}
		}
	}
	materialize := func() {
		t.Helper()
		for _, c := range []string{"nobench_main", "m"} {
			if _, err := NewMaterializer(db).RunOnce(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	states := []struct {
		name  string
		enter func()
	}{
		{"virtual", load},
		{"pending (target set, no physical column yet)", func() {
			target("nobench_main", goldenMaterializedKeys, true)
			target("m", goldenMixedKeys, true)
		}},
		{"clean", materialize},
		{"dirty (new documents over materialized keys)", load},
		{"demoting (physical column, target virtual)", func() {
			materialize()
			target("nobench_main", []string{"str1", "nested_obj"}, false)
			target("m", []string{"dyn", "obj"}, false)
		}},
		{"demoted", materialize},
	}

	var b strings.Builder
	for i, st := range states {
		st.enter()
		fmt.Fprintf(&b, "## state %d: %s\n", i, st.name)
		for _, sql := range goldenStatements(i) {
			if _, err := sqlparse.Parse(sql); err != nil {
				t.Fatalf("corpus statement does not parse: %s: %v", sql, err)
			}
			out, err := db.RewrittenSQL(sql)
			if err != nil {
				out = "ERROR: " + err.Error()
			}
			fmt.Fprintf(&b, "-- %s\n%s\n", sql, out)
		}
	}
	got := b.String()

	checkGolden(t, rewriteGoldenFile, got, *updateGolden)
}
