package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/sinewdata/sinew/internal/jsonx"
)

// rewriteOf is a helper asserting substrings of the §3.2.2 rewrite.
func rewriteOf(t *testing.T, db *DB, sql string, want ...string) string {
	t.Helper()
	out, err := db.RewrittenSQL(sql)
	if err != nil {
		t.Fatalf("rewrite %q: %v", sql, err)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("rewrite of %q missing %q:\n%s", sql, w, out)
		}
	}
	return out
}

func TestRewriteTypedExtractionByContext(t *testing.T) {
	db := Open(DefaultConfig())
	db.CreateCollection("m")
	db.LoadDocuments("m", mustDocs(t,
		`{"dyn": 1, "s": "x", "f": 1.5, "b": true, "arr": [1]}`,
		`{"dyn": "one"}`,
	))
	// Single-typed keys extract with their cataloged type regardless of
	// hints.
	rewriteOf(t, db, `SELECT s FROM m`, "sinew_extract_text")
	rewriteOf(t, db, `SELECT f FROM m`, "sinew_extract_real")
	rewriteOf(t, db, `SELECT b FROM m`, "sinew_extract_bool")
	rewriteOf(t, db, `SELECT arr FROM m`, "sinew_extract_array")
	// Multi-typed key: context picks the attribute.
	rewriteOf(t, db, `SELECT 1 FROM m WHERE dyn = 5`, "sinew_extract_int")
	rewriteOf(t, db, `SELECT 1 FROM m WHERE dyn = 'one'`, "sinew_extract_text")
	rewriteOf(t, db, `SELECT 1 FROM m WHERE dyn BETWEEN 1 AND 2`, "sinew_extract_int")
	// Unconstrained multi-typed: text downcast.
	rewriteOf(t, db, `SELECT dyn FROM m`, "sinew_extract_any")
	// Numeric hint with no exact match falls to the numeric sibling.
	rewriteOf(t, db, `SELECT 1 FROM m WHERE f > 1`, "sinew_extract_real")
}

func TestRewriteHintedTypeNeverObserved(t *testing.T) {
	db := Open(DefaultConfig())
	db.CreateCollection("m")
	db.LoadDocuments("m", mustDocs(t, `{"s": "text only"}`))
	// Comparing a text-only key against a bool yields a bool extraction
	// (all NULLs), not an error.
	res, err := db.Query(`SELECT COUNT(*) FROM m WHERE s = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 0 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestRewriteUpdateComposesReservoirWrites(t *testing.T) {
	db := Open(Config{DensityThreshold: 0.5, CardinalityThreshold: 0})
	db.CreateCollection("u")
	db.LoadDocuments("u", mustDocs(t, `{"a":1,"b":"x","c":2.5}`))
	db.AnalyzeSchema("u")
	NewMaterializer(db).RunOnce("u")
	// Make "a" dirty again with a new load.
	db.LoadDocuments("u", mustDocs(t, `{"a":2}`))

	stmt, err := db.RewrittenSQL(`UPDATE u SET a = 9, brand_new = 'v' WHERE c > 1`)
	if err != nil {
		t.Fatal(err)
	}
	// a is dirty physical: column write + reservoir purge; brand_new goes
	// through sinew_set_key; both reservoir ops compose into one SET.
	for _, w := range []string{"sinew_remove_key", "sinew_set_key", "data = "} {
		if !strings.Contains(stmt, w) {
			t.Errorf("update rewrite missing %q:\n%s", w, stmt)
		}
	}
	if strings.Count(stmt, "data = ") != 1 {
		t.Errorf("reservoir must be SET exactly once:\n%s", stmt)
	}
	// And it actually executes correctly.
	if _, err := db.Query(`UPDATE u SET a = 9, brand_new = 'v' WHERE c > 1`); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Query(`SELECT a, brand_new FROM u WHERE c > 1`)
	if res.Rows[0][0].I != 9 || res.Rows[0][1].Text() != "v" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestRewriteMatchesReleasesHandles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableTextIndex = true
	db := Open(cfg)
	db.CreateCollection("p")
	db.LoadDocuments("p", mustDocs(t, `{"id":1,"txt":"hello world"}`))
	for i := 0; i < 50; i++ {
		if _, err := db.Query(`SELECT id FROM p WHERE matches('*', 'hello')`); err != nil {
			t.Fatal(err)
		}
	}
	db.matchMu.Lock()
	leaked := len(db.matchSets)
	db.matchMu.Unlock()
	if leaked != 0 {
		t.Errorf("%d match sets leaked", leaked)
	}
}

func TestRewriteErrorsAlsoReleaseHandles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableTextIndex = true
	db := Open(cfg)
	db.CreateCollection("p")
	db.LoadDocuments("p", mustDocs(t, `{"id":1,"txt":"hello"}`))
	// A rewrite that registers a match set and then fails on an unknown
	// column must still release the set.
	if _, err := db.Query(`SELECT id FROM p WHERE matches('*', 'hello') AND ghost_column = 1`); err == nil {
		t.Fatal("expected unknown-column error")
	}
	db.matchMu.Lock()
	leaked := len(db.matchSets)
	db.matchMu.Unlock()
	if leaked != 0 {
		t.Errorf("%d match sets leaked after error", leaked)
	}
}

// TestMatchSetRejectsNonIntegerArguments: Datum.I holds a length or float
// bits under a non-Int tag, so the UDF must not read it as a handle or id.
func TestMatchSetRejectsNonIntegerArguments(t *testing.T) {
	db := Open(DefaultConfig())
	db.CreateCollection("p")
	db.LoadDocuments("p", mustDocs(t, `{"id":1,"txt":"hello"}`))
	for _, q := range []string{
		`SELECT id FROM p WHERE sinew_match_set(_id, 'abc')`,
		`SELECT id FROM p WHERE sinew_match_set(1.5, 1)`,
	} {
		if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "want (integer, integer)") {
			t.Errorf("%s: err = %v, want a type error", q, err)
		}
	}
}

func TestRewritePlainTablePassThrough(t *testing.T) {
	db := Open(DefaultConfig())
	// A plain SQL table created directly in the RDBMS is untouched by the
	// rewriter (the paper's "interacting transparently with structured
	// data already stored in the RDBMS").
	if _, err := db.RDBMS().Exec(`CREATE TABLE plain (v integer)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RDBMS().Exec(`INSERT INTO plain VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT v FROM plain WHERE v > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// And joins between Sinew collections and plain tables work.
	db.CreateCollection("docs")
	db.LoadDocuments("docs", mustDocs(t, `{"ref":2,"name":"two"}`))
	res, err = db.Query(`SELECT d.name FROM docs d, plain p WHERE d.ref = p.v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "two" {
		t.Fatalf("mixed join rows = %v", res.Rows)
	}
}

func TestBackgroundMaterializerLoop(t *testing.T) {
	db := Open(Config{DensityThreshold: 0.5, CardinalityThreshold: 0})
	db.CreateCollection("bg")
	var docs []*jsonx.Doc
	for i := 0; i < 100; i++ {
		d := jsonx.NewDoc()
		d.Set("v", jsonx.IntValue(int64(i)))
		docs = append(docs, d)
	}
	db.LoadDocuments("bg", docs)
	db.AnalyzeSchema("bg")

	m := NewMaterializer(db)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go m.Run(ctx, time.Millisecond)

	// Wait for the background pass to complete.
	deadline := time.After(5 * time.Second)
	for m.Passes.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("materializer never completed a pass")
		case <-time.After(time.Millisecond):
		}
	}
	sql, _ := db.RewrittenSQL(`SELECT v FROM bg`)
	if strings.Contains(sql, "sinew_extract") {
		t.Errorf("column should be physical after background pass: %s", sql)
	}
}
