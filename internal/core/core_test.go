package core

import (
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
)

func mustDocs(t *testing.T, lines ...string) []*jsonx.Doc {
	t.Helper()
	out := make([]*jsonx.Doc, len(lines))
	for i, l := range lines {
		d, err := jsonx.ParseDocument([]byte(l))
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		out[i] = d
	}
	return out
}

// webDB loads the paper's Figure 2 dataset.
func webDB(t *testing.T) *DB {
	t.Helper()
	db := Open(DefaultConfig())
	if err := db.CreateCollection("webrequests"); err != nil {
		t.Fatal(err)
	}
	docs := mustDocs(t,
		`{"url":"www.sample-site.com","hits":22,"avg_site_visit":128.5,"country":"pl"}`,
		`{"url":"www.sample-site2.com","hits":15,"date":"8/19/13","ip":"123.45.67.89","owner":"John P. Smith"}`,
	)
	if _, err := db.LoadDocuments("webrequests", docs); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLogicalViewBasics(t *testing.T) {
	db := webDB(t)
	// The paper's §3.1.1 example query.
	res, err := db.Query(`SELECT url FROM webrequests WHERE hits > 20`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "www.sample-site.com" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestRewriterVirtualAndNull(t *testing.T) {
	db := webDB(t)
	// §3.2.2's example: virtual projection plus IS NOT NULL filter.
	res, err := db.Query(`SELECT url, owner FROM webrequests WHERE ip IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Text() != "www.sample-site2.com" || res.Rows[0][1].Text() != "John P. Smith" {
		t.Errorf("row = %v", res.Rows[0])
	}
	// Missing keys surface as NULL for the row that lacks them.
	res, err = db.Query(`SELECT owner FROM webrequests WHERE hits = 22`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Errorf("owner for site 1 should be NULL, got %v", res.Rows[0][0])
	}
}

func TestRewrittenSQLShape(t *testing.T) {
	db := webDB(t)
	sql, err := db.RewrittenSQL(`SELECT url, owner FROM webrequests WHERE ip IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "sinew_extract_text") {
		t.Errorf("rewrite should use extraction: %s", sql)
	}
}

func TestUnknownColumnErrors(t *testing.T) {
	db := webDB(t)
	if _, err := db.Query(`SELECT nonexistent_key FROM webrequests`); err == nil {
		t.Error("expected unknown-column error")
	}
}

func TestNestedKeyAccess(t *testing.T) {
	db := Open(DefaultConfig())
	if err := db.CreateCollection("tweets"); err != nil {
		t.Fatal(err)
	}
	docs := mustDocs(t,
		`{"id":1,"text":"hi","user":{"id":100,"lang":"en","geo":{"city":"nyc"}}}`,
		`{"id":2,"text":"yo","user":{"id":200,"lang":"msa"}}`,
	)
	if _, err := db.LoadDocuments("tweets", docs); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT "user.id" FROM tweets WHERE "user.lang" = 'msa'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 200 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Deeply nested path.
	res, err = db.Query(`SELECT "user.geo.city" FROM tweets WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Text() != "nyc" {
		t.Errorf("city = %v", res.Rows[0][0])
	}
}

func TestMaterializationLifecycle(t *testing.T) {
	db := Open(Config{DensityThreshold: 0.6, CardinalityThreshold: 2})
	if err := db.CreateCollection("events"); err != nil {
		t.Fatal(err)
	}
	var docs []*jsonx.Doc
	for i := 0; i < 50; i++ {
		d := jsonx.NewDoc()
		d.Set("kind", jsonx.StringValue("k"+string(rune('a'+i%7))))
		d.Set("value", jsonx.IntValue(int64(i)))
		if i%10 == 0 {
			d.Set("rare", jsonx.StringValue("r"))
		}
		docs = append(docs, d)
	}
	if _, err := db.LoadDocuments("events", docs); err != nil {
		t.Fatal(err)
	}

	decisions, err := db.AnalyzeSchema("events")
	if err != nil {
		t.Fatal(err)
	}
	wantMat := map[string]bool{"kind": true, "value": true, "rare": false}
	for _, d := range decisions {
		if want, ok := wantMat[d.Key]; ok && d.Materialize != want {
			t.Errorf("decision for %s: materialize=%v, want %v (density=%.2f card=%d)",
				d.Key, d.Materialize, want, d.Density, d.Cardinality)
		}
	}

	m := NewMaterializer(db)
	moved, err := m.RunOnce("events")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 100 { // kind + value for 50 docs
		t.Errorf("moved = %d, want 100", moved)
	}
	// Physical column exists now and the data is queryable.
	res, err := db.Query(`SELECT COUNT(*) FROM events WHERE kind = 'ka'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 8 {
		t.Errorf("count(ka) = %v, want 8", res.Rows[0][0])
	}
	// The rewrite now references the physical column, not extraction.
	sql, _ := db.RewrittenSQL(`SELECT kind FROM events`)
	if strings.Contains(sql, "sinew_extract") {
		t.Errorf("materialized column should not use extraction: %s", sql)
	}
	// Reservoir no longer holds the materialized keys.
	tc, _ := db.cat.Lookup("events")
	for _, c := range tc.Columns() {
		if c.Key == "kind" && c.Dirty {
			t.Error("kind should not be dirty after a full pass")
		}
	}
}

func TestDirtyColumnCoalesce(t *testing.T) {
	db := Open(Config{DensityThreshold: 0.5, CardinalityThreshold: 1})
	if err := db.CreateCollection("logs"); err != nil {
		t.Fatal(err)
	}
	firstBatch := mustDocs(t,
		`{"msg":"a","level":1}`, `{"msg":"b","level":2}`, `{"msg":"c","level":3}`,
	)
	if _, err := db.LoadDocuments("logs", firstBatch); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AnalyzeSchema("logs"); err != nil {
		t.Fatal(err)
	}
	m := NewMaterializer(db)
	if _, err := m.RunOnce("logs"); err != nil {
		t.Fatal(err)
	}
	// Load more: values land in the reservoir, columns become dirty again.
	secondBatch := mustDocs(t, `{"msg":"d","level":4}`, `{"msg":"e","level":5}`)
	if _, err := db.LoadDocuments("logs", secondBatch); err != nil {
		t.Fatal(err)
	}
	sql, _ := db.RewrittenSQL(`SELECT msg FROM logs WHERE level = 4`)
	if !strings.Contains(sql, "coalesce") {
		t.Errorf("dirty column should COALESCE: %s", sql)
	}
	// Queries over the mixed state see all rows.
	res, err := db.Query(`SELECT COUNT(*) FROM logs WHERE level >= 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 5 {
		t.Errorf("count = %v, want 5", res.Rows[0][0])
	}
	res, err = db.Query(`SELECT msg FROM logs WHERE level = 4`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "d" {
		t.Errorf("rows = %v", res.Rows)
	}
	// Materialize the backlog; coalesce disappears.
	if _, err := m.RunOnce("logs"); err != nil {
		t.Fatal(err)
	}
	sql, _ = db.RewrittenSQL(`SELECT msg FROM logs`)
	if strings.Contains(sql, "coalesce") {
		t.Errorf("clean column should not COALESCE: %s", sql)
	}
}

func TestDematerialization(t *testing.T) {
	db := Open(Config{DensityThreshold: 0.6, CardinalityThreshold: 2})
	if err := db.CreateCollection("d"); err != nil {
		t.Fatal(err)
	}
	var docs []*jsonx.Doc
	for i := 0; i < 20; i++ {
		d := jsonx.NewDoc()
		d.Set("hot", jsonx.IntValue(int64(i)))
		docs = append(docs, d)
	}
	if _, err := db.LoadDocuments("d", docs); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AnalyzeSchema("d"); err != nil {
		t.Fatal(err)
	}
	m := NewMaterializer(db)
	if _, err := m.RunOnce("d"); err != nil {
		t.Fatal(err)
	}
	// Now dilute density below threshold with docs lacking "hot".
	var more []*jsonx.Doc
	for i := 0; i < 30; i++ {
		d := jsonx.NewDoc()
		d.Set("other", jsonx.IntValue(int64(i)))
		more = append(more, d)
	}
	if _, err := db.LoadDocuments("d", more); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AnalyzeSchema("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunOnce("d"); err != nil {
		t.Fatal(err)
	}
	// Column is gone from the physical schema but data still queryable.
	schema, err := db.rdb.TableSchema("d")
	if err != nil {
		t.Fatal(err)
	}
	if schema.ColumnIndex("hot") >= 0 {
		t.Error("hot should have been dematerialized and dropped")
	}
	res, err := db.Query(`SELECT COUNT(*) FROM d WHERE hot >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 20 {
		t.Errorf("count = %v, want 20", res.Rows[0][0])
	}
}

func TestUpdateVirtualColumn(t *testing.T) {
	db := webDB(t)
	// The paper's Figure 8 update shape: both keys virtual.
	res, err := db.Query(`UPDATE webrequests SET owner = 'DUMMY' WHERE country = 'pl'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	check, err := db.Query(`SELECT owner FROM webrequests WHERE country = 'pl'`)
	if err != nil {
		t.Fatal(err)
	}
	if check.Rows[0][0].Text() != "DUMMY" {
		t.Errorf("owner = %v", check.Rows[0][0])
	}
}

func TestUpdateMaterializedColumn(t *testing.T) {
	db := Open(Config{DensityThreshold: 0.5, CardinalityThreshold: 0})
	if err := db.CreateCollection("c"); err != nil {
		t.Fatal(err)
	}
	docs := mustDocs(t, `{"k":"x","v":1}`, `{"k":"y","v":2}`)
	if _, err := db.LoadDocuments("c", docs); err != nil {
		t.Fatal(err)
	}
	db.AnalyzeSchema("c")
	NewMaterializer(db).RunOnce("c")
	if _, err := db.Query(`UPDATE c SET k = 'z' WHERE v = 1`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT k FROM c WHERE v = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Text() != "z" {
		t.Errorf("k = %v", res.Rows[0][0])
	}
}

func TestMultiTypedKey(t *testing.T) {
	db := Open(DefaultConfig())
	if err := db.CreateCollection("m"); err != nil {
		t.Fatal(err)
	}
	docs := mustDocs(t,
		`{"dyn1": 10, "id":1}`,
		`{"dyn1": "ten", "id":2}`,
		`{"dyn1": true, "id":3}`,
		`{"dyn1": 25, "id":4}`,
	)
	if _, err := db.LoadDocuments("m", docs); err != nil {
		t.Fatal(err)
	}
	// Numeric context selects only integer values; strings/bools are NULL,
	// never an error (unlike the Postgres JSON baseline).
	res, err := db.Query(`SELECT id FROM m WHERE dyn1 BETWEEN 5 AND 30`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Text context selects the string value.
	res, err = db.Query(`SELECT id FROM m WHERE dyn1 = 'ten'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Unconstrained projection downcasts to text.
	res, err = db.Query(`SELECT dyn1 FROM m WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Text() != "true" {
		t.Errorf("dyn1 = %v", res.Rows[0][0])
	}
}

func TestArrayContainment(t *testing.T) {
	db := Open(DefaultConfig())
	if err := db.CreateCollection("a"); err != nil {
		t.Fatal(err)
	}
	docs := mustDocs(t,
		`{"id":1,"tags":["x","y"]}`,
		`{"id":2,"tags":["z"]}`,
	)
	if _, err := db.LoadDocuments("a", docs); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT id FROM a WHERE 'y' IN tags`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSelectStarLogicalView(t *testing.T) {
	db := webDB(t)
	res, err := db.Query(`SELECT * FROM webrequests WHERE hits = 22`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// _id + document (no materialized columns yet).
	if res.Columns[0] != "_id" || res.Columns[len(res.Columns)-1] != "document" {
		t.Errorf("columns = %v", res.Columns)
	}
	docCol := res.Rows[0][len(res.Columns)-1]
	if !strings.Contains(docCol.Text(), `"url":"www.sample-site.com"`) {
		t.Errorf("document = %v", docCol)
	}
}

func TestJoinAcrossCollections(t *testing.T) {
	db := Open(DefaultConfig())
	db.CreateCollection("tweets")
	db.CreateCollection("deletes")
	tw := mustDocs(t,
		`{"id_str":"t1","user":{"lang":"msa","id":1}}`,
		`{"id_str":"t2","user":{"lang":"en","id":2}}`,
	)
	dl := mustDocs(t,
		`{"delete":{"status":{"id_str":"t1","user_id":1}}}`,
	)
	if _, err := db.LoadDocuments("tweets", tw); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocuments("deletes", dl); err != nil {
		t.Fatal(err)
	}
	// Table 1 Q3's shape (two-table version).
	res, err := db.Query(`SELECT t1."user.id" FROM tweets t1, deletes d1 ` +
		`WHERE t1.id_str = d1."delete.status.id_str" AND t1."user.lang" = 'msa'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestTextSearch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableTextIndex = true
	db := Open(cfg)
	db.CreateCollection("posts")
	docs := mustDocs(t,
		`{"id":1,"body":"the quick brown fox"}`,
		`{"id":2,"body":"lazy dogs sleep"}`,
		`{"id":3,"title":"quick start guide"}`,
	)
	if _, err := db.LoadDocuments("posts", docs); err != nil {
		t.Fatal(err)
	}
	// §4.3's sample query shape.
	res, err := db.Query(`SELECT id FROM posts WHERE matches('*', 'quick')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Field-scoped search.
	res, err = db.Query(`SELECT id FROM posts WHERE matches('body', 'quick')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestLoaderSetsDirtyOnNewData(t *testing.T) {
	db := Open(Config{DensityThreshold: 0.5, CardinalityThreshold: 0})
	db.CreateCollection("x")
	db.LoadDocuments("x", mustDocs(t, `{"a":1}`, `{"a":2}`))
	db.AnalyzeSchema("x")
	NewMaterializer(db).RunOnce("x")
	tc, _ := db.cat.Lookup("x")
	if len(tc.DirtyColumns()) != 0 {
		t.Fatal("no dirty columns expected after pass")
	}
	db.LoadDocuments("x", mustDocs(t, `{"a":3}`))
	if len(tc.DirtyColumns()) != 1 {
		t.Error("loading data for a materialized column must set its dirty bit")
	}
}

func TestMaterializerPauseResume(t *testing.T) {
	db := Open(Config{DensityThreshold: 0.5, CardinalityThreshold: 0})
	db.CreateCollection("p")
	var docs []*jsonx.Doc
	for i := 0; i < 200; i++ {
		d := jsonx.NewDoc()
		d.Set("v", jsonx.IntValue(int64(i)))
		docs = append(docs, d)
	}
	db.LoadDocuments("p", docs)
	db.AnalyzeSchema("p")
	m := NewMaterializer(db)
	m.Pause()
	moved, err := m.RunOnce("p")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("paused materializer moved %d values", moved)
	}
	// Queries still work against the fully-virtual dirty state.
	res, err := db.Query(`SELECT COUNT(*) FROM p WHERE v >= 100`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 100 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
	m.Resume()
	moved, err = m.RunOnce("p")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 200 {
		t.Errorf("resumed materializer moved %d, want 200", moved)
	}
}
