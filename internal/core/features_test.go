package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
)

func TestPositionalArrayAccess(t *testing.T) {
	db := Open(DefaultConfig())
	if err := db.CreateCollection("a", CollectionOptions{
		ArrayModes:      map[string]ArrayMode{"tags": ArrayPositional},
		PositionalLimit: 3,
	}); err != nil {
		t.Fatal(err)
	}
	docs := mustDocs(t,
		`{"id":1,"tags":["x","y","z","w"]}`,
		`{"id":2,"tags":["y"]}`,
	)
	if _, err := db.LoadDocuments("a", docs); err != nil {
		t.Fatal(err)
	}
	// Positional attributes are cataloged and queryable as virtual columns.
	res, err := db.Query(`SELECT id FROM a WHERE "tags.0" = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Positions beyond the record's array length are NULL.
	res, err = db.Query(`SELECT "tags.2" FROM a WHERE id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Errorf("tags.2 for short array = %v", res.Rows[0][0])
	}
	// And positional columns can be materialized like any other.
	if err := db.SetMaterialized("a", "tags.0", true); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaterializer(db).RunOnce("a"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Query(`SELECT id FROM a WHERE "tags.0" = 'y'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("after materialization rows = %v", res.Rows)
	}
}

func TestSplitNestedSubCollection(t *testing.T) {
	db := Open(DefaultConfig())
	if err := db.CreateCollection("orders", CollectionOptions{
		SplitNested: []string{"customer"},
	}); err != nil {
		t.Fatal(err)
	}
	docs := mustDocs(t,
		`{"total":10.5,"customer":{"name":"ada","tier":"gold"}}`,
		`{"total":3.0,"customer":{"name":"alan","tier":"free"}}`,
		`{"total":7.0}`,
	)
	if _, err := db.LoadDocuments("orders", docs); err != nil {
		t.Fatal(err)
	}
	// The parent no longer carries the nested object...
	if _, err := db.Query(`SELECT customer FROM orders`); err == nil {
		t.Error("split key should be gone from the parent's logical schema")
	}
	// ...and the sub-collection joins back at query time (§4.2).
	res, err := db.Query(`SELECT o.total FROM orders o, orders__customer c ` +
		`WHERE o._id = c.parent_id AND c.tier = 'gold'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 10.5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// The sub-collection is a full Sinew collection: analyzable.
	if _, err := db.AnalyzeSchema("orders__customer"); err != nil {
		t.Fatal(err)
	}
}

func TestNestedParentMaterializationRouting(t *testing.T) {
	// Materialize the parent object; subkey extraction must route into the
	// parent's physical column (the reservoir no longer holds it).
	db := Open(DefaultConfig())
	db.CreateCollection("t")
	docs := mustDocs(t,
		`{"id":1,"user":{"lang":"en","score":5}}`,
		`{"id":2,"user":{"lang":"pl","score":9}}`,
	)
	if _, err := db.LoadDocuments("t", docs); err != nil {
		t.Fatal(err)
	}
	if err := db.SetMaterialized("t", "user", true); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaterializer(db).RunOnce("t"); err != nil {
		t.Fatal(err)
	}
	sql, _ := db.RewrittenSQL(`SELECT "user.lang" FROM t`)
	if !strings.Contains(sql, `t.user, 'lang'`) && !strings.Contains(sql, `"user", 'lang'`) {
		t.Errorf("extraction should target the parent column: %s", sql)
	}
	res, err := db.Query(`SELECT id FROM t WHERE "user.lang" = 'pl'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// The whole object remains referenceable too.
	res, err = db.Query(`SELECT COUNT(*) FROM t WHERE user IS NOT NULL`)
	if err != nil || res.Rows[0][0].I != 2 {
		t.Fatalf("parent object count = %v err=%v", res.Rows, err)
	}
}

func TestSubkeyAndParentBothMaterialized(t *testing.T) {
	db := Open(DefaultConfig())
	db.CreateCollection("t")
	docs := mustDocs(t,
		`{"id":1,"user":{"lang":"en","score":5}}`,
		`{"id":2,"user":{"lang":"pl","score":9}}`,
	)
	db.LoadDocuments("t", docs)
	// Materialize both the subkey and the parent in one pass: the subkey
	// is copied (deep-first) and the parent keeps its full content.
	for _, k := range []string{"user.lang", "user"} {
		if err := db.SetMaterialized("t", k, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewMaterializer(db).RunOnce("t"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT id FROM t WHERE "user.lang" = 'en'`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("subkey query: %v %v", res.Rows, err)
	}
	// The parent object still contains the subkey (copy, not move).
	res, err = db.Query(`SELECT "user.score" FROM t WHERE id = 1`)
	if err != nil || res.Rows[0][0].I != 5 {
		t.Fatalf("score via parent: %v %v", res.Rows, err)
	}
}

func TestDeleteThroughLogicalView(t *testing.T) {
	db := webDB(t)
	res, err := db.Query(`DELETE FROM webrequests WHERE owner IS NOT NULL`)
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("delete: %v %v", res, err)
	}
	left, _ := db.Query(`SELECT COUNT(*) FROM webrequests`)
	if left.Rows[0][0].I != 1 {
		t.Errorf("remaining = %v", left.Rows[0][0])
	}
}

func TestUpdateCreatesNewAttribute(t *testing.T) {
	db := webDB(t)
	if _, err := db.Query(`UPDATE webrequests SET brand_new_key = 42 WHERE hits = 22`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT brand_new_key FROM webrequests WHERE hits = 22`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 42 {
		t.Errorf("brand_new_key = %v", res.Rows[0][0])
	}
}

func TestUpdateSetNullRemovesKey(t *testing.T) {
	db := webDB(t)
	if _, err := db.Query(`UPDATE webrequests SET country = NULL WHERE hits = 22`); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Query(`SELECT COUNT(*) FROM webrequests WHERE country IS NOT NULL`)
	if res.Rows[0][0].I != 0 {
		t.Errorf("country still present: %v", res.Rows[0][0])
	}
}

func TestAggregatesOverVirtualColumns(t *testing.T) {
	db := webDB(t)
	res, err := db.Query(`SELECT SUM(hits), AVG(hits), MIN(url), MAX(url) FROM webrequests`)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].I != 37 || r[1].Float() != 18.5 {
		t.Errorf("sum/avg = %v %v", r[0], r[1])
	}
	if r[2].Text() != "www.sample-site.com" || r[3].Text() != "www.sample-site2.com" {
		t.Errorf("min/max = %v %v", r[2], r[3])
	}
}

func TestGroupByVirtualColumn(t *testing.T) {
	db := Open(DefaultConfig())
	db.CreateCollection("e")
	var docs []*jsonx.Doc
	for i := 0; i < 30; i++ {
		d := jsonx.NewDoc()
		d.Set("k", jsonx.StringValue(string(rune('a'+i%3))))
		d.Set("v", jsonx.IntValue(int64(i)))
		docs = append(docs, d)
	}
	db.LoadDocuments("e", docs)
	res, err := db.Query(`SELECT k, COUNT(*), SUM(v) FROM e GROUP BY k ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][1].I != 10 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestConcurrentQueriesDuringMaterialization(t *testing.T) {
	db := Open(Config{DensityThreshold: 0.5, CardinalityThreshold: 0})
	db.CreateCollection("c")
	var docs []*jsonx.Doc
	for i := 0; i < 2000; i++ {
		d := jsonx.NewDoc()
		d.Set("v", jsonx.IntValue(int64(i)))
		docs = append(docs, d)
	}
	db.LoadDocuments("c", docs)
	db.AnalyzeSchema("c")
	m := NewMaterializer(db)

	// Half of the readers repeat one text (plan-cache hits once it is in),
	// half send a fresh literal every time: each of those statements is
	// parsed, rewritten and planned, some of them while v is dirty but has
	// no column yet, so their rewrite reads the reservoir alone. The pass
	// moves values out of the reservoir page by page; no reader may see the
	// count dip.
	var passDone atomic.Bool
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 20 || !passDone.Load(); i++ {
				text := `SELECT COUNT(*) FROM c WHERE v >= 0`
				if g%2 == 1 {
					text = fmt.Sprintf(`SELECT COUNT(*) FROM c WHERE v >= -%d`, 1+g+8*i)
				}
				res, err := db.Query(text)
				if err != nil {
					done <- err
					return
				}
				if res.Rows[0][0].I != 2000 {
					done <- errCount(res.Rows[0][0].I)
					return
				}
			}
			done <- nil
		}(g)
	}
	_, err := m.RunOnce("c")
	passDone.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errCount int64

func (e errCount) Error() string {
	return fmt.Sprintf("count %d during materialization", int64(e))
}

func TestLoaderMaterializerLatchExclusion(t *testing.T) {
	db := Open(Config{DensityThreshold: 0.5, CardinalityThreshold: 0})
	db.CreateCollection("l")
	db.LoadDocuments("l", mustDocs(t, `{"v":1}`))
	db.AnalyzeSchema("l")
	tc, _ := db.cat.Lookup("l")
	tc.Latch() // simulate an in-flight load
	m := NewMaterializer(db)
	moved, err := m.RunOnce("l")
	if err != nil || moved != 0 {
		t.Fatalf("materializer should skip while latched: moved=%d err=%v", moved, err)
	}
	tc.Unlatch()
	moved, err = m.RunOnce("l")
	if err != nil || moved != 1 {
		t.Fatalf("after unlatch: moved=%d err=%v", moved, err)
	}
}

func TestCatalogCountsAndCardinality(t *testing.T) {
	db := Open(DefaultConfig())
	db.CreateCollection("s")
	var docs []*jsonx.Doc
	for i := 0; i < 100; i++ {
		d := jsonx.NewDoc()
		d.Set("always", jsonx.IntValue(int64(i)))
		if i%4 == 0 {
			d.Set("quarter", jsonx.StringValue("same"))
		}
		docs = append(docs, d)
	}
	db.LoadDocuments("s", docs)
	tc, _ := db.cat.Lookup("s")
	always := tc.ColumnsByKey("always")[0]
	if always.Count != 100 || always.Cardinality() != 100 {
		t.Errorf("always = count %d card %d", always.Count, always.Cardinality())
	}
	quarter := tc.ColumnsByKey("quarter")[0]
	if quarter.Count != 25 || quarter.Cardinality() != 1 {
		t.Errorf("quarter = count %d card %d", quarter.Count, quarter.Cardinality())
	}
}

func TestLoadJSONLinesErrors(t *testing.T) {
	db := Open(DefaultConfig())
	db.CreateCollection("x")
	if _, err := db.LoadJSONLines("x", strings.NewReader("{\"a\":1}\n{bad json\n")); err == nil {
		t.Error("invalid line should fail the load")
	}
	if _, err := db.LoadJSONLines("nope", strings.NewReader(`{"a":1}`)); err == nil {
		t.Error("unknown collection should error")
	}
}

func TestCollectionNameValidation(t *testing.T) {
	db := Open(DefaultConfig())
	for _, bad := range []string{"", "has space", "has-dash", "Данные"} {
		if err := db.CreateCollection(bad); err == nil {
			t.Errorf("name %q should be rejected", bad)
		}
	}
	if err := db.CreateCollection("ok_name_2"); err != nil {
		t.Errorf("valid name rejected: %v", err)
	}
	if err := db.CreateCollection("ok_name_2"); err == nil {
		t.Error("duplicate collection should error")
	}
}

func TestSearchAndReindex(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableTextIndex = true
	db := Open(cfg)
	db.CreateCollection("notes")
	db.LoadDocuments("notes", mustDocs(t,
		`{"id":1,"body":"the original text"}`,
		`{"id":2,"body":"something else entirely"}`,
	))
	ids, err := db.Search("notes", "*", "original")
	if err != nil || len(ids) != 1 {
		t.Fatalf("search = %v %v", ids, err)
	}
	// An UPDATE leaves the index stale until reindexing.
	if _, err := db.Query(`UPDATE notes SET body = 'replacement words' WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := db.ReindexCollection("notes"); err != nil {
		t.Fatal(err)
	}
	if ids, _ := db.Search("notes", "*", "original"); len(ids) != 0 {
		t.Errorf("stale postings after reindex: %v", ids)
	}
	if ids, _ := db.Search("notes", "body", "replacement"); len(ids) != 1 {
		t.Errorf("new content not indexed: %v", ids)
	}
	// Reindex also covers materialized text columns.
	if err := db.SetMaterialized("notes", "body", true); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaterializer(db).RunOnce("notes"); err != nil {
		t.Fatal(err)
	}
	if err := db.ReindexCollection("notes"); err != nil {
		t.Fatal(err)
	}
	if ids, _ := db.Search("notes", "body", "entirely"); len(ids) != 1 {
		t.Errorf("materialized text lost from index: %v", ids)
	}
	// Errors.
	if _, err := db.Search("nope", "*", "x"); err == nil {
		t.Error("unknown collection should error")
	}
	dbNoIx := Open(DefaultConfig())
	dbNoIx.CreateCollection("c")
	if _, err := dbNoIx.Search("c", "*", "x"); err == nil {
		t.Error("search without index should error")
	}
}

func TestCatalogMirrorTables(t *testing.T) {
	db := webDB(t)
	if err := db.SyncCatalogTables(); err != nil {
		t.Fatal(err)
	}
	// The Figure 4a dictionary is queryable with plain SQL.
	res, err := db.RDBMS().Query(
		`SELECT key_name, key_type FROM sinew_attributes WHERE key_name = 'hits'`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][1].Text() != "integer" {
		t.Fatalf("dictionary = %v err=%v", res.Rows, err)
	}
	// The Figure 4b per-table half joins back to the dictionary.
	res, err = db.RDBMS().Query(
		`SELECT a.key_name, c.count, c.materialized FROM sinew_attributes a, ` +
			ColumnCatalogTable("webrequests") + ` c WHERE a._id = c._id ORDER BY a.key_name`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row[0].Text() == "url" {
			found = true
			if row[1].I != 2 || row[2].Bool() {
				t.Errorf("url row = %v", row)
			}
		}
	}
	if !found {
		t.Error("url missing from the column catalog")
	}
	// Re-sync after changes refreshes the snapshot.
	db.SetMaterialized("webrequests", "url", true)
	if err := db.SyncCatalogTables(); err != nil {
		t.Fatal(err)
	}
	res, _ = db.RDBMS().Query(`SELECT c.materialized FROM sinew_attributes a, ` +
		ColumnCatalogTable("webrequests") + ` c WHERE a._id = c._id AND a.key_name = 'url'`)
	if !res.Rows[0][0].Bool() {
		t.Error("materialized flag not refreshed")
	}
}
