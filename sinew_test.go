// Public-API integration tests: everything a downstream user touches goes
// through the sinew package exactly as the README shows.
package sinew_test

import (
	"strings"
	"testing"

	sinew "github.com/sinewdata/sinew"
)

func TestReadmeQuickstart(t *testing.T) {
	db := sinew.Open(sinew.DefaultConfig())
	if err := db.CreateCollection("webrequests"); err != nil {
		t.Fatal(err)
	}
	input := `{"url":"www.sample-site.com","hits":22,"avg_site_visit":128.5,"country":"pl"}
{"url":"www.sample-site2.com","hits":15,"ip":"123.45.67.89","owner":"John P. Smith"}`
	res, err := db.LoadJSONLines("webrequests", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if res.Documents != 2 {
		t.Fatalf("documents = %d", res.Documents)
	}
	out, err := db.Query(`SELECT url, owner FROM webrequests WHERE hits > 10 ORDER BY hits DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 || out.Rows[0][0].Text() != "www.sample-site.com" {
		t.Fatalf("rows = %v", out.Rows)
	}
	if !out.Rows[0][1].IsNull() || out.Rows[1][1].Text() != "John P. Smith" {
		t.Errorf("owner column = %v / %v", out.Rows[0][1], out.Rows[1][1])
	}
}

func TestFullLifecycleThroughPublicAPI(t *testing.T) {
	cfg := sinew.Config{DensityThreshold: 0.5, CardinalityThreshold: 3, EnableTextIndex: true}
	db := sinew.Open(cfg)
	if err := db.CreateCollection("logs"); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines,
			`{"level":`+string(rune('0'+i%7))+`,"msg":"event number `+string(rune('a'+i%26))+`"}`)
	}
	if _, err := db.LoadJSONLines("logs", strings.NewReader(strings.Join(lines, "\n"))); err != nil {
		t.Fatal(err)
	}

	decisions, err := db.AnalyzeSchema("logs")
	if err != nil {
		t.Fatal(err)
	}
	var materialized int
	for _, d := range decisions {
		if d.Materialize {
			materialized++
		}
	}
	if materialized == 0 {
		t.Fatal("analyzer materialized nothing")
	}
	mat := sinew.NewMaterializer(db)
	if _, err := mat.RunOnce("logs"); err != nil {
		t.Fatal(err)
	}
	if err := db.RDBMS().Analyze("logs"); err != nil {
		t.Fatal(err)
	}
	// EXPLAIN works through the public handle.
	plan, err := db.Explain(`SELECT DISTINCT level FROM logs`)
	if err != nil || !strings.Contains(plan, "Seq Scan") {
		t.Fatalf("plan = %q err = %v", plan, err)
	}
	// Text search through the public handle.
	res, err := db.Query(`SELECT COUNT(*) FROM logs WHERE matches('msg', 'event')`)
	if err != nil || res.Rows[0][0].I != 40 {
		t.Fatalf("matches = %v err = %v", res.Rows, err)
	}
	// Update through the public handle.
	upd, err := db.Query(`UPDATE logs SET msg = 'redacted' WHERE level = 3`)
	if err != nil || upd.RowsAffected == 0 {
		t.Fatalf("update = %v err = %v", upd, err)
	}
}

func TestArrayOptionsThroughPublicAPI(t *testing.T) {
	db := sinew.Open(sinew.DefaultConfig())
	err := db.CreateCollection("carts", sinew.CollectionOptions{
		ArrayModes: map[string]sinew.ArrayMode{"items": sinew.ArraySeparateTable},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadJSONLines("carts", strings.NewReader(
		`{"id":1,"items":["milk","bread"]}
{"id":2,"items":["milk"]}`)); err != nil {
		t.Fatal(err)
	}
	// The shredded element table is queryable through the RDBMS.
	res, err := db.RDBMS().Query(`SELECT COUNT(*) FROM carts__items_elems WHERE elem_text = 'milk'`)
	if err != nil || res.Rows[0][0].I != 2 {
		t.Fatalf("elems = %v err = %v", res.Rows, err)
	}
}
