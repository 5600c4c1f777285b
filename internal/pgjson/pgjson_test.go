package pgjson

import (
	"strings"
	"testing"
)

func seed(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if err := db.CreateCollection("events"); err != nil {
		t.Fatal(err)
	}
	docs := []string{
		`{"kind":"a","n":1,"user":{"lang":"en"},"tags":["x","y"]}`,
		`{"kind":"b","n":2,"user":{"lang":"pl"}}`,
		`{"kind":"a","n":3,"dyn":"three"}`,
		`{"kind":"c","n":4,"dyn":40}`,
	}
	if err := db.LoadJSON("events", docs); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLoadValidatesSyntax(t *testing.T) {
	db := Open()
	db.CreateCollection("t")
	if err := db.LoadJSON("t", []string{`{"ok":1}`, `{broken`}); err == nil {
		t.Error("invalid JSON should fail the load")
	}
}

func TestProjectionViaExtraction(t *testing.T) {
	db := seed(t)
	res, err := db.Query(`SELECT kind FROM events WHERE n = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "b" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Every key reference becomes a json_extract over the text column.
	// Nested dotted paths work through PathGet.
	res, err = db.Query(`SELECT "user.lang" FROM events WHERE kind = 'b'`)
	if err != nil || res.Rows[0][0].Text() != "pl" {
		t.Fatalf("nested = %v %v", res.Rows, err)
	}
}

func TestNumericContextCasts(t *testing.T) {
	db := seed(t)
	res, err := db.Query(`SELECT kind FROM events WHERE n BETWEEN 2 AND 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestMultiTypedKeyFailsLikeThePaper(t *testing.T) {
	db := seed(t)
	// dyn holds "three" in one record and 40 in another; the CAST blows up
	// at runtime — the §6.4 behaviour that makes Q7 inexpressible.
	if _, err := db.Query(`SELECT kind FROM events WHERE dyn BETWEEN 1 AND 50`); err == nil {
		t.Error("expected runtime CAST failure on multi-typed key")
	}
	// Plain projection of the same key is fine (text form, no cast).
	res, err := db.Query(`SELECT dyn FROM events WHERE kind = 'c'`)
	if err != nil || res.Rows[0][0].Text() != "40" {
		t.Fatalf("projection = %v %v", res.Rows, err)
	}
}

func TestArrayContainmentViaLike(t *testing.T) {
	db := seed(t)
	res, err := db.Query(`SELECT kind FROM events WHERE 'x' IN tags`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "a" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSelectStarReturnsRawJSON(t *testing.T) {
	db := seed(t)
	res, err := db.Query(`SELECT * FROM events WHERE n = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Rows[0][0].Text(), `"kind":"a"`) {
		t.Errorf("star = %v", res.Rows[0][0])
	}
}

func TestGroupByOverExtraction(t *testing.T) {
	db := seed(t)
	res, err := db.Query(`SELECT kind, COUNT(*) FROM events GROUP BY kind ORDER BY kind`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][1].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUpdateRewritesWholeDocument(t *testing.T) {
	db := seed(t)
	res, err := db.Query(`UPDATE events SET kind = 'z' WHERE n = 4`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	check, _ := db.Query(`SELECT kind FROM events WHERE n = 4`)
	if check.Rows[0][0].Text() != "z" {
		t.Errorf("kind = %v", check.Rows[0][0])
	}
	// The other keys survived the text round trip.
	check, _ = db.Query(`SELECT dyn FROM events WHERE n = 4`)
	if check.Rows[0][0].Text() != "40" {
		t.Errorf("dyn = %v", check.Rows[0][0])
	}
}

func TestExplainShowsOpaquePlan(t *testing.T) {
	db := seed(t)
	text, err := db.Explain(`SELECT DISTINCT kind FROM events`)
	if err != nil {
		t.Fatal(err)
	}
	// No statistics exist on anything inside the JSON: the plan uses the
	// fixed default estimate and hashes.
	if !strings.Contains(text, "HashAggregate") {
		t.Errorf("plan:\n%s", text)
	}
}

func TestMissingKeyIsNull(t *testing.T) {
	db := seed(t)
	res, err := db.Query(`SELECT kind FROM events WHERE nonexistent IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}
