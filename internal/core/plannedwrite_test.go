package core

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
)

// writeDB is eraDB made partly frozen: ANALYZE freezes its 16 full pages,
// then a further load of beta-era records that also carry gamma_key adds
// row-form pages, the last one short.
func writeDB(t *testing.T) *DB {
	t.Helper()
	db := eraDB(t, 2048)
	if err := db.RDBMS().Analyze("events"); err != nil {
		t.Fatal(err)
	}
	docs := make([]*jsonx.Doc, 300)
	for i := range docs {
		d, err := jsonx.ParseDocument([]byte(fmt.Sprintf(`{"id":%d,"beta_key":"v%d","gamma_key":%d}`, 2048+i, i%7, -i)))
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	if _, err := db.LoadDocuments("events", docs); err != nil {
		t.Fatal(err)
	}
	heap, _, err := db.RDBMS().Table("events")
	if err != nil {
		t.Fatal(err)
	}
	if f := heap.NumFrozenPages(); f != 16 || heap.NumPages() != 19 {
		t.Fatalf("fixture: %d of %d pages frozen, want 16 of 19", f, heap.NumPages())
	}
	return db
}

// writeRun runs one statement and reports what it changed and the pages
// its scan skipped.
func writeRun(db *DB, sql string) (affected, skipped int64, err error) {
	pager := db.RDBMS().Pager()
	pager.Reset()
	res, err := db.Query(sql)
	if err != nil {
		return 0, 0, err
	}
	skipped, _ = pager.ExecStats()
	return res.RowsAffected, skipped, nil
}

// tableDump lists every stored row of a table with its address, in heap
// order.
func tableDump(t *testing.T, db *DB, name string) []string {
	t.Helper()
	var out []string
	err := db.RDBMS().ScanTable(name, func(id storage.RowID, row storage.Row) bool {
		out = append(out, fmt.Sprintf("%d.%d %v", id.Page, id.Slot, row))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rowsByID maps the _id of every stored row of events to the row and its
// address.
func rowsByID(t *testing.T, db *DB) map[int64]string {
	t.Helper()
	out := map[int64]string{}
	err := db.RDBMS().ScanTable("events", func(id storage.RowID, row storage.Row) bool {
		out[row[0].I] = fmt.Sprintf("%d.%d %v", id.Page, id.Slot, row)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// randomWrite draws one statement of the differential sequence and its
// WHERE clause: selective sparse-key predicates, ranges over the physical
// _id and the virtual id, and predicates no row satisfies. Every UPDATE
// changes each row it matches.
func randomWrite(r *rand.Rand, step int) (sql, where string) {
	lo := r.Intn(2300)
	switch r.Intn(8) {
	case 0:
		where = fmt.Sprintf(`alpha_key = 'v%d'`, r.Intn(7))
		return fmt.Sprintf(`UPDATE events SET alpha_key = 'u%d' WHERE %s`, step, where), where
	case 1:
		where = fmt.Sprintf(`_id BETWEEN %d AND %d`, lo, lo+r.Intn(200))
		return fmt.Sprintf(`UPDATE events SET gamma_key = %d WHERE %s`, step, where), where
	case 2:
		where = fmt.Sprintf(`beta_key = 'v%d' AND id > %d`, r.Intn(7), lo)
		return fmt.Sprintf(`UPDATE events SET beta_key = 'w%d' WHERE %s`, step, where), where
	case 3:
		where = fmt.Sprintf(`beta_key = 'v%d' AND id BETWEEN %d AND %d`, r.Intn(7), lo, lo+r.Intn(400))
	case 4:
		where = fmt.Sprintf(`_id BETWEEN %d AND %d`, lo, lo+r.Intn(40))
	case 5:
		where = fmt.Sprintf(`alpha_key = 'v%d' AND gamma_key IS NOT NULL`, r.Intn(7))
	case 6:
		where = `alpha_key = 'no such value'`
		return `UPDATE events SET alpha_key = 'never' WHERE ` + where, where
	default:
		where = fmt.Sprintf(`id < %d`, -1-lo)
	}
	return `DELETE FROM events WHERE ` + where, where
}

// TestPlannedWritesMatchReference holds the planned read side of UPDATE and
// DELETE to the reference scan and to SELECT: one seeded sequence of
// writes runs on two copies of a partly frozen era-clustered collection,
// one planning with enable_batch on and one with it off. After every
// statement both report the same rows affected and store the same rows
// at the same addresses, and the rows that changed are exactly those a
// SELECT with the statement's WHERE found before it. A selective UPDATE
// and a selective DELETE skip pages on the batch side only.
func TestPlannedWritesMatchReference(t *testing.T) {
	on, off := writeDB(t), writeDB(t)
	mustSet(t, off, `SET enable_batch = off`)
	run := func(sql, where string) (affected, skippedOn int64) {
		t.Helper()
		res, err := off.Query(`SELECT _id FROM events WHERE ` + where)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, row := range res.Rows {
			want = append(want, row[0].I)
		}
		before := rowsByID(t, off)
		nOn, skOn, errOn := writeRun(on, sql)
		nOff, skOff, errOff := writeRun(off, sql)
		if errOn != nil || errOff != nil {
			t.Fatalf("%s: batch error %v, reference error %v", sql, errOn, errOff)
		}
		if nOn != nOff || nOn != int64(len(want)) {
			t.Fatalf("%s: %d rows affected, the reference %d, SELECT found %d", sql, nOn, nOff, len(want))
		}
		if skOff != 0 {
			t.Fatalf("%s: the reference scan skipped %d pages", sql, skOff)
		}
		after := rowsByID(t, on)
		if !maps.Equal(after, rowsByID(t, off)) {
			t.Fatalf("%s: stored rows differ", sql)
		}
		var changed []int64
		for id, row := range before {
			if after[id] != row {
				changed = append(changed, id)
			}
		}
		slices.Sort(want)
		slices.Sort(changed)
		if !slices.Equal(changed, want) {
			t.Fatalf("%s: changed _id %v, SELECT found %v", sql, changed, want)
		}
		return nOn, skOn
	}
	analyze := func() {
		t.Helper()
		for _, db := range []*DB{on, off} {
			if err := db.RDBMS().Analyze("events"); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Every alpha-era page lacks beta_key, every beta-era page alpha_key.
	if _, sk := run(`UPDATE events SET other_key = 'x' WHERE beta_key = 'v3'`, `beta_key = 'v3'`); sk < 8 {
		t.Errorf("selective UPDATE skipped %d pages, want ≥ 8", sk)
	}
	analyze()
	if _, sk := run(`DELETE FROM events WHERE alpha_key = 'v5'`, `alpha_key = 'v5'`); sk < 10 {
		t.Errorf("selective DELETE skipped %d pages, want ≥ 10", sk)
	}
	analyze()
	// _id grows with the load: a narrow range keeps one page.
	if _, sk := run(`DELETE FROM events WHERE _id BETWEEN 700 AND 710`, `_id BETWEEN 700 AND 710`); sk < 17 {
		t.Errorf("range DELETE skipped %d pages, want ≥ 17", sk)
	}

	r := rand.New(rand.NewSource(39))
	var affected, skipped int64
	for step := 0; step < 60; step++ {
		if step%15 == 14 {
			analyze()
		}
		n, sk := run(randomWrite(r, step))
		affected, skipped = affected+n, skipped+sk
	}
	if affected == 0 || skipped == 0 {
		t.Errorf("the sequence changed %d rows and skipped %d pages; want both > 0", affected, skipped)
	}
}

// TestNoBenchUpdatePinned pins NoBench Q12, the random update, on the
// benchmark's fixture shape (20 000 records, the paper's keys materialized,
// the full pages frozen): the rows it changes and a checksum of every
// stored row after it, both as the write path left them before it read
// through the planned scan.
func TestNoBenchUpdatePinned(t *testing.T) {
	const n = 20000
	db := Open(DefaultConfig())
	if err := db.CreateCollection("nobench_main"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocuments("nobench_main", nobench.Generate(n, 20140622)); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"str1", "num", "nested_arr", "nested_obj", "thousandth"} {
		if err := db.SetMaterialized("nobench_main", key, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewMaterializer(db).RunOnce("nobench_main"); err != nil {
		t.Fatal(err)
	}
	if err := db.RDBMS().Analyze("nobench_main"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(nobench.NewParams(n).Queries()["Q12"])
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, line := range tableDump(t, db, "nobench_main") {
		fmt.Fprintln(h, line)
	}
	const wantRows, wantSum = 2, 0xb6d26f01971506ad
	if res.RowsAffected != wantRows || h.Sum64() != wantSum {
		t.Fatalf("Q12: %d rows affected, table checksum %#x; want %d, %#x", res.RowsAffected, h.Sum64(), wantRows, uint64(wantSum))
	}
}

// TestWriteKeepsCachedPlans pins when a write invalidates the plan cache:
// only when it changed what the rewriter emits. A repeated Q12-shaped
// UPDATE of a cataloged key leaves the cache whole, and a cached SELECT
// still hits and sees what the UPDATEs wrote; an UPDATE that adds a key
// bumps the epoch once, and so does one whose value mints a new
// (key, type) attribute in the dictionary.
func TestWriteKeepsCachedPlans(t *testing.T) {
	const n = 2000
	db := shapeDB(t, "frozen", n)
	q12 := nobench.NewParams(n).Queries()["Q12"]
	if _, err := db.Query(q12); err != nil { // the first write of the key may catalog it
		t.Fatal(err)
	}
	sel := fmt.Sprintf(`SELECT COUNT(*) FROM nobench_main WHERE %s = 'DUMMY'`, nobench.NewParams(n).SparseSetKey())
	count := func() int64 {
		t.Helper()
		res, err := db.Query(sel)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].I
	}
	want := count()
	stats := db.RDBMS().PlanCacheStats
	before := stats()
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q12); err != nil {
			t.Fatal(err)
		}
		// Rows that met the WHERE already hold 'DUMMY'.
		if got := count(); got != want {
			t.Fatalf("after UPDATE %d: %d rows hold DUMMY, want %d", i, got, want)
		}
	}
	after := stats()
	if after.Invalidations != before.Invalidations {
		t.Errorf("repeated Q12: invalidations %d -> %d, want none", before.Invalidations, after.Invalidations)
	}
	if hits := after.Hits - before.Hits; hits != 3 {
		t.Errorf("cached SELECT beside the UPDATEs: %d hits, want 3", hits)
	}

	// A write that makes new rows match the cached SELECT: still a hit.
	before = stats()
	if _, err := db.Query(`UPDATE nobench_main SET sparse_588 = 'DUMMY' WHERE num < 10`); err != nil {
		t.Fatal(err)
	}
	if got := count(); got <= want {
		t.Fatalf("after the wider UPDATE: %d rows hold DUMMY, want more than %d", got, want)
	}
	if s := stats(); s.Invalidations != before.Invalidations || s.Hits != before.Hits+1 {
		t.Errorf("wider UPDATE: invalidations %d -> %d, hits %d -> %d; want no bump and one hit",
			before.Invalidations, s.Invalidations, before.Hits, s.Hits)
	}

	bumps := func(sql string) uint64 {
		t.Helper()
		before := stats().Invalidations
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
		return stats().Invalidations - before
	}
	if got := bumps(`UPDATE nobench_main SET brand_new_key = 'v' WHERE num < 3`); got != 1 {
		t.Errorf("UPDATE adding a key: %d invalidations, want 1", got)
	}
	if got := bumps(`UPDATE nobench_main SET brand_new_key = 'w' WHERE num < 3`); got != 0 {
		t.Errorf("UPDATE of the now cataloged key: %d invalidations, want 0", got)
	}
	if got := bumps(`UPDATE nobench_main SET brand_new_key = 7 WHERE num < 3`); got != 1 {
		t.Errorf("UPDATE minting (brand_new_key, int): %d invalidations, want 1", got)
	}
	if got := bumps(`DELETE FROM nobench_main WHERE num < 3`); got != 0 {
		t.Errorf("DELETE: %d invalidations, want 0", got)
	}
}

// TestUpdateNewTypeReadsLikeLoad: an UPDATE that writes a virtual key with
// a value of a type none of the key's columns has catalogs (key, type) as
// the loader does, so the 1 000-record collection the UPDATEs changed
// reads like one loaded with the documents they made.
func TestUpdateNewTypeReadsLikeLoad(t *testing.T) {
	const n, table = 1000, "nobench_main"
	updated := shapeDB(t, "frozen", n)
	for _, sql := range []string{
		`UPDATE nobench_main SET bnk = 'v' WHERE num < 30`,
		`UPDATE nobench_main SET bnk = 7 WHERE num < 10`,
		`UPDATE nobench_main SET bnk = 2.5 WHERE num >= 25 AND num < 30`,
	} {
		if _, err := updated.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	docs := nobench.Generate(n, 1)
	for i, d := range docs {
		switch {
		case i < 10:
			d.Set("bnk", jsonx.IntValue(7))
		case i >= 25 && i < 30:
			d.Set("bnk", jsonx.FloatValue(2.5))
		case i < 30:
			d.Set("bnk", jsonx.StringValue("v"))
		}
	}
	loaded := Open(DefaultConfig())
	if err := loaded.CreateCollection(table); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.LoadDocuments(table, docs); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.AnalyzeSchema(table); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaterializer(loaded).RunOnce(table); err != nil {
		t.Fatal(err)
	}
	if err := loaded.RDBMS().Analyze(table); err != nil {
		t.Fatal(err)
	}

	for _, sql := range []string{
		`SELECT num, bnk FROM nobench_main WHERE num < 40 ORDER BY num`,
		`SELECT COUNT(*) FROM nobench_main WHERE bnk = 7`,
		`SELECT COUNT(*) FROM nobench_main WHERE bnk = 'v'`,
		`SELECT COUNT(*) FROM nobench_main WHERE bnk = 2.5`,
		`SELECT COUNT(bnk) FROM nobench_main`,
		`SELECT bnk, COUNT(*) FROM nobench_main GROUP BY bnk ORDER BY bnk`,
	} {
		got, err := updated.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want, err := loaded.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if g, w := fmt.Sprint(got.Rows), fmt.Sprint(want.Rows); g != w {
			t.Errorf("%s:\nafter the UPDATEs %s\nloaded            %s", sql, g, w)
		}
	}
}
