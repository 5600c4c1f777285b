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
