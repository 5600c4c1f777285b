package core

import (
	"fmt"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
)

// eraDB loads a collection whose sparse keys arrive in *eras*: the first
// half of the load carries alpha_key, the second half beta_key. With 128
// rows per page, each era spans multiple whole pages, so the per-page
// attribute-ID summaries can prove "alpha_key appears nowhere on this
// page" for every beta-era page and vice versa. This is the schema-drift
// scenario attr-presence skipping targets (NoBench cannot show it — its
// generator cycles sparse keys faster than a page).
func eraDB(t *testing.T, n int) *DB {
	t.Helper()
	db := Open(DefaultConfig())
	if err := db.CreateCollection("events"); err != nil {
		t.Fatal(err)
	}
	docs := make([]*jsonx.Doc, n)
	for i := 0; i < n; i++ {
		key := "alpha_key"
		if i >= n/2 {
			key = "beta_key"
		}
		d, err := jsonx.ParseDocument([]byte(fmt.Sprintf(
			`{"id":%d,"%s":"v%d"}`, i, key, i%7)))
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	if _, err := db.LoadDocuments("events", docs); err != nil {
		t.Fatal(err)
	}
	return db
}

func (db *DB) skipRun(t *testing.T, sql string) (rows int, skipped int64) {
	t.Helper()
	pager := db.rdb.Pager()
	pager.Reset()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	sk, _ := pager.ExecStats()
	return len(res.Rows), sk
}

// TestAttrPresenceSkipping pins the attr-presence half of page skipping:
// a selection on an era-local virtual key must skip the other era's
// pages outright while returning exactly the rows of the reference plan's
// scan, which never skips.
func TestAttrPresenceSkipping(t *testing.T) {
	db := eraDB(t, 1024) // 8 pages: 4 alpha-era, 4 beta-era
	const q = `SELECT id FROM events WHERE alpha_key = 'v3'`

	mustSet(t, db, `SET enable_batch = off`)
	baseRows, baseSkipped := db.skipRun(t, q)
	if baseSkipped != 0 {
		t.Fatalf("the reference scan skipped %d pages", baseSkipped)
	}
	if baseRows == 0 {
		t.Fatal("probe matched no rows; fixture broken")
	}

	mustSet(t, db, `SET enable_batch = on`)
	rows, skipped := db.skipRun(t, q)
	if rows != baseRows {
		t.Fatalf("skipping changed the result: %d rows vs %d", rows, baseRows)
	}
	// All 4 beta-era pages lack every attribute ID of alpha_key.
	if skipped < 4 {
		t.Fatalf("expected ≥4 beta-era pages skipped, got %d", skipped)
	}

	// The same holds from the other side.
	rowsB, skippedB := db.skipRun(t, `SELECT id FROM events WHERE beta_key = 'v3'`)
	if rowsB != baseRows || skippedB < 4 {
		t.Fatalf("beta probe: rows=%d (want %d) skipped=%d (want ≥4)", rowsB, baseRows, skippedB)
	}

	// A key present in every record can never prove a skip.
	rowsID, skippedID := db.skipRun(t, `SELECT alpha_key FROM events WHERE id = 7`)
	if rowsID != 1 || skippedID != 0 {
		t.Fatalf("dense-key probe: rows=%d (want 1) skipped=%d (want 0)", rowsID, skippedID)
	}
}

// TestAttrSkipSurvivesDictionaryGrowth pins the contract that page
// skipping stays correct across dictionary growth: after a skip-bearing
// plan has run (and been cached), a later load adds fresh pages carrying
// the probed key plus a brand-new attribute. The re-run must see every
// new row — attribute IDs are resolved per iterator open, never baked
// into the plan.
func TestAttrSkipSurvivesDictionaryGrowth(t *testing.T) {
	db := eraDB(t, 1024)
	const q = `SELECT id FROM events WHERE beta_key IS NOT NULL`
	rows0, _ := db.skipRun(t, q) // plan now cached, alpha pages skipped

	// A new era: beta_key returns on fresh pages, and gamma_key grows the
	// dictionary past what the cached plan saw.
	docs := make([]*jsonx.Doc, 256)
	for i := range docs {
		d, err := jsonx.ParseDocument([]byte(fmt.Sprintf(
			`{"id":%d,"beta_key":"w%d","gamma_key":%d}`, 2000+i, i, i)))
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	if _, err := db.LoadDocuments("events", docs); err != nil {
		t.Fatal(err)
	}

	rows1, _ := db.skipRun(t, q)
	if rows1 != rows0+256 {
		t.Fatalf("after growth: %d rows, want %d", rows1, rows0+256)
	}
}

// zoneDB loads documents whose zv attribute increases monotonically, so
// every frozen page's segment zone map covers a tight, disjoint [min,max]
// window. ANALYZE (the storage-layer call, not the schema analyzer)
// freezes the full pages without materializing any key, so the predicate
// stays on the virtual-key extraction path the zone maps serve.
func zoneDB(t *testing.T, n int) *DB {
	t.Helper()
	db := Open(DefaultConfig())
	if err := db.CreateCollection("events"); err != nil {
		t.Fatal(err)
	}
	docs := make([]*jsonx.Doc, n)
	for i := 0; i < n; i++ {
		d, err := jsonx.ParseDocument([]byte(fmt.Sprintf(
			`{"id":%d,"zv":%d}`, i, i)))
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	if _, err := db.LoadDocuments("events", docs); err != nil {
		t.Fatal(err)
	}
	if err := db.RDBMS().Analyze("events"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestStripedZoneMapSkipping pins the zone-map half of page skipping: a
// range probe on a virtual key present in every record (so attr-presence
// skipping can never fire) must eliminate every frozen page whose segment
// extrema exclude the range, while returning exactly the rows of the
// reference plan's scan, which never skips.
func TestStripedZoneMapSkipping(t *testing.T) {
	db := zoneDB(t, 1024) // 8 full pages, zv spans [128p, 128p+127] on page p
	const q = `SELECT id FROM events WHERE zv > 1000`

	mustSet(t, db, `SET enable_batch = off`)
	baseRows, baseSkipped := db.skipRun(t, q)
	if baseSkipped != 0 {
		t.Fatalf("the reference scan skipped %d pages", baseSkipped)
	}
	if baseRows != 23 { // zv in 1001..1023
		t.Fatalf("probe matched %d rows, want 23", baseRows)
	}

	mustSet(t, db, `SET enable_batch = on`)
	rows, skipped := db.skipRun(t, q)
	if rows != baseRows {
		t.Fatalf("zone skipping changed the result: %d rows vs %d", rows, baseRows)
	}
	// Pages 0..6 top out at zv=895; only the last page can hold zv > 1000.
	if skipped < 7 {
		t.Fatalf("skipped %d pages, want ≥7 via zone maps", skipped)
	}
	if got := statCounter(t, db, "segments_skipped_zonemap"); got < 7 {
		t.Errorf("segments_skipped_zonemap = %d, want ≥7", got)
	}

	// A probe outside every page's range proves the whole table away.
	rows0, skipped0 := db.skipRun(t, `SELECT id FROM events WHERE zv = 5000`)
	if rows0 != 0 || skipped0 < 8 {
		t.Fatalf("out-of-range probe: rows=%d (want 0) skipped=%d (want ≥8)", rows0, skipped0)
	}

	// Equality inside a single page's window keeps exactly that page.
	rowsEq, skippedEq := db.skipRun(t, `SELECT id FROM events WHERE zv = 300`)
	if rowsEq != 1 || skippedEq < 7 {
		t.Fatalf("in-range probe: rows=%d (want 1) skipped=%d (want ≥7)", rowsEq, skippedEq)
	}

	// An UPDATE un-freezes its page: the segment (and its zones) are gone,
	// so that page is scanned again while the others still skip, and the
	// result stays exact.
	if _, err := db.Query(`UPDATE events SET zv = 2000 WHERE id = 300`); err != nil {
		t.Fatal(err)
	}
	rows1, skipped1 := db.skipRun(t, q)
	if rows1 != baseRows+1 {
		t.Fatalf("after update: %d rows, want %d", rows1, baseRows+1)
	}
	if skipped1 >= skipped {
		t.Fatalf("update did not drop a zone skip (skipped %d → %d)", skipped, skipped1)
	}

	// Re-ANALYZE refreezes the page and rebuilds its zones; the updated
	// row's new value widens that page's range, so it is scanned — the
	// other six low pages skip again.
	if err := db.RDBMS().Analyze("events"); err != nil {
		t.Fatal(err)
	}
	rows2, skipped2 := db.skipRun(t, q)
	if rows2 != baseRows+1 || skipped2 < 6 {
		t.Fatalf("after analyze: rows=%d skipped=%d, want rows=%d skipped≥6",
			rows2, skipped2, baseRows+1)
	}
}

// TestSkipInvalidationOnUpdate pins conservative invalidation: an
// in-place UPDATE nulls the touched pages' summaries (they may now be
// stale), selections stay correct, and ANALYZE rebuilds the summaries so
// skipping resumes.
func TestSkipInvalidationOnUpdate(t *testing.T) {
	db := eraDB(t, 1024)
	const q = `SELECT id FROM events WHERE alpha_key = 'v3'`
	rows0, skipped0 := db.skipRun(t, q)
	if skipped0 < 4 {
		t.Fatalf("precondition: expected ≥4 pages skipped, got %d", skipped0)
	}

	// An update that does NOT affect the probe still invalidates its
	// page's summary — the page must be scanned until ANALYZE proves it
	// clean again.
	if _, err := db.Query(`UPDATE events SET other_key = 'x' WHERE id = 900`); err != nil {
		t.Fatal(err)
	}
	rows1, skipped1 := db.skipRun(t, q)
	if rows1 != rows0 {
		t.Fatalf("unrelated update changed the result: %d rows, want %d", rows1, rows0)
	}
	if skipped1 >= skipped0 {
		t.Fatalf("update did not invalidate any summary (skipped %d → %d)", skipped0, skipped1)
	}

	// ANALYZE rebuilds the summary; the page still lacks alpha_key, so the
	// original skip count returns.
	if err := db.rdb.Analyze("events"); err != nil {
		t.Fatal(err)
	}
	rows2, skipped2 := db.skipRun(t, q)
	if rows2 != rows0 || skipped2 != skipped0 {
		t.Fatalf("after analyze: rows=%d skipped=%d, want rows=%d skipped=%d",
			rows2, skipped2, rows0, skipped0)
	}

	// Now an update that DOES affect the probe: the row must be found
	// immediately, and after ANALYZE its page is permanently unskippable
	// (it genuinely carries alpha_key now) while the others skip again.
	if _, err := db.Query(`UPDATE events SET alpha_key = 'v3' WHERE id = 901`); err != nil {
		t.Fatal(err)
	}
	rows3, _ := db.skipRun(t, q)
	if rows3 != rows0+1 {
		t.Fatalf("after alpha update: %d rows, want %d", rows3, rows0+1)
	}
	if err := db.rdb.Analyze("events"); err != nil {
		t.Fatal(err)
	}
	rows4, skipped4 := db.skipRun(t, q)
	if rows4 != rows0+1 || skipped4 != skipped0-1 {
		t.Fatalf("after analyze: rows=%d skipped=%d, want rows=%d skipped=%d",
			rows4, skipped4, rows0+1, skipped0-1)
	}
}

// TestTopNBoundSkipsNoBench pins the Top-N page bound on the benchmark's
// fixture shape: 20 000 NoBench records, the paper's keys materialized, the
// full pages frozen. num is the record index, so ORDER BY num DESC LIMIT 10
// needs only the 32-row tail — every frozen page is skipped and under 1% of
// the heap read — and LIMIT 40 needs the last frozen page too.
func TestTopNBoundSkipsNoBench(t *testing.T) {
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
	heap, _, err := db.RDBMS().Table("nobench_main")
	if err != nil {
		t.Fatal(err)
	}
	pages, frozen := heap.NumPages(), heap.NumFrozenPages()
	if pages != n/storage.PageCapacity+1 || frozen != pages-1 {
		t.Fatalf("fixture: %d pages, %d frozen; want a row-form tail after %d frozen pages", pages, frozen, n/storage.PageCapacity)
	}
	for _, c := range []struct {
		limit int
		read  int // pages the bound must leave: the tail, then the last frozen page
	}{{10, 1}, {40, 2}} {
		q := fmt.Sprintf(`SELECT str1, num FROM nobench_main ORDER BY num DESC LIMIT %d`, c.limit)
		rows, skipped := db.skipRun(t, q)
		read, _ := db.rdb.Pager().Stats()
		if rows != c.limit || skipped != int64(pages-c.read) {
			t.Errorf("%s: %d rows, %d of %d pages skipped; want %d rows, %d skipped", q, rows, skipped, pages, c.limit, pages-c.read)
		}
		if c.read == 1 && read*100 >= heap.SizeBytes() {
			t.Errorf("%s: read %d of the heap's %d bytes, want under 1%%", q, read, heap.SizeBytes())
		}
	}
}
