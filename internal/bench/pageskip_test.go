package bench

import "testing"

// TestPageSkipOnNoBench pins the page-skipping win on the NoBench
// selections: the materialized `num` column is the record index, so its
// per-page min/max ranges are disjoint and a BETWEEN touching ~0.1% of
// records must read only the pages containing the match window. Each
// query must also return exactly what the reference plan (enable_batch
// off) returns, whose scan never skips.
func TestPageSkipOnNoBench(t *testing.T) {
	f, err := SetupNoBench(2000, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := f.Sinew
	pager := db.RDBMS().Pager()
	queries := f.Par.Queries()

	for _, qid := range []string{"Q5", "Q6", "Q9", "Q10", "Q11"} {
		sql := queries[qid]
		if _, err := db.Query("SET enable_batch = off"); err != nil {
			t.Fatal(err)
		}
		pager.Reset()
		base, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s (reference plan): %v", qid, err)
		}
		baseBytes, _ := pager.Stats()
		if skipped, _ := pager.ExecStats(); skipped != 0 {
			t.Fatalf("%s: the reference scan skipped %d pages", qid, skipped)
		}

		if _, err := db.Query("SET enable_batch = on"); err != nil {
			t.Fatal(err)
		}
		pager.Reset()
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s (batch engine): %v", qid, err)
		}
		skipBytes, _ := pager.Stats()
		skipped, _ := pager.ExecStats()

		if len(res.Rows) != len(base.Rows) {
			t.Fatalf("%s: %d rows with skipping, %d without", qid, len(res.Rows), len(base.Rows))
		}
		if skipBytes > baseBytes {
			t.Errorf("%s: skipping read MORE bytes (%d > %d)", qid, skipBytes, baseBytes)
		}
		// Q6/Q10 select a ~0.1% window of the monotone num column: nearly
		// every page must be provably excluded.
		if (qid == "Q6" || qid == "Q10") && skipped == 0 {
			t.Errorf("%s: expected page skips on the num range, got none (bytes %d vs %d)",
				qid, skipBytes, baseBytes)
		}
	}
}
