package storage_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
)

const pinnedTable = "nobench_main"

// pinnedNoBench loads the 20 000-record NoBench fixture with the paper's
// keys materialized and ANALYZEs it once, which freezes 156 pages.
func pinnedNoBench(t *testing.T) (*core.DB, *storage.Heap) {
	t.Helper()
	if testing.Short() {
		t.Skip("loads 20 000 documents")
	}
	db := core.Open(core.DefaultConfig())
	if err := db.CreateCollection(pinnedTable); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocuments(pinnedTable, nobench.Generate(20000, 20140622)); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"str1", "num", "nested_arr", "nested_obj", "thousandth"} {
		if err := db.SetMaterialized(pinnedTable, key, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := core.NewMaterializer(db).RunOnce(pinnedTable); err != nil {
		t.Fatal(err)
	}
	if err := db.RDBMS().Analyze(pinnedTable); err != nil {
		t.Fatal(err)
	}
	h, _, err := db.RDBMS().Table(pinnedTable)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumFrozenPages() != 156 {
		t.Fatalf("the first ANALYZE froze %d pages, want 156", h.NumFrozenPages())
	}
	return db, h
}

// liveHeap returns HeapInuse and HeapAlloc after a forced collection.
// The second collection empties the sync.Pool victim caches the first one
// filled, so pooled batches do not count.
func liveHeap() (inuse, alloc uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse, ms.HeapAlloc
}

// TestReanalyzeBuildsNoRowCaches runs ANALYZE a second time over the
// 20 000-record NoBench fixture with the paper's keys materialized: the
// live heap after a forced collection stays within 2 % of what it was
// after the first ANALYZE, though the second one decodes every frozen
// page's segments.
func TestReanalyzeBuildsNoRowCaches(t *testing.T) {
	db, _ := pinnedNoBench(t)
	first, _ := liveHeap()
	if err := db.RDBMS().Analyze(pinnedTable); err != nil {
		t.Fatal(err)
	}
	second, _ := liveHeap()
	t.Logf("HeapInuse after the first ANALYZE %d B, after the second %d B", first, second)
	if growth := float64(second)/float64(first) - 1; growth > 0.02 {
		t.Errorf("HeapInuse %d -> %d bytes over a second ANALYZE (%+.1f %%), want under 2 %%", first, second, 100*growth)
	}
	runtime.KeepAlive(db)
}

// analyticTexts are the NoBench analytic statements: Q1–Q11 and four
// aggregates and sorts over the same table.
func analyticTexts() []string {
	q := nobench.NewParams(20000).Queries()
	var out []string
	for _, id := range nobench.QueryOrder() {
		if id != "Q12" {
			out = append(out, q[id])
		}
	}
	return append(out,
		fmt.Sprintf(`SELECT thousandth, COUNT(*) FROM %s GROUP BY thousandth`, pinnedTable),
		fmt.Sprintf(`SELECT str1, num FROM %s ORDER BY num DESC LIMIT 10`, pinnedTable),
		fmt.Sprintf(`SELECT str1 FROM %s ORDER BY str1`, pinnedTable),
		fmt.Sprintf(`SELECT COUNT(*) FROM %s`, pinnedTable))
}

// TestQueriesBuildNoFrozenCopies runs every analytic text twice over the
// ANALYZEd fixture: no page un-freezes, and the live heap after a forced
// collection grows by under 2 %. A frozen page keeps nothing a statement
// decoded from it, so nothing is subtracted: a page-lifetime row cache
// would add a fifth, the segment columns the striped scans once kept
// decoded about 5 %. Live bytes are HeapAlloc, not HeapInuse, whose span
// slack moves by more than 2 % from run to run.
func TestQueriesBuildNoFrozenCopies(t *testing.T) {
	db, h := pinnedNoBench(t)
	texts := analyticTexts()
	inuse0, alloc0 := liveHeap()
	for range 2 {
		for _, sql := range texts {
			if _, err := db.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
	}
	inuse, alloc := liveHeap()
	t.Logf("after ANALYZE HeapInuse %d B, HeapAlloc %d B; after two passes of the %d analytic texts %d B, %d B",
		inuse0, alloc0, len(texts), inuse, alloc)
	if h.NumFrozenPages() != 156 {
		t.Errorf("%d pages frozen after the reads, want 156", h.NumFrozenPages())
	}
	if growth := float64(alloc)/float64(alloc0) - 1; growth > 0.02 {
		t.Errorf("HeapAlloc %d -> %d bytes over two passes of the analytic texts: %+.1f %%, want under 2 %%",
			alloc0, alloc, 100*growth)
	}
	runtime.KeepAlive(db)
}
