package storage_test

import (
	"runtime"
	"testing"

	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
)

// TestReanalyzeBuildsNoRowCaches runs ANALYZE a second time over the
// 20 000-record NoBench fixture with the paper's keys materialized: no
// frozen page gains a row-form copy, and the live heap after a forced
// collection stays within 2 % of what it was after the first ANALYZE.
func TestReanalyzeBuildsNoRowCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 20 000 documents")
	}
	const table = "nobench_main"
	db := core.Open(core.DefaultConfig())
	if err := db.CreateCollection(table); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocuments(table, nobench.Generate(20000, 20140622)); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"str1", "num", "nested_arr", "nested_obj", "thousandth"} {
		if err := db.SetMaterialized(table, key, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := core.NewMaterializer(db).RunOnce(table); err != nil {
		t.Fatal(err)
	}
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	if err := db.RDBMS().Analyze(table); err != nil {
		t.Fatal(err)
	}
	h, _, err := db.RDBMS().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumFrozenPages() != 156 {
		t.Fatalf("the first ANALYZE froze %d pages, want 156", h.NumFrozenPages())
	}
	first := heapInuse()
	if err := db.RDBMS().Analyze(table); err != nil {
		t.Fatal(err)
	}
	second := heapInuse()
	t.Logf("HeapInuse after the first ANALYZE %d B, after the second %d B", first, second)
	if n := storage.RowCachedFrozenPages(h); n != 0 {
		t.Errorf("%d frozen pages hold a row-form copy after two ANALYZEs", n)
	}
	if growth := float64(second)/float64(first) - 1; growth > 0.02 {
		t.Errorf("HeapInuse %d -> %d bytes over a second ANALYZE (%+.1f %%), want under 2 %%", first, second, 100*growth)
	}
	runtime.KeepAlive(db)
}
