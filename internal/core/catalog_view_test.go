package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/sinewdata/sinew/internal/nobench"
)

// viewDB loads a small collection whose key "a" clears the materialization
// thresholds.
func viewDB(t *testing.T) (*DB, *CollectionCatalog) {
	t.Helper()
	db := Open(Config{DensityThreshold: 0.5, CardinalityThreshold: 1})
	if err := db.CreateCollection("v"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocuments("v", mustDocs(t, `{"a":1,"s":"x"}`, `{"a":2,"s":"x"}`, `{"a":3}`)); err != nil {
		t.Fatal(err)
	}
	tc, _ := db.cat.Lookup("v")
	return db, tc
}

// TestSchemaViewInvalidation walks a column through its life (§3.1.3-4):
// every change the rewriter's output depends on must publish a new view
// that the next rewrite sees, and a load that only moves counts must not.
func TestSchemaViewInvalidation(t *testing.T) {
	db, tc := viewDB(t)
	mat := NewMaterializer(db)
	rewrite := func(sql string) string {
		t.Helper()
		out, err := db.RewrittenSQL(sql)
		if err != nil {
			return "ERROR: " + err.Error()
		}
		return out
	}
	state := func(key string) ColumnState {
		t.Helper()
		cands := tc.schemaView().byKey[key]
		if len(cands) != 1 {
			t.Fatalf("view holds %d columns for %q, want 1", len(cands), key)
		}
		return cands[0]
	}
	// step runs one catalog change and checks that it replaced the view.
	step := func(name string, change func()) {
		t.Helper()
		before := tc.schemaView()
		change()
		if tc.schemaView() == before {
			t.Fatalf("%s: the schema view was not republished", name)
		}
	}

	// Loads that add no attribute and dirty no column leave the view alone.
	v0 := tc.schemaView()
	if _, err := db.LoadDocuments("v", mustDocs(t, `{"a":4,"s":"x"}`)); err != nil {
		t.Fatal(err)
	}
	if tc.schemaView() != v0 {
		t.Error("a load that only moved counts republished the schema view")
	}
	if got := tc.ColumnsByKey("a")[0].Count; got != 4 {
		t.Errorf("count of a = %d, want 4 (counts must still be live)", got)
	}

	if got := rewrite(`SELECT fresh FROM v`); !strings.HasPrefix(got, "ERROR") {
		t.Fatalf("unknown key rewrote to %s", got)
	}
	step("new key via load", func() {
		if _, err := db.LoadDocuments("v", mustDocs(t, `{"fresh":true}`)); err != nil {
			t.Fatal(err)
		}
	})
	if got := rewrite(`SELECT fresh FROM v`); !strings.Contains(got, "sinew_extract_bool(v.data, 'fresh')") {
		t.Errorf("key minted by a load: %s", got)
	}

	step("new key via UPDATE", func() {
		if _, err := db.Query(`UPDATE v SET brand_new = 1.5 WHERE a = 1`); err != nil {
			t.Fatal(err)
		}
	})
	if got := rewrite(`SELECT brand_new FROM v`); !strings.Contains(got, "sinew_extract_real(v.data, 'brand_new')") {
		t.Errorf("key minted by an UPDATE: %s", got)
	}

	step("SetMaterialized", func() {
		if err := db.SetMaterialized("v", "s", true); err != nil {
			t.Fatal(err)
		}
	})
	if st := state("s"); !st.Materialized || !st.Dirty || st.PhysicalName != "" {
		t.Errorf("s after SetMaterialized = %+v", st)
	}

	step("AnalyzeSchema", func() {
		if _, err := db.AnalyzeSchema("v"); err != nil {
			t.Fatal(err)
		}
	})
	if st := state("a"); !st.Materialized || !st.Dirty {
		t.Errorf("a after AnalyzeSchema = %+v", st)
	}
	if st := state("s"); st.Materialized {
		t.Errorf("s (one distinct value) should have been retargeted to virtual: %+v", st)
	}

	step("materializer promotion", func() {
		if _, err := mat.RunOnce("v"); err != nil {
			t.Fatal(err)
		}
	})
	if got := rewrite(`SELECT a FROM v`); got != `SELECT v.a FROM v` {
		t.Errorf("promoted column: %s", got)
	}

	// Clean -> dirty through the loader; the already-dirty repeat is quiet.
	step("load over a clean materialized column", func() {
		if _, err := db.LoadDocuments("v", mustDocs(t, `{"a":9}`)); err != nil {
			t.Fatal(err)
		}
	})
	if got := rewrite(`SELECT a FROM v`); !strings.Contains(got, "coalesce(v.a, sinew_extract_int(v.data, 'a'))") {
		t.Errorf("dirty column: %s", got)
	}
	v1 := tc.schemaView()
	if _, err := db.LoadDocuments("v", mustDocs(t, `{"a":9}`)); err != nil {
		t.Fatal(err)
	}
	if tc.schemaView() != v1 {
		t.Error("a load over an already-dirty column republished the schema view")
	}

	step("materializer pass clearing the dirty bit", func() {
		if _, err := mat.RunOnce("v"); err != nil {
			t.Fatal(err)
		}
	})
	step("demotion target", func() {
		if err := db.SetMaterialized("v", "a", false); err != nil {
			t.Fatal(err)
		}
	})
	if got := rewrite(`SELECT a FROM v`); !strings.Contains(got, "coalesce(v.a,") {
		t.Errorf("demoting column: %s", got)
	}
	step("materializer demotion", func() {
		if _, err := mat.RunOnce("v"); err != nil {
			t.Fatal(err)
		}
	})
	if st := state("a"); st.PhysicalName != "" || st.Dirty {
		t.Errorf("a after demotion = %+v", st)
	}
	if got := rewrite(`SELECT a FROM v`); got != `SELECT sinew_extract_int(v.data, 'a') AS a FROM v` {
		t.Errorf("demoted column: %s", got)
	}
	res, err := db.Query(`SELECT COUNT(*) FROM v WHERE a = 9`)
	if err != nil || res.Rows[0][0].I != 2 {
		t.Errorf("rows with a = 9 after the round trip: %v, %v", res, err)
	}
}

// TestSettleKeepsRetargetedColumnDirty: if the analyzer flips a column's
// target while a materializer pass is moving its values, ending the pass
// must not mark the column clean (nor drop its physical column).
func TestSettleKeepsRetargetedColumnDirty(t *testing.T) {
	db, tc := viewDB(t)
	if err := db.SetMaterialized("v", "a", true); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaterializer(db).RunOnce("v"); err != nil {
		t.Fatal(err)
	}
	a := tc.schemaView().byKey["a"][0]
	if err := db.SetMaterialized("v", "a", false); err != nil { // the flip "mid-pass"
		t.Fatal(err)
	}
	if tc.settle(a.AttrID, a.Materialized) {
		t.Fatal("settle accepted a pass toward a target the column no longer has")
	}
	if st := tc.schemaView().byKey["a"][0]; !st.Dirty || st.PhysicalName != "a" {
		t.Errorf("retargeted column = %+v, want dirty with its physical column", st)
	}
}

// TestLoadBumpsEpochOnlyOnChange: the loader invalidates cached plans when
// a batch mints an attribute or turns a clean materialized column dirty,
// not when every column it touches is already dirty; and the plans that
// survive still see the new rows.
func TestLoadBumpsEpochOnlyOnChange(t *testing.T) {
	db, _ := viewDB(t)
	if err := db.SetMaterialized("v", "a", true); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaterializer(db).RunOnce("v"); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT COUNT(*) FROM v WHERE a >= 100`
	count := func() int64 {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].I
	}
	batch := mustDocs(t, `{"a":100}`, `{"a":101}`)
	stats := db.RDBMS().PlanCacheStats

	if got := count(); got != 0 {
		t.Fatalf("count before loading = %d", got)
	}
	before := stats()
	if _, err := db.LoadDocuments("v", batch); err != nil {
		t.Fatal(err)
	}
	if got := stats().Invalidations; got != before.Invalidations+1 {
		t.Errorf("clean -> dirty load: invalidations %d -> %d, want one bump", before.Invalidations, got)
	}
	if got := count(); got != 2 {
		t.Fatalf("count after the first batch = %d, want 2", got)
	}

	before = stats()
	if _, err := db.LoadDocuments("v", batch); err != nil {
		t.Fatal(err)
	}
	if got := stats().Invalidations; got != before.Invalidations {
		t.Errorf("load over an already-dirty column: invalidations %d -> %d, want no bump", before.Invalidations, got)
	}
	if got := count(); got != 4 {
		t.Errorf("cached plan after the second batch counts %d rows, want 4", got)
	}
	if after := stats(); after.Hits != before.Hits+1 {
		t.Errorf("the statement should have been served from the plan cache: hits %d -> %d", before.Hits, after.Hits)
	}
}

// groupsKey is resultKey with the rows sorted: a GROUP BY without ORDER BY
// promises no order.
func groupsKey(res *QueryResult) string {
	lines := strings.SplitAfter(resultKey(res), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// TestSnapshotTornDirty is the regression test for the torn dirty flag: the
// rewriter used to read a column's dirty bit once per reference, so a flip
// between Q10's select list and its GROUP BY produced `SELECT COALESCE(col,
// …) … GROUP BY col`, which the planner rejects. One goroutine dirties the
// grouped column and runs materializer passes (which clean it again) while
// readers issue the Q10 shape with distinct constants: the shape is
// rewritten afresh after every epoch bump of the flipper, and each
// statement runs its own values through the shape's plan. No statement may
// fail and every result must equal the one computed before the flipping
// started.
func TestSnapshotTornDirty(t *testing.T) {
	const n, width, readers, perReader, minPasses = 1000, 20, 4, 150, 15
	const table = "nobench_main"
	db := Open(DefaultConfig())
	if err := db.CreateCollection(table); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocuments(table, nobench.Generate(n, 3)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"num", "thousandth"} {
		if err := db.SetMaterialized(table, k, true); err != nil {
			t.Fatal(err)
		}
	}
	mat := NewMaterializer(db)
	if _, err := mat.RunOnce(table); err != nil {
		t.Fatal(err)
	}
	tc, _ := db.cat.Lookup(table)
	grouped := tc.schemaView().byKey["thousandth"][0]
	if grouped.Dirty || grouped.PhysicalName == "" {
		t.Fatalf("fixture: thousandth = %+v, want a clean physical column", grouped)
	}

	text := func(lo int) string {
		return fmt.Sprintf(`SELECT thousandth, COUNT(*) FROM %s WHERE num BETWEEN %d AND %d GROUP BY thousandth`, table, lo, lo+width)
	}
	oracle := make([]string, n-width)
	for lo := range oracle {
		res, err := db.Query(text(lo))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != width+1 {
			t.Fatalf("oracle: %d groups for lo=%d, want %d", len(res.Rows), lo, width+1)
		}
		oracle[lo] = groupsKey(res)
	}

	var passes atomic.Int64
	var readersDone atomic.Int32
	var flipperDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer flipperDone.Store(true)
		for readersDone.Load() < readers {
			if tc.setDirty(grouped.AttrID, true) {
				db.rdb.BumpCatalogEpoch()
			}
			if _, err := mat.RunOnce(table); err != nil {
				t.Errorf("materializer pass: %v", err)
				return
			}
			passes.Add(1)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer readersDone.Add(1)
			// Keep reading until the flipper has had its share of passes too.
			for i := 0; i < perReader || (passes.Load() < minPasses && !flipperDone.Load()); i++ {
				lo := (r*perReader + i*7) % len(oracle)
				res, err := db.Query(text(lo))
				if err != nil {
					t.Errorf("reader %d: %s: %v", r, text(lo), err)
					return
				}
				if got := groupsKey(res); got != oracle[lo] {
					t.Errorf("reader %d: %s returned\n%swant\n%s", r, text(lo), got, oracle[lo])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if st := tc.schemaView().byKey["thousandth"][0]; st.PhysicalName == "" || !st.Materialized {
		t.Errorf("thousandth after the run = %+v", st)
	}
}

// setDirty sets a column's dirty bit, the way a load that brings values
// for it does, and reports whether that changed it.
func (tc *CollectionCatalog) setDirty(attrID uint32, dirty bool) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	c, ok := tc.columns[attrID]
	if !ok || c.Dirty == dirty {
		return false
	}
	c.Dirty = dirty
	tc.view.Store(nil)
	return true
}
