package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// fusionDB loads a collection exercising every extraction shape the fused
// multi-key kernel must reproduce bit-for-bit: dense typed keys, dotted
// nested paths, sparse keys, and a multi-typed key (extract_any).
func fusionDB(t *testing.T) *DB {
	t.Helper()
	db := Open(DefaultConfig())
	if err := db.CreateCollection("fuse_t"); err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		mixed := fmt.Sprintf(`"s%d"`, i)
		if i%3 == 0 {
			mixed = fmt.Sprintf(`%d`, i*7)
		}
		sparse := ""
		if i%4 == 0 {
			sparse = fmt.Sprintf(`,"sparse_a":"only%d"`, i)
		}
		if i%5 == 0 {
			sparse += fmt.Sprintf(`,"sparse_b":%d`, i*3)
		}
		lines = append(lines, fmt.Sprintf(
			`{"str1":"x%d","num":%d,"f":%d.5,"flag":%t,"nested":{"a":"v%d","b":%d},"mixed":%s%s}`,
			i, i, i, i%2 == 0, i, i*2, mixed, sparse))
	}
	if _, err := db.LoadDocuments("fuse_t", mustDocs(t, lines...)); err != nil {
		t.Fatal(err)
	}
	return db
}

// resultKey flattens a result to a comparable string (order-preserving).
func resultKey(res *QueryResult) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		for _, d := range row {
			if d.IsNull() {
				sb.WriteString("∅|")
			} else {
				fmt.Fprintf(&sb, "%v|", d)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestFusedExtractMatchesRowMode pins the tentpole's correctness contract:
// for every query shape, the fused path (enable_batch=on) and the unfused
// reference plan return identical results.
func TestFusedExtractMatchesRowMode(t *testing.T) {
	db := fusionDB(t)
	queries := []string{
		`SELECT str1, num FROM fuse_t`,
		`SELECT str1, num, f, flag FROM fuse_t`,
		`SELECT "nested.a", "nested.b" FROM fuse_t`,
		`SELECT sparse_a, sparse_b FROM fuse_t`,
		`SELECT mixed, str1 FROM fuse_t`,
		`SELECT str1, num FROM fuse_t WHERE num >= 10`,
		`SELECT str1, num FROM fuse_t ORDER BY num DESC LIMIT 7`,
		`SELECT "nested.a", sparse_a, num FROM fuse_t WHERE flag = true`,
	}
	for _, q := range queries {
		batched, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s (batch): %v", q, err)
		}
		if _, err := db.RDBMS().Exec(`SET enable_batch = off`); err != nil {
			t.Fatal(err)
		}
		rowed, err := db.Query(q)
		if _, e2 := db.RDBMS().Exec(`SET enable_batch = on`); e2 != nil {
			t.Fatal(e2)
		}
		if err != nil {
			t.Fatalf("%s (reference): %v", q, err)
		}
		if resultKey(batched) != resultKey(rowed) {
			t.Errorf("%s: fused and reference results diverge\nbatch:\n%sreference:\n%s",
				q, resultKey(batched), resultKey(rowed))
		}
	}
}

// TestFusedExplainAnnotation pins the EXPLAIN surface: multi-key virtual
// projections show the fused operator with its key count, single-key ones
// do not.
func TestFusedExplainAnnotation(t *testing.T) {
	db := fusionDB(t)
	text, err := db.Explain(`SELECT str1, num, f FROM fuse_t`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "(fused extract: 3 keys)") {
		t.Errorf("EXPLAIN should show the fused operator:\n%s", text)
	}
	text, err = db.Explain(`SELECT str1 FROM fuse_t`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "fused extract") {
		t.Errorf("single-key query must not fuse:\n%s", text)
	}
}

// TestFusedWithDirtyColumn checks the COALESCE-for-dirty contract survives
// fusion: a partially materialized column keeps its lazy COALESCE while its
// sibling keys still fuse.
func TestFusedWithDirtyColumn(t *testing.T) {
	db := fusionDB(t)
	if err := db.SetMaterialized("fuse_t", "num", true); err != nil {
		t.Fatal(err)
	}
	mat := NewMaterializer(db)
	// Pause immediately: the pass creates the physical column but moves no
	// rows, leaving the column dirty (all values still in the reservoir).
	mat.Pause()
	if _, err := mat.RunOnce("fuse_t"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT str1, num, f FROM fuse_t WHERE num >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 {
		t.Fatalf("rows = %d, want 40", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[1].IsNull() {
			t.Fatalf("row %d: dirty column num lost its value", i)
		}
	}
	// Finish the pass; the fully materialized column becomes a plain
	// column reference and the remaining virtual keys still agree.
	mat.Resume()
	if _, err := mat.RunOnce("fuse_t"); err != nil {
		t.Fatal(err)
	}
	res2, err := db.Query(`SELECT str1, num, f FROM fuse_t WHERE num >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(res) != resultKey(res2) {
		t.Errorf("results changed across materialization:\nbefore:\n%safter:\n%s",
			resultKey(res), resultKey(res2))
	}
}

// TestPlanCacheHitPath pins the cache mechanics: the second execution of a
// statement is a hit, and every invalidation source — SET, ANALYZE, ALTER,
// a materializer pass — forces a re-plan.
func TestPlanCacheHitPath(t *testing.T) {
	db := fusionDB(t)
	q := `SELECT str1, num FROM fuse_t WHERE num >= 0`
	run := func() {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 40 {
			t.Fatalf("rows = %d, want 40", len(res.Rows))
		}
	}
	stats := func() (hits, misses uint64) {
		s := db.RDBMS().PlanCacheStats()
		return s.Hits, s.Misses
	}

	_, m0 := stats()
	run()
	if _, m := stats(); m != m0+1 {
		t.Fatalf("first run should miss: misses %d -> %d", m0, m)
	}
	h1, m1 := stats()
	run()
	if h, m := stats(); h != h1+1 || m != m1 {
		t.Fatalf("second run should hit: hits %d -> %d, misses %d -> %d", h1, h, m1, m)
	}

	invalidators := []struct {
		name string
		do   func()
	}{
		{"SET enable_batch", func() {
			if _, err := db.RDBMS().Exec(`SET enable_batch = off`); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _, _ = db.RDBMS().Exec(`SET enable_batch = on`) })
		}},
		{"ANALYZE", func() {
			if _, err := db.RDBMS().Exec(`ANALYZE fuse_t`); err != nil {
				t.Fatal(err)
			}
		}},
		{"ALTER TABLE", func() {
			if _, err := db.RDBMS().Exec(`ALTER TABLE fuse_t ADD COLUMN user_added int`); err != nil {
				t.Fatal(err)
			}
		}},
		{"materializer pass", func() {
			if err := db.SetMaterialized("fuse_t", "f", true); err != nil {
				t.Fatal(err)
			}
			if _, err := NewMaterializer(db).RunOnce("fuse_t"); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, inv := range invalidators {
		run() // ensure the statement is cached under the current state
		_, mBefore := stats()
		inv.do()
		run()
		if _, m := stats(); m != mBefore+1 {
			t.Errorf("%s did not force a re-plan: misses %d -> %d", inv.name, mBefore, m)
		}
	}
}

// TestPlanCacheConcurrentMaterialize races cached-plan execution against
// materializer passes flipping a column between storage modes; run under
// -race this pins both memory safety and result stability.
func TestPlanCacheConcurrentMaterialize(t *testing.T) {
	db := fusionDB(t)
	mat := NewMaterializer(db)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// One reader repeats a text (a plan-cache hit whenever the epoch has
	// not moved), the other never sends the same text twice, so each of
	// its statements is rewritten and planned anew — before, during or
	// after the pass's moves. Neither may see a row or a value missing.
	for _, fresh := range []bool{false, true} {
		wg.Add(1)
		go func(fresh bool) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				text := `SELECT str1, num FROM fuse_t`
				if fresh {
					text = fmt.Sprintf(`SELECT str1, num FROM fuse_t WHERE num > -%d`, n+1)
				}
				res, err := db.Query(text)
				if err != nil {
					t.Errorf("query during materialization: %v", err)
					return
				}
				if len(res.Rows) != 40 {
					t.Errorf("%s: %d rows during materialization, want 40", text, len(res.Rows))
					return
				}
				for i, row := range res.Rows {
					if row[1].IsNull() {
						t.Errorf("row %d: num NULL mid-materialization", i)
						return
					}
				}
			}
		}(fresh)
	}
	for pass := 0; pass < 40; pass++ {
		if err := db.SetMaterialized("fuse_t", "num", pass%2 == 0); err != nil {
			t.Fatal(err)
		}
		if _, err := mat.RunOnce("fuse_t"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
