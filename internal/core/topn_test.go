package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// topnLegs are the executor configurations a Top-N must agree across: the
// reference plan's full sort + LIMIT (no page is ever skipped) and the
// Top-N over a scan bounded by its page summaries.
var topnLegs = []struct {
	name  string
	stmts []string
}{
	{"reference", []string{`SET enable_batch = off`}},
	{"batch", []string{`SET enable_batch = on`}},
}

// runTopNLegs runs every query under every leg through query and fails on
// any divergence from the reference plan, order included. It returns the
// pages the batch leg skipped over all queries.
func runTopNLegs(t *testing.T, db *DB, phase string, query func(string) (*QueryResult, error), queries []string) int64 {
	t.Helper()
	var skipped int64
	for _, q := range queries {
		var ref string
		for _, leg := range topnLegs {
			mustSet(t, db, leg.stmts...)
			db.rdb.Pager().Reset()
			res, err := query(q)
			if err != nil {
				t.Fatalf("%s/%s: %s: %v", phase, leg.name, q, err)
			}
			key := resultKey(res)
			switch leg.name {
			case "reference":
				ref = key
				continue
			case "batch":
				sk, _ := db.rdb.Pager().ExecStats()
				skipped += sk
			}
			if key != ref {
				t.Errorf("%s/%s: %s diverges from the reference\nreference:\n%s\n%s:\n%s",
					phase, leg.name, q, ref, leg.name, key)
			}
		}
	}
	mustSet(t, db, topnLegs[0].stmts...)
	return skipped
}

// topnDB loads ten full pages and a 50-row tail whose keys are laid out so
// each wrong page bound changes an answer (page p holds ids 128p..128p+127):
//
//	k  DESC: the tail spans [2000, 2049], page 7 [1000, 1127], page 4
//	   [700, 827], page 9 [500, 627] and page 2 [373, 500], so LIMIT 434
//	   bounds at T = 500 and page 2's 500, tying the bound and arriving
//	   first, is in the result: a skip on max <= T drops it. The test
//	   deletes all but two of page 7's rows (LIMIT 308 is then the tie),
//	   after which LIMIT 60 bounds at 700 — a live count taken from the
//	   page's slots rather than its rows bounds it at 1000 and drops page 4.
//	   ASC: page 5 spans [3, 130] and page 1 [130, 257], so LIMIT 128
//	   bounds at 130 and page 1's 130 is the tie a skip on min >= T drops.
//	n  page 4 holds 0, 1, 2 and 125 NULLs, page 5 [3, 130], every other
//	   page 1000+id. ASC LIMIT 10 is 0..9: counting page 4's NULL rows
//	   bounds it at 2 and drops page 5. DESC LIMIT 10 is ten NULLs: skipping
//	   page 4 on its max drops them.
//	s  text, k/2 zero-padded: ties in pairs, the same layout as k.
func topnDB(t *testing.T) *DB {
	t.Helper()
	kBase := []int{200, 130, 373, 250, 700, 3, 300, 1000, 150, 500, 2000}
	db := Open(DefaultConfig())
	if err := db.CreateCollection("tn"); err != nil {
		t.Fatal(err)
	}
	docs := make([]*jsonx.Doc, 10*storage.PageCapacity+50)
	for i := range docs {
		p, j := i/storage.PageCapacity, i%storage.PageCapacity
		k := kBase[p] + j
		if p == 3 {
			k = kBase[p] + j%64
		}
		d := jsonx.NewDoc()
		d.Set("id", jsonx.IntValue(int64(i)))
		d.Set("k", jsonx.IntValue(int64(k)))
		d.Set("s", jsonx.StringValue(fmt.Sprintf("s%04d", k/2)))
		switch {
		case p == 4 && j < 3:
			d.Set("n", jsonx.IntValue(int64(j)))
		case p == 4:
		case p == 5:
			d.Set("n", jsonx.IntValue(int64(3+j)))
		default:
			d.Set("n", jsonx.IntValue(int64(1000+i)))
		}
		docs[i] = d
	}
	if _, err := db.LoadDocuments("tn", docs); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"id", "k", "n", "s"} {
		if err := db.SetMaterialized("tn", key, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewMaterializer(db).RunOnce("tn"); err != nil {
		t.Fatal(err)
	}
	if err := db.RDBMS().Analyze("tn"); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTopNBoundDifferential holds the Top-N page bound to the reference plan:
// NULL keys under DESC and ASC, an Int/Float-mixed column and a Text
// column, ties at the N-th key spanning pages, pages with deleted slots, a
// page un-frozen by UPDATE, LIMIT at and past the row count, multi-key
// orders, a column added by ALTER, and readers pinning snapshots while a
// writer appends pages.
func TestTopNBoundDifferential(t *testing.T) {
	t.Run("collection", func(t *testing.T) {
		db := topnDB(t)
		if heap, _, err := db.RDBMS().Table("tn"); err != nil || heap.NumFrozenPages() != 10 {
			t.Fatalf("want the ten full pages frozen (err %v)", err)
		}
		text, err := db.Explain(`SELECT id, k FROM tn ORDER BY k DESC LIMIT 10`)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, "Page Skip: top-n bound (tn.k DESC, 10)") {
			t.Fatalf("EXPLAIN shows no Top-N page bound:\n%s", text)
		}
		queries := []string{
			`SELECT id, k FROM tn ORDER BY k DESC LIMIT 1`,
			`SELECT id, k FROM tn ORDER BY k DESC LIMIT 10`,
			`SELECT id, k FROM tn ORDER BY k DESC LIMIT 60`,
			`SELECT id, k FROM tn ORDER BY k DESC LIMIT 308`,
			`SELECT id, k FROM tn ORDER BY k DESC LIMIT 434`,
			`SELECT id, k FROM tn ORDER BY k LIMIT 10`,
			`SELECT id, k FROM tn ORDER BY k LIMIT 128`,
			`SELECT id, k FROM tn ORDER BY k LIMIT 129`,
			`SELECT id, k, s FROM tn ORDER BY k DESC, id DESC LIMIT 434`,
			`SELECT id, k, s FROM tn ORDER BY k, s DESC LIMIT 128`,
			`SELECT id, n FROM tn ORDER BY n LIMIT 10`,
			`SELECT id, n FROM tn ORDER BY n DESC LIMIT 10`,
			`SELECT id, n FROM tn ORDER BY n DESC LIMIT 200`,
			`SELECT id, s FROM tn ORDER BY s DESC LIMIT 7`,
			`SELECT id, s FROM tn ORDER BY s LIMIT 300`,
			`SELECT id, k FROM tn ORDER BY k LIMIT 1330`,
			`SELECT id, k FROM tn ORDER BY k DESC LIMIT 100000`,
		}
		query := db.Query
		if skipped := runTopNLegs(t, db, "frozen", query, queries); skipped == 0 {
			t.Fatal("no Top-N skipped a page: the bound is untested")
		}
		// Page 7 keeps two of its rows; page 6 is un-frozen by an UPDATE
		// and has no summary until ANALYZE.
		for _, sql := range []string{
			`DELETE FROM tn WHERE id >= 898 AND id < 1024`,
			`UPDATE tn SET k = -5 WHERE id = 773`,
		} {
			if _, err := db.Query(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		runTopNLegs(t, db, "unfrozen", query, queries)
		if err := db.RDBMS().Analyze("tn"); err != nil {
			t.Fatal(err)
		}
		runTopNLegs(t, db, "reanalyzed", query, queries)
	})

	t.Run("mixed", func(t *testing.T) {
		db := Open(DefaultConfig())
		mustSet(t, db, `CREATE TABLE mx (id integer, v real, t text)`)
		// v holds Int and Float datums side by side (the storage layer keeps
		// what a loader hands it), equal across types on every third row,
		// over page windows that overlap so ties span pages.
		r := rand.New(rand.NewSource(22))
		perm := r.Perm(9)
		var rows []storage.Row
		for i := 0; i < 8*storage.PageCapacity+30; i++ {
			p, j := i/storage.PageCapacity, i%storage.PageCapacity
			x := int64(perm[p]*40 + j/3)
			v := types.NewInt(x)
			switch j % 3 {
			case 1:
				v = types.NewFloat(float64(x))
			case 2:
				v = types.NewFloat(float64(x) + 0.5)
			}
			rows = append(rows, storage.Row{types.NewInt(int64(i)), v, types.NewText(fmt.Sprintf("t%03d", x))})
		}
		if err := db.RDBMS().InsertRows("mx", rows); err != nil {
			t.Fatal(err)
		}
		var queries []string
		for _, n := range []int{1, 10, 43, 128, 129, 500, 2000} {
			queries = append(queries,
				fmt.Sprintf(`SELECT id, v FROM mx ORDER BY v DESC LIMIT %d`, n),
				fmt.Sprintf(`SELECT id, v FROM mx ORDER BY v LIMIT %d`, n),
				fmt.Sprintf(`SELECT id, t FROM mx ORDER BY t DESC LIMIT %d`, n))
		}
		queries = append(queries, `SELECT id, v, t FROM mx ORDER BY v DESC, id LIMIT 50`)
		if skipped := runTopNLegs(t, db, "mixed", db.RDBMS().Query, queries); skipped == 0 {
			t.Fatal("no Top-N skipped a page: the bound is untested")
		}
	})

	t.Run("altered", func(t *testing.T) {
		// A column added by ALTER is NULL on every row already stored; the
		// tail page's summary, carried over, must not forget that when later
		// inserts give its range a minimum and a maximum.
		db := Open(DefaultConfig())
		mustSet(t, db, `CREATE TABLE al (id integer, v integer)`)
		var rows []storage.Row
		for i := 0; i < 30; i++ {
			rows = append(rows, storage.Row{types.NewInt(int64(i)), types.NewInt(int64(i))})
		}
		if err := db.RDBMS().InsertRows("al", rows); err != nil {
			t.Fatal(err)
		}
		mustSet(t, db, `ALTER TABLE al ADD COLUMN w integer`)
		rows = rows[:0]
		for i := 30; i < 3*storage.PageCapacity; i++ {
			w := int64(i)
			if i >= storage.PageCapacity {
				w += 1000
			}
			rows = append(rows, storage.Row{types.NewInt(int64(i)), types.NewInt(int64(i)), types.NewInt(w)})
		}
		if err := db.RDBMS().InsertRows("al", rows); err != nil {
			t.Fatal(err)
		}
		queries := []string{
			`SELECT id, w FROM al ORDER BY w DESC LIMIT 40`,
			`SELECT id, w FROM al ORDER BY w LIMIT 40`,
		}
		if skipped := runTopNLegs(t, db, "altered", db.RDBMS().Query, queries); skipped == 0 {
			t.Fatal("no Top-N skipped a page: the bound is untested")
		}
	})

	t.Run("writer", func(t *testing.T) {
		// Readers pin a snapshot per statement while a writer appends pages
		// of keys better than any before them under DESC and worse under
		// ASC. Each DESC answer must be the one of a whole number of the
		// writer's statements; the ASC answer never moves.
		db := Open(DefaultConfig())
		mustSet(t, db, `CREATE TABLE wr (id integer, v integer)`)
		var rows []storage.Row
		for i := 0; i < 4*storage.PageCapacity; i++ {
			rows = append(rows, storage.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 300))})
		}
		if err := db.RDBMS().InsertRows("wr", rows); err != nil {
			t.Fatal(err)
		}
		const desc, asc = `SELECT id, v FROM wr ORDER BY v DESC LIMIT 10`, `SELECT id, v FROM wr ORDER BY v LIMIT 10`
		mustSet(t, db, topnLegs[0].stmts...)
		want := map[string]string{}
		for _, q := range []string{desc, asc} {
			res, err := db.RDBMS().Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want[q] = resultKey(res)
		}
		mustSet(t, db, topnLegs[1].stmts...)

		const batches, per = 64, 40
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			for b := 0; b < batches; b++ {
				var sb strings.Builder
				sb.WriteString(`INSERT INTO wr VALUES `)
				for j := 0; j < per; j++ {
					if j > 0 {
						sb.WriteString(", ")
					}
					seq := b*per + j
					fmt.Fprintf(&sb, "(%d, %d)", 100000+seq, 1000000+seq)
				}
				if _, err := db.RDBMS().Exec(sb.String()); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}()
		errs := make(chan string, 4)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					for _, q := range []string{desc, asc} {
						res, err := db.RDBMS().Query(q)
						if err != nil {
							errs <- fmt.Sprintf("%s: %v", q, err)
							return
						}
						if got := resultKey(res); got != want[q] && (q == asc || !appendedTop(res, per)) {
							errs <- fmt.Sprintf("%s under a writer:\n%s\nwant the base answer\n%s\nor the top of whole appended batches", q, got, want[q])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	})
}

// appendedTop reports whether res is ORDER BY v DESC LIMIT 10 over the
// writer's rows of a whole number of per-row statements: v = 1000000+seq
// for seq counting down from the last row of a statement.
func appendedTop(res *QueryResult, per int64) bool {
	if len(res.Rows) != 10 {
		return false
	}
	top := res.Rows[0][1].I - 1000000
	if top < 0 || (top+1)%per != 0 {
		return false
	}
	for i, row := range res.Rows {
		seq := top - int64(i)
		if row[0].I != 100000+seq || row[1].I != 1000000+seq {
			return false
		}
	}
	return true
}
