package rdbms

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

func TestConcurrentReadersAndWriter(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE c (id integer, v integer)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO c VALUES `)
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i)
	}
	mustExec(t, db, sb.String())

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := db.Query(`SELECT COUNT(*) FROM c`)
				if err != nil {
					errs <- err
					return
				}
				if res.Rows[0][0].I != 500 {
					errs <- fmt.Errorf("count = %v", res.Rows[0][0])
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := db.Exec(fmt.Sprintf(`UPDATE c SET v = v + 1 WHERE id %% 2 = %d`, g)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every row got exactly 20 increments.
	res := mustExec(t, db, `SELECT SUM(v) FROM c`)
	want := int64(500*499/2 + 500*20)
	if res.Rows[0][0].I != want {
		t.Errorf("sum = %v, want %d", res.Rows[0][0], want)
	}
}

func TestUpdateRollbackOnError(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE r (v integer, s text)`)
	mustExec(t, db, `INSERT INTO r VALUES (1, '10'), (2, '20'), (3, 'boom'), (4, '40')`)
	// CAST fails on row 3 during the evaluation phase: nothing changes.
	if _, err := db.Exec(`UPDATE r SET v = CAST(s AS integer)`); err == nil {
		t.Fatal("expected cast failure")
	}
	res := mustExec(t, db, `SELECT SUM(v) FROM r`)
	if res.Rows[0][0].I != 10 {
		t.Errorf("sum = %v, want untouched 10", res.Rows[0][0])
	}
}

func TestSelfJoinWithAliasesSharesSnapshot(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE s (v integer)`)
	mustExec(t, db, `INSERT INTO s VALUES (1), (2), (3)`)
	res := mustExec(t, db, `SELECT COUNT(*) FROM s a, s b WHERE a.v <= b.v`)
	if res.Rows[0][0].I != 6 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

func TestErrorMessages(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE e (v integer)`)
	cases := []struct {
		sql, want string
	}{
		{`SELECT * FROM missing`, "does not exist"},
		{`SELECT nope FROM e`, "does not exist"},
		{`INSERT INTO e (nope) VALUES (1)`, "does not exist"},
		{`SELECT unknown_func(v) FROM e`, "does not exist"},
		{`CREATE TABLE e (v integer)`, "already exists"},
		{`ALTER TABLE e DROP COLUMN ghost`, "does not exist"},
		{`SELECT v FROM e GROUP BY v HAVING nope > 1`, "does not exist"},
	}
	for _, c := range cases {
		_, err := db.Exec(c.sql)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.sql, err, c.want)
		}
	}
}

func TestDropAndRecreateTable(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE d (v integer)`)
	mustExec(t, db, `INSERT INTO d VALUES (1)`)
	mustExec(t, db, `DROP TABLE d`)
	mustExec(t, db, `CREATE TABLE d (s text)`)
	res := mustExec(t, db, `SELECT COUNT(*) FROM d`)
	if res.Rows[0][0].I != 0 {
		t.Error("recreated table should be empty")
	}
}

func TestTruncateResetsSize(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE tr (v text)`)
	mustExec(t, db, `INSERT INTO tr VALUES ('hello'), ('world')`)
	size, _ := db.TableSizeBytes("tr")
	if size <= 0 {
		t.Fatal("size should be positive")
	}
	mustExec(t, db, `TRUNCATE tr`)
	size, _ = db.TableSizeBytes("tr")
	if size != 0 {
		t.Errorf("size after truncate = %d", size)
	}
}

func TestInsertRowsAndScanTable(t *testing.T) {
	db := Open()
	if err := db.CreateTable("p", []storage.Column{
		{Name: "v", Typ: types.Int},
	}, false); err != nil {
		t.Fatal(err)
	}
	rows := make([]storage.Row, 50)
	for i := range rows {
		rows[i] = storage.Row{types.NewInt(int64(i))}
	}
	if err := db.InsertRows("p", rows); err != nil {
		t.Fatal(err)
	}
	var n int
	db.ScanTable("p", func(_ storage.RowID, _ storage.Row) bool { n++; return true })
	if n != 50 {
		t.Errorf("scanned = %d", n)
	}
	// Page-level read-modify-write (the materializer's primitive): one row
	// of the page changes, the rest are kept, and the result is published.
	var target storage.RowID
	db.ScanTable("p", func(id storage.RowID, r storage.Row) bool {
		if r[0].I == 25 {
			target = id
			return false
		}
		return true
	})
	seen := 0
	ok, err := db.RewritePage("p", target.Page, func(r storage.Row) (storage.Row, error) {
		seen++
		if r[0].I != 25 {
			return nil, nil
		}
		return storage.Row{types.NewInt(1000)}, nil
	})
	if err != nil || !ok || seen != 50 {
		t.Fatalf("RewritePage = %v, %v after %d rows", ok, err, seen)
	}
	row, ok, _ := db.GetRow("p", target)
	if !ok || row[0].I != 1000 {
		t.Errorf("row = %v %v", row, ok)
	}
	// A failing rewrite leaves the page as it was; a page past the end is
	// reported, not an error.
	_, err = db.RewritePage("p", target.Page, func(r storage.Row) (storage.Row, error) {
		if r[0].I == 30 {
			return nil, fmt.Errorf("boom")
		}
		return storage.Row{types.NewInt(-1)}, nil
	})
	if err == nil {
		t.Fatal("RewritePage swallowed fn's error")
	}
	db.ScanTable("p", func(_ storage.RowID, r storage.Row) bool {
		if r[0].I == -1 {
			t.Errorf("a failed RewritePage changed a row")
			return false
		}
		return true
	})
	if ok, err := db.RewritePage("p", 1, nil); ok || err != nil {
		t.Errorf("RewritePage past the end = %v, %v", ok, err)
	}
}

func TestStatsStaleAfterAlter(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE st (v integer)`)
	mustExec(t, db, `INSERT INTO st VALUES (1), (2)`)
	mustExec(t, db, `ANALYZE st`)
	_, stats, _ := db.Table("st")
	if stats == nil {
		t.Fatal("stats missing after ANALYZE")
	}
	mustExec(t, db, `ALTER TABLE st ADD COLUMN extra text`)
	_, stats, _ = db.Table("st")
	if stats != nil {
		t.Error("stats should be invalidated by ALTER")
	}
}

func TestTotalSizeAcrossTables(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE a (v text)`)
	mustExec(t, db, `CREATE TABLE b (v text)`)
	mustExec(t, db, `INSERT INTO a VALUES ('x')`)
	mustExec(t, db, `INSERT INTO b VALUES ('y')`)
	sa, _ := db.TableSizeBytes("a")
	sb2, _ := db.TableSizeBytes("b")
	if db.TotalSizeBytes() != sa+sb2 {
		t.Errorf("total = %d, parts %d + %d", db.TotalSizeBytes(), sa, sb2)
	}
	if got := db.TableNames(); len(got) != 2 || got[0] != "a" {
		t.Errorf("names = %v", got)
	}
}
