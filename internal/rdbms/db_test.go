package rdbms

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE users (id integer NOT NULL, name text, age integer, score real, active boolean)`)
	mustExec(t, db, `INSERT INTO users (id, name, age, score, active) VALUES
		(1, 'alice', 30, 9.5, TRUE),
		(2, 'bob', 25, 7.25, FALSE),
		(3, 'carol', 35, 8.0, TRUE),
		(4, 'dave', 25, NULL, TRUE),
		(5, NULL, 40, 5.5, FALSE)`)
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT name, age FROM users WHERE age > 28 ORDER BY age`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	if res.Rows[0][0].Text() != "alice" || res.Rows[0][1].I != 30 {
		t.Errorf("row 0 = %v, want alice/30", res.Rows[0])
	}
	if res.Rows[2][1].I != 40 {
		t.Errorf("last age = %v, want 40", res.Rows[2][1])
	}
	if res.Columns[0] != "name" || res.Columns[1] != "age" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT * FROM users WHERE id = 2`)
	if len(res.Rows) != 1 || len(res.Rows[0]) != 5 {
		t.Fatalf("rows=%v", res.Rows)
	}
	if res.Rows[0][1].Text() != "bob" {
		t.Errorf("name = %v", res.Rows[0][1])
	}
}

func TestWherePredicates(t *testing.T) {
	db := newTestDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{`age BETWEEN 25 AND 30`, 3},
		{`age NOT BETWEEN 25 AND 30`, 2},
		{`name IS NULL`, 1},
		{`name IS NOT NULL`, 4},
		{`score IS NULL`, 1},
		{`age IN (25, 40)`, 3},
		{`age NOT IN (25, 40)`, 2},
		{`name LIKE 'a%'`, 1},
		{`name LIKE '%o%'`, 2},
		{`NOT active`, 2},
		{`active AND age > 30`, 1},
		{`age = 25 OR age = 40`, 3},
		{`score > 7.0 AND active`, 2},
	}
	for _, c := range cases {
		res := mustExec(t, db, `SELECT id FROM users WHERE `+c.where)
		if len(res.Rows) != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestAggregates(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT COUNT(*), COUNT(score), SUM(age), AVG(age), MIN(age), MAX(age) FROM users`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r[0].I != 5 || r[1].I != 4 || r[2].I != 155 {
		t.Errorf("count/count(score)/sum = %v %v %v", r[0], r[1], r[2])
	}
	if r[3].Float() != 31.0 {
		t.Errorf("avg = %v, want 31", r[3])
	}
	if r[4].I != 25 || r[5].I != 40 {
		t.Errorf("min/max = %v %v", r[4], r[5])
	}
}

func TestGroupBy(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT age, COUNT(*) FROM users GROUP BY age ORDER BY age`)
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d, want 4: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].I != 25 || res.Rows[0][1].I != 2 {
		t.Errorf("first group = %v", res.Rows[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT age, COUNT(*) AS n FROM users GROUP BY age HAVING COUNT(*) > 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 25 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT DISTINCT age FROM users ORDER BY age`)
	if len(res.Rows) != 4 {
		t.Fatalf("distinct ages = %d, want 4", len(res.Rows))
	}
}

func TestOrderByDesc(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT id FROM users ORDER BY score DESC`)
	// NULL score orders first in DESC (NULLS FIRST on desc).
	if res.Rows[0][0].I != 4 {
		t.Errorf("first row id = %v (rows=%v)", res.Rows[0][0], res.Rows)
	}
	if res.Rows[1][0].I != 1 {
		t.Errorf("second row id = %v, want 1 (highest score)", res.Rows[1][0])
	}
}

func TestLimit(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT id FROM users ORDER BY id LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[1][0].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoin(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE orders (user_id integer, amount real)`)
	mustExec(t, db, `INSERT INTO orders VALUES (1, 10.0), (1, 20.0), (2, 5.0), (99, 1.0)`)
	res := mustExec(t, db, `SELECT u.name, o.amount FROM users u, orders o WHERE u.id = o.user_id ORDER BY o.amount`)
	if len(res.Rows) != 3 {
		t.Fatalf("join rows = %d, want 3: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].Text() != "bob" || res.Rows[0][1].Float() != 5.0 {
		t.Errorf("first = %v", res.Rows[0])
	}
	// JOIN ... ON syntax must agree.
	res2 := mustExec(t, db, `SELECT u.name, o.amount FROM users u JOIN orders o ON u.id = o.user_id ORDER BY o.amount`)
	if len(res2.Rows) != 3 {
		t.Fatalf("JOIN ON rows = %d", len(res2.Rows))
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE a (x integer)`)
	mustExec(t, db, `CREATE TABLE b (x integer, y integer)`)
	mustExec(t, db, `CREATE TABLE c (y integer)`)
	mustExec(t, db, `INSERT INTO a VALUES (1), (2), (3)`)
	mustExec(t, db, `INSERT INTO b VALUES (1, 10), (2, 20), (3, 30)`)
	mustExec(t, db, `INSERT INTO c VALUES (10), (30)`)
	res := mustExec(t, db, `SELECT a.x, c.y FROM a, b, c WHERE a.x = b.x AND b.y = c.y ORDER BY a.x`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].I != 1 || res.Rows[1][1].I != 30 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSelfJoin(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT t1.name, t2.name FROM users t1, users t2 WHERE t1.age = t2.age AND t1.id < t2.id`)
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "bob" || res.Rows[0][1].Text() != "dave" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUpdate(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `UPDATE users SET age = age + 1 WHERE active`)
	if res.RowsAffected != 3 {
		t.Fatalf("affected = %d, want 3", res.RowsAffected)
	}
	check := mustExec(t, db, `SELECT age FROM users WHERE id = 1`)
	if check.Rows[0][0].I != 31 {
		t.Errorf("age = %v, want 31", check.Rows[0][0])
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `DELETE FROM users WHERE age = 25`)
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	left := mustExec(t, db, `SELECT COUNT(*) FROM users`)
	if left.Rows[0][0].I != 3 {
		t.Errorf("remaining = %v", left.Rows[0][0])
	}
}

// TestDMLAcrossRuns: UPDATE and DELETE read the heap DefaultBatchSize rows
// at a time, and their filters and SET expressions run on the batch
// evaluator, where a COALESCE, an OR and an IN list skip exactly what SQL
// skips: each statement here divides by zero on the rows it must not
// evaluate that operand for.
func TestDMLAcrossRuns(t *testing.T) {
	const n = 2500 // three runs
	db := Open()
	mustExec(t, db, `CREATE TABLE d (id integer, v integer, w integer)`)
	rows := make([]storage.Row, n)
	for i := range rows {
		// w is 7 where v is 0, NULL elsewhere.
		w := types.NewNull(types.Int)
		if i%10 == 0 {
			w = types.NewInt(7)
		}
		rows[i] = storage.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 10)), w}
	}
	if err := db.InsertRows("d", rows); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql, check string
		affected   int64
		want       int64
	}{
		{`UPDATE d SET w = COALESCE(w, 90 / v)`, `SELECT SUM(w) FROM d`, n,
			n / 10 * (7 + 90 + 45 + 30 + 22 + 18 + 15 + 12 + 11 + 10)},
		{`DELETE FROM d WHERE v = 0 OR 10 / v = 10`, `SELECT COUNT(*) FROM d`, n / 5, n - n/5},
		{`UPDATE d SET w = 0 WHERE v IN (9, 100 / (v - 9))`, `SELECT COUNT(*) FROM d WHERE w = 0`, n / 10, n / 10},
	} {
		if res := mustExec(t, db, c.sql); res.RowsAffected != c.affected {
			t.Errorf("%s: %d rows, want %d", c.sql, res.RowsAffected, c.affected)
		}
		if got := mustExec(t, db, c.check).Rows[0][0].I; got != c.want {
			t.Errorf("after %s: %s = %d, want %d", c.sql, c.check, got, c.want)
		}
	}
}

func TestAlterTable(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `ALTER TABLE users ADD COLUMN city text`)
	res := mustExec(t, db, `SELECT city FROM users WHERE id = 1`)
	if !res.Rows[0][0].IsNull() {
		t.Errorf("new column should be NULL, got %v", res.Rows[0][0])
	}
	mustExec(t, db, `UPDATE users SET city = 'nyc' WHERE id = 1`)
	res = mustExec(t, db, `SELECT city FROM users WHERE id = 1`)
	if res.Rows[0][0].Text() != "nyc" {
		t.Errorf("city = %v", res.Rows[0][0])
	}
	mustExec(t, db, `ALTER TABLE users DROP COLUMN city`)
	if _, err := db.Exec(`SELECT city FROM users`); err == nil {
		t.Error("expected error selecting dropped column")
	}
}

func TestExplainAndAnalyze(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `ANALYZE users`)
	res := mustExec(t, db, `EXPLAIN SELECT DISTINCT age FROM users`)
	if res.ExplainText == "" {
		t.Fatal("empty explain")
	}
	if !strings.Contains(res.ExplainText, "Seq Scan on users") {
		t.Errorf("explain missing scan:\n%s", res.ExplainText)
	}
}

func TestAggregatePlanSwitchesOnStats(t *testing.T) {
	// The Table 2 mechanism in miniature: a DISTINCT over a high-cardinality
	// column uses sort-based Unique when statistics reveal the cardinality,
	// and HashAggregate when the column is hidden behind an opaque function.
	db := Open()
	mustExec(t, db, `CREATE TABLE big (v integer, s text)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO big VALUES `)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'x%d')", i, i)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, `ANALYZE big`)
	db.PlanConfig().HashAggMaxGroups = 1000

	withStats := mustExec(t, db, `EXPLAIN SELECT DISTINCT v FROM big`)
	if !strings.Contains(withStats.ExplainText, "Unique") {
		t.Errorf("with stats, want Unique:\n%s", withStats.ExplainText)
	}
	opaque := mustExec(t, db, `EXPLAIN SELECT DISTINCT abs(v) FROM big`)
	if !strings.Contains(opaque.ExplainText, "HashAggregate") {
		t.Errorf("opaque expr, want HashAggregate:\n%s", opaque.ExplainText)
	}
}

func TestUDF(t *testing.T) {
	db := newTestDB(t)
	db.RegisterFunc(doubleFunc())
	res := mustExec(t, db, `SELECT double_it(age) FROM users WHERE id = 1`)
	if res.Rows[0][0].I != 60 {
		t.Fatalf("double_it = %v", res.Rows[0][0])
	}
}

func TestTypeErrorOnBadCast(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`SELECT CAST(name AS integer) FROM users WHERE id = 1`); err == nil {
		t.Error("expected cast error for 'alice' -> integer")
	}
}

func TestMultiTypeComparisonError(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`SELECT id FROM users WHERE name > 5`); err == nil {
		t.Error("expected comparison error between text and integer")
	}
}

func TestSelectNoFrom(t *testing.T) {
	db := Open()
	res := mustExec(t, db, `SELECT 1 + 2 AS three, 'x' || 'y'`)
	if res.Rows[0][0].I != 3 || res.Rows[0][1].Text() != "xy" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestInsertRollbackOnError(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (a integer NOT NULL)`)
	_, err := db.Exec(`INSERT INTO t VALUES (1), (NULL), (3)`)
	if err == nil {
		t.Fatal("expected NOT NULL violation")
	}
	res := mustExec(t, db, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].I != 0 {
		t.Errorf("partial insert not rolled back: count = %v", res.Rows[0][0])
	}
}

func doubleFunc() *exec.FuncDef {
	return &exec.FuncDef{
		Name: "double_it", MinArgs: 1, MaxArgs: 1,
		Eval: func(args []types.Datum) (types.Datum, error) {
			if args[0].IsNull() {
				return args[0], nil
			}
			return types.NewInt(args[0].I * 2), nil
		},
	}
}

func TestOrderByOrdinal(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT name, age FROM users WHERE name IS NOT NULL ORDER BY 2 DESC, 1 LIMIT 2`)
	if res.Rows[0][1].I != 35 || res.Rows[1][1].I != 30 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := db.Exec(`SELECT name FROM users ORDER BY 9`); err == nil {
		t.Error("out-of-range ordinal should error")
	}
}

// Every SET validation failure carries the uniform "rdbms: SET <name>:"
// prefix so clients see which knob was rejected, whether the variable is
// unknown, mistyped, or out of range.
func TestSetValidationErrors(t *testing.T) {
	db := newTestDB(t)
	cases := []struct {
		sql  string
		want []string
	}{
		{`SET nope = 1`, []string{"rdbms: SET nope:", "unrecognized configuration parameter",
			"(known: enable_batch, max_parallel_workers)"}},
		// The removed knobs are unknown names like any other.
		{`SET batch_size = 256`, []string{"rdbms: SET batch_size:", "unrecognized configuration parameter"}},
		{`SET enable_page_skip = off`, []string{"rdbms: SET enable_page_skip:", "unrecognized configuration parameter"}},
		{`SET enable_striped = off`, []string{"rdbms: SET enable_striped:", "unrecognized configuration parameter"}},
		{`SET max_parallel_workers = 'abc'`, []string{"rdbms: SET max_parallel_workers:", "requires an integer value"}},
		{`SET max_parallel_workers = 1025`, []string{"rdbms: SET max_parallel_workers:", "outside the valid range [0, 1024]"}},
		{`SET max_parallel_workers = 1048576`, []string{"rdbms: SET max_parallel_workers:", "outside the valid range [0, 1024]"}},
		{`SET enable_batch = 42`, []string{"rdbms: SET enable_batch:", "requires a boolean value"}},
		{`SET enable_batch = 'yes'`, []string{"rdbms: SET enable_batch:", "requires a boolean value"}},
	}
	for _, tc := range cases {
		_, err := db.Exec(tc.sql)
		if err == nil {
			t.Errorf("%s: expected a validation error, got none", tc.sql)
			continue
		}
		for _, frag := range tc.want {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q does not mention %q", tc.sql, err, frag)
			}
		}
	}
}

// TestSetWorkerCountIsInert pins the one session variable that
// shapes nothing: every statement runs on one goroutine, and
// max_parallel_workers is still accepted over its old range (clients such
// as the benchmark's oracle send it) but leaves the plan, its EXPLAIN text
// and the plan-cache key as they were — the next statement is a cache hit.
func TestSetWorkerCountIsInert(t *testing.T) {
	db := newTestDB(t)
	const text = `SELECT name FROM users WHERE age > 20 ORDER BY name`
	explain := func() string {
		t.Helper()
		return mustExec(t, db, `EXPLAIN `+text).ExplainText
	}
	run := func() {
		t.Helper()
		_, err := db.ExecSelectCached(CachedSelect{Text: text, Shape: text},
			func(bool) (*sqlparse.SelectStmt, error) {
				st, err := sqlparse.Parse(text)
				if err != nil {
					return nil, err
				}
				return st.(*sqlparse.SelectStmt), nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	wantExplain, wantKey := explain(), *db.flags.Load()
	run() // the miss that caches the plan
	for _, n := range []string{"0", "1", "1024"} {
		mustExec(t, db, `SET max_parallel_workers = `+n)
		if got := explain(); got != wantExplain {
			t.Errorf("max_parallel_workers = %s: EXPLAIN\n%s\nwant\n%s", n, got, wantExplain)
		}
		if got := *db.flags.Load(); got != wantKey {
			t.Errorf("max_parallel_workers = %s: plan-cache flags %q, want %q", n, got, wantKey)
		}
		before := db.PlanCacheStats()
		run()
		if after := db.PlanCacheStats(); after.Hits-before.Hits != 1 || after.Misses != before.Misses {
			t.Errorf("max_parallel_workers = %s: %d hits, %d misses; want the cached plan hit",
				n, after.Hits-before.Hits, after.Misses-before.Misses)
		}
	}
}

func TestSetSessionKnobs(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `EXPLAIN SELECT name FROM users WHERE age > 20`)
	if !strings.Contains(res.ExplainText, "(batch)") {
		t.Errorf("default explain is not batch:\n%s", res.ExplainText)
	}
	// enable_batch = off plans the reference (core's
	// TestReferencePlanTakesNoShortcut pins what it is); same answers.
	mustExec(t, db, `SET enable_batch = off`)
	reference := mustExec(t, db, `SELECT id FROM users ORDER BY id`)
	mustExec(t, db, `SET enable_batch = on`)
	batchMode := mustExec(t, db, `SELECT id FROM users ORDER BY id`)
	if len(reference.Rows) != len(batchMode.Rows) {
		t.Fatalf("reference %d rows, default %d", len(reference.Rows), len(batchMode.Rows))
	}
	for i := range reference.Rows {
		if reference.Rows[i][0].I != batchMode.Rows[i][0].I {
			t.Errorf("row %d: %v vs %v", i, reference.Rows[i], batchMode.Rows[i])
		}
	}
	// Errors: unknown knob, wrong type, out of range.
	for _, bad := range []string{
		`SET nonsense = 1`,
		`SET max_parallel_workers = 'huge'`,
		`SET max_parallel_workers = 1025`,
		`SET enable_batch = 3`,
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("Exec(%q) should error", bad)
		}
	}
}

// brokenSegment is a ColumnSegment whose values cannot be decoded.
type brokenSegment struct{ n int }

var errBrokenSegment = errors.New("segment decode failed")

func (s brokenSegment) NumRows() int      { return s.n }
func (s brokenSegment) AttrIDs() []uint32 { return nil }
func (s brokenSegment) SizeBytes() int64  { return int64(s.n) }
func (s brokenSegment) Values([]types.Datum, int, *storage.ValueArena) error {
	return errBrokenSegment
}

// TestScanTableAndGetRowReportDecodeErrors: ScanTable and GetRow pass a
// frozen page's decode error on instead of dropping the page's rows or
// calling a row on it absent.
func TestScanTableAndGetRowReportDecodeErrors(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE f (v integer)`)
	rows := make([]storage.Row, storage.PageCapacity+3)
	for i := range rows {
		rows[i] = storage.Row{types.NewInt(int64(i))}
	}
	if err := db.InsertRows("f", rows); err != nil {
		t.Fatal(err)
	}
	heap, _, err := db.Table("f")
	if err != nil {
		t.Fatal(err)
	}
	heap.SetColumnSegmenter(func(_ int, vals []types.Datum) (storage.ColumnSegment, error) {
		return brokenSegment{n: len(vals)}, nil
	})
	if err := db.Analyze("f"); err != nil {
		t.Fatal(err)
	}
	if db.FrozenPages() != 1 {
		t.Fatalf("%d frozen pages, want 1", db.FrozenPages())
	}
	if err := db.ScanTable("f", func(storage.RowID, storage.Row) bool { return true }); !errors.Is(err, errBrokenSegment) {
		t.Errorf("ScanTable = %v, want the decode error", err)
	}
	if _, ok, err := db.GetRow("f", storage.RowID{Page: 0, Slot: 1}); ok || !errors.Is(err, errBrokenSegment) {
		t.Errorf("GetRow on the frozen page = %v, %v, want the decode error", ok, err)
	}
	if r, ok, err := db.GetRow("f", storage.RowID{Page: 1, Slot: 2}); err != nil || !ok || r[0].I != int64(storage.PageCapacity+2) {
		t.Errorf("GetRow on the tail = %v, %v, %v", r, ok, err)
	}
}
