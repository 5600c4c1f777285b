package sqlparse

import (
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func mustSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	st, ok := mustParse(t, sql).(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) is %T, want SelectStmt", sql, mustParse(t, sql))
	}
	return st
}

func TestParseSimpleSelect(t *testing.T) {
	st := mustSelect(t, `SELECT a, b FROM t WHERE a = 1`)
	if len(st.Items) != 2 || len(st.From) != 1 || st.Where == nil {
		t.Fatalf("st = %+v", st)
	}
	if st.From[0].Name != "t" {
		t.Errorf("table = %q", st.From[0].Name)
	}
}

func TestParseStar(t *testing.T) {
	st := mustSelect(t, `SELECT * FROM t`)
	if !st.Items[0].Star || st.Items[0].Table != "" {
		t.Fatalf("items = %+v", st.Items)
	}
	st = mustSelect(t, `SELECT t1.*, x FROM t t1`)
	if !st.Items[0].Star || st.Items[0].Table != "t1" {
		t.Fatalf("items = %+v", st.Items)
	}
}

func TestParseQuotedIdentifiers(t *testing.T) {
	st := mustSelect(t, `SELECT "user.id", t."delete.status.id_str" FROM tweets t`)
	c0 := st.Items[0].Expr.(*ColumnRef)
	if c0.Name != "user.id" || c0.Table != "" {
		t.Errorf("c0 = %+v", c0)
	}
	c1 := st.Items[1].Expr.(*ColumnRef)
	if c1.Name != "delete.status.id_str" || c1.Table != "t" {
		t.Errorf("c1 = %+v", c1)
	}
}

func TestCaseFolding(t *testing.T) {
	st := mustSelect(t, `SELECT Foo FROM BAR`)
	if st.Items[0].Expr.(*ColumnRef).Name != "foo" {
		t.Error("unquoted identifiers should lowercase")
	}
	if st.From[0].Name != "bar" {
		t.Error("table names should lowercase")
	}
	// Quoted identifiers preserve case.
	st = mustSelect(t, `SELECT "Foo" FROM bar`)
	if st.Items[0].Expr.(*ColumnRef).Name != "Foo" {
		t.Error("quoted identifiers must preserve case")
	}
}

func TestParseAliases(t *testing.T) {
	st := mustSelect(t, `SELECT a AS x, b y FROM t AS u`)
	if st.Items[0].Alias != "x" || st.Items[1].Alias != "y" {
		t.Errorf("aliases = %q %q", st.Items[0].Alias, st.Items[1].Alias)
	}
	if st.From[0].Alias != "u" || st.From[0].EffectiveName() != "u" {
		t.Errorf("from = %+v", st.From[0])
	}
}

func TestJoinNormalization(t *testing.T) {
	// JOIN ... ON becomes FROM-list + WHERE conjunct.
	st := mustSelect(t, `SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y > 1`)
	if len(st.From) != 2 {
		t.Fatalf("from = %+v", st.From)
	}
	conj, ok := st.Where.(*BinaryExpr)
	if !ok || conj.Op != OpAnd {
		t.Fatalf("where = %+v", st.Where)
	}
	// INNER JOIN and chains.
	st = mustSelect(t, `SELECT * FROM a INNER JOIN b ON a.x = b.x JOIN c ON b.y = c.y`)
	if len(st.From) != 3 {
		t.Fatalf("from = %+v", st.From)
	}
	// CROSS JOIN adds no condition.
	st = mustSelect(t, `SELECT * FROM a CROSS JOIN b`)
	if len(st.From) != 2 || st.Where != nil {
		t.Fatalf("st = %+v", st)
	}
}

func TestOuterJoinRejected(t *testing.T) {
	if _, err := Parse(`SELECT * FROM a LEFT JOIN b ON a.x = b.x`); err == nil {
		t.Error("outer joins should be rejected")
	}
}

func TestPrecedence(t *testing.T) {
	// a = 1 OR b = 2 AND c = 3  parses as  a=1 OR (b=2 AND c=3)
	st := mustSelect(t, `SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3`)
	or := st.Where.(*BinaryExpr)
	if or.Op != OpOr {
		t.Fatalf("top = %v", or.Op)
	}
	if or.R.(*BinaryExpr).Op != OpAnd {
		t.Errorf("rhs = %v", or.R.(*BinaryExpr).Op)
	}
	// 1 + 2 * 3 parses as 1 + (2 * 3)
	st = mustSelect(t, `SELECT 1 + 2 * 3`)
	add := st.Items[0].Expr.(*BinaryExpr)
	if add.Op != OpAdd || add.R.(*BinaryExpr).Op != OpMul {
		t.Errorf("expr = %v", PrintExpr(add))
	}
	// NOT binds tighter than AND.
	st = mustSelect(t, `SELECT 1 FROM t WHERE NOT a AND b`)
	and := st.Where.(*BinaryExpr)
	if and.Op != OpAnd {
		t.Fatalf("top = %v", and.Op)
	}
	if _, ok := and.L.(*UnaryExpr); !ok {
		t.Errorf("lhs = %T", and.L)
	}
}

func TestPredicateForms(t *testing.T) {
	cases := map[string]func(Expr) bool{
		`a BETWEEN 1 AND 2`:     func(e Expr) bool { b, ok := e.(*BetweenExpr); return ok && !b.Not },
		`a NOT BETWEEN 1 AND 2`: func(e Expr) bool { b, ok := e.(*BetweenExpr); return ok && b.Not },
		`a IN (1, 2, 3)`:        func(e Expr) bool { b, ok := e.(*InListExpr); return ok && len(b.List) == 3 },
		`a NOT IN (1)`:          func(e Expr) bool { b, ok := e.(*InListExpr); return ok && b.Not },
		`a IS NULL`:             func(e Expr) bool { b, ok := e.(*IsNullExpr); return ok && !b.Not },
		`a IS NOT NULL`:         func(e Expr) bool { b, ok := e.(*IsNullExpr); return ok && b.Not },
		`a LIKE 'x%'`:           func(e Expr) bool { _, ok := e.(*LikeExpr); return ok },
		`a NOT LIKE 'x%'`:       func(e Expr) bool { b, ok := e.(*LikeExpr); return ok && b.Not },
		`'v' IN arr`:            func(e Expr) bool { b, ok := e.(*AnyExpr); return ok && b.Op == OpEq },
		`a = ANY(arr)`:          func(e Expr) bool { _, ok := e.(*AnyExpr); return ok },
	}
	for sql, check := range cases {
		st := mustSelect(t, `SELECT 1 FROM t WHERE `+sql)
		if !check(st.Where) {
			t.Errorf("WHERE %s parsed as %T: %s", sql, st.Where, PrintExpr(st.Where))
		}
	}
}

func TestFunctionCalls(t *testing.T) {
	st := mustSelect(t, `SELECT COUNT(*), SUM(x), coalesce(a, b, 1), COUNT(DISTINCT y) FROM t`)
	c := st.Items[0].Expr.(*FuncCall)
	if !c.Star || c.Name != "count" {
		t.Errorf("count(*) = %+v", c)
	}
	co := st.Items[2].Expr.(*FuncCall)
	if co.Name != "coalesce" || len(co.Args) != 3 {
		t.Errorf("coalesce = %+v", co)
	}
	cd := st.Items[3].Expr.(*FuncCall)
	if !cd.Distinct {
		t.Errorf("count distinct = %+v", cd)
	}
}

func TestLiterals(t *testing.T) {
	st := mustSelect(t, `SELECT 42, -7, 3.5, 1e3, 'it''s', TRUE, FALSE, NULL`)
	vals := make([]types.Datum, len(st.Items))
	for i, item := range st.Items {
		vals[i] = item.Expr.(*Literal).Val
	}
	if vals[0].I != 42 || vals[1].I != -7 {
		t.Errorf("ints = %v %v", vals[0], vals[1])
	}
	if vals[2].Float() != 3.5 || vals[3].Float() != 1000 {
		t.Errorf("floats = %v %v", vals[2], vals[3])
	}
	if vals[4].Text() != "it's" {
		t.Errorf("string = %q", vals[4].Text())
	}
	if !vals[5].Bool() || vals[6].Bool() {
		t.Errorf("bools = %v %v", vals[5], vals[6])
	}
	if !vals[7].IsNull() {
		t.Errorf("null = %v", vals[7])
	}
}

func TestCastParsing(t *testing.T) {
	st := mustSelect(t, `SELECT CAST(a AS integer), CAST('1.5' AS double precision)`)
	c := st.Items[0].Expr.(*CastExpr)
	if c.To != types.Int {
		t.Errorf("cast to = %v", c.To)
	}
	if st.Items[1].Expr.(*CastExpr).To != types.Float {
		t.Errorf("double precision = %v", st.Items[1].Expr.(*CastExpr).To)
	}
}

func TestGroupOrderLimit(t *testing.T) {
	st := mustSelect(t, `SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC, b ASC LIMIT 10`)
	if len(st.GroupBy) != 1 || st.Having == nil {
		t.Fatalf("st = %+v", st)
	}
	if !st.OrderBy[0].Desc || st.OrderBy[1].Desc {
		t.Errorf("order = %+v", st.OrderBy)
	}
	if st.Limit != 10 {
		t.Errorf("limit = %d", st.Limit)
	}
}

func TestDistinct(t *testing.T) {
	if !mustSelect(t, `SELECT DISTINCT a FROM t`).Distinct {
		t.Error("DISTINCT not parsed")
	}
}

func TestDMLStatements(t *testing.T) {
	ins := mustParse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`).(*InsertStmt)
	if len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("ins = %+v", ins)
	}
	up := mustParse(t, `UPDATE t SET a = a + 1, b = 'z' WHERE c IS NULL`).(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("up = %+v", up)
	}
	del := mustParse(t, `DELETE FROM t WHERE a = 1`).(*DeleteStmt)
	if del.Where == nil {
		t.Fatalf("del = %+v", del)
	}
}

func TestDDLStatements(t *testing.T) {
	ct := mustParse(t, `CREATE TABLE IF NOT EXISTS t (id bigint NOT NULL, name varchar(20), v double precision)`).(*CreateTableStmt)
	if !ct.IfNotExists || len(ct.Columns) != 3 {
		t.Fatalf("ct = %+v", ct)
	}
	if ct.Columns[0].Typ != types.Int || !ct.Columns[0].NotNull {
		t.Errorf("col0 = %+v", ct.Columns[0])
	}
	if ct.Columns[1].Typ != types.Text || ct.Columns[2].Typ != types.Float {
		t.Errorf("cols = %+v", ct.Columns)
	}
	at := mustParse(t, `ALTER TABLE t ADD COLUMN c text`).(*AlterTableStmt)
	if at.AddColumn == nil || at.AddColumn.Name != "c" {
		t.Fatalf("at = %+v", at)
	}
	at = mustParse(t, `ALTER TABLE t DROP COLUMN c`).(*AlterTableStmt)
	if at.DropColumn != "c" {
		t.Fatalf("at = %+v", at)
	}
	dt := mustParse(t, `DROP TABLE IF EXISTS t`).(*DropTableStmt)
	if !dt.IfExists {
		t.Fatalf("dt = %+v", dt)
	}
	if _, ok := mustParse(t, `TRUNCATE TABLE t`).(*TruncateStmt); !ok {
		t.Error("truncate")
	}
	if _, ok := mustParse(t, `ANALYZE t`).(*AnalyzeStmt); !ok {
		t.Error("analyze")
	}
	ex := mustParse(t, `EXPLAIN SELECT 1`).(*ExplainStmt)
	if _, ok := ex.Stmt.(*SelectStmt); !ok {
		t.Error("explain select")
	}
}

func TestComments(t *testing.T) {
	st := mustSelect(t, "SELECT a -- trailing comment\nFROM t /* block\ncomment */ WHERE a = 1")
	if len(st.Items) != 1 || st.Where == nil {
		t.Fatalf("st = %+v", st)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``, `SELECT`, `SELECT FROM t`, `SELECT a FROM`, `SELECT a WHERE`,
		`SELECT a FROM t WHERE`, `FROM t`, `SELECT a FROM t GROUP`,
		`SELECT * FROM (SELECT 1) x`, `INSERT INTO t`, `UPDATE t`,
		`CREATE TABLE t`, `SELECT 'unterminated`, `SELECT "unterminated`,
		`SELECT a FROM t LIMIT x`, `SELECT a BETWEEN 1`, `SELECT @`,
		`SELECT a FROM t; SELECT b FROM t`,
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestTrailingSemicolon(t *testing.T) {
	mustSelect(t, `SELECT 1;`)
}

func TestPrintRoundTrip(t *testing.T) {
	queries := []string{
		`SELECT a, b AS x FROM t WHERE a = 1 AND b <> 'y'`,
		`SELECT DISTINCT "user.id" FROM tweets t1, deletes d1 WHERE t1.id = d1."delete.id"`,
		`SELECT COUNT(*), SUM(v) FROM t GROUP BY k HAVING COUNT(*) > 1 ORDER BY k DESC LIMIT 5`,
		`SELECT * FROM t WHERE a BETWEEN 1 AND 2 OR b IN (1, 2) OR c LIKE 'x%' OR d IS NOT NULL`,
		`SELECT CAST(a AS real), coalesce(b, 'z') FROM t WHERE 'v' = ANY(arr)`,
		`INSERT INTO t (a) VALUES (1), (NULL)`,
		`UPDATE t SET a = -1.5 WHERE NOT b`,
		`DELETE FROM t WHERE a % 2 = 0`,
		`CREATE TABLE x (a integer NOT NULL, b text)`,
		`ALTER TABLE x ADD COLUMN "dotted.name" real`,
		`EXPLAIN SELECT 1 + 2`,
	}
	for _, sql := range queries {
		st1 := mustParse(t, sql)
		printed := Print(st1)
		st2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q -> %q failed: %v", sql, printed, err)
			continue
		}
		printed2 := Print(st2)
		if printed != printed2 {
			t.Errorf("print not stable:\n 1: %s\n 2: %s", printed, printed2)
		}
	}
}

func TestWalkAndRewrite(t *testing.T) {
	st := mustSelect(t, `SELECT a + b FROM t WHERE c = 1 AND d BETWEEN 2 AND 3`)
	var refs []string
	WalkExpr(st.Where, func(e Expr) bool {
		if cr, ok := e.(*ColumnRef); ok {
			refs = append(refs, cr.Name)
		}
		return true
	})
	if strings.Join(refs, ",") != "c,d" {
		t.Errorf("refs = %v", refs)
	}
	// Rewrite every column ref to a qualified form.
	out := RewriteExpr(st.Where, func(e Expr) Expr {
		if cr, ok := e.(*ColumnRef); ok {
			return &ColumnRef{Table: "t", Name: cr.Name}
		}
		return e
	})
	if !strings.Contains(PrintExpr(out), "t.c") {
		t.Errorf("rewritten = %s", PrintExpr(out))
	}
	// Original is unchanged.
	if strings.Contains(PrintExpr(st.Where), "t.c") {
		t.Error("RewriteExpr mutated the input")
	}
}

func TestNegativeNumberFolding(t *testing.T) {
	st := mustSelect(t, `SELECT -5, -2.5`)
	if st.Items[0].Expr.(*Literal).Val.I != -5 {
		t.Errorf("int = %v", st.Items[0].Expr)
	}
	if st.Items[1].Expr.(*Literal).Val.Float() != -2.5 {
		t.Errorf("float = %v", st.Items[1].Expr)
	}
}

func TestConcatOperator(t *testing.T) {
	st := mustSelect(t, `SELECT a || 'x' || b FROM t`)
	top := st.Items[0].Expr.(*BinaryExpr)
	if top.Op != OpConcat {
		t.Errorf("op = %v", top.Op)
	}
}

func TestParseSet(t *testing.T) {
	cases := []struct {
		sql  string
		name string
		val  types.Datum
	}{
		{`SET batch_size = 512`, "batch_size", types.NewInt(512)},
		{`SET batch_size TO 64`, "batch_size", types.NewInt(64)},
		{`SET ENABLE_BATCH = off`, "enable_batch", types.NewBool(false)},
		{`SET enable_batch = on`, "enable_batch", types.NewBool(true)},
		{`SET enable_batch = TRUE`, "enable_batch", types.NewBool(true)},
		{`SET enable_batch = FALSE`, "enable_batch", types.NewBool(false)},
		{`SET search_path = 'public'`, "search_path", types.NewText("public")},
	}
	for _, c := range cases {
		st, ok := mustParse(t, c.sql).(*SetStmt)
		if !ok {
			t.Fatalf("Parse(%q) = %T", c.sql, mustParse(t, c.sql))
		}
		if st.Name != c.name {
			t.Errorf("%q: name = %q, want %q", c.sql, st.Name, c.name)
		}
		if st.Value.Typ != c.val.Typ || st.Value.IsNull() != c.val.IsNull() {
			t.Errorf("%q: value type = %v, want %v", c.sql, st.Value.Typ, c.val.Typ)
		}
		if string(st.Value.HashKey(nil)) != string(c.val.HashKey(nil)) {
			t.Errorf("%q: value = %v, want %v", c.sql, st.Value, c.val)
		}
		// Print must round-trip through Parse.
		st2, err := Parse(Print(st))
		if err != nil {
			t.Fatalf("round-trip Parse(%q): %v", Print(st), err)
		}
		if s2 := st2.(*SetStmt); s2.Name != st.Name ||
			string(s2.Value.HashKey(nil)) != string(st.Value.HashKey(nil)) {
			t.Errorf("%q: round-trip mismatch: %v", c.sql, s2)
		}
	}
	for _, bad := range []string{`SET`, `SET batch_size`, `SET batch_size =`} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should error", bad)
		}
	}
}
