package sqlparse

import (
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// bindShape puts a shape's parameter values back into its parsed form, so
// it can be printed beside the parse of the statement's own text. It
// reports a parameter whose slot or type does not match params.
func bindShape(t testing.TB, st Statement, params []types.Datum) Statement {
	sel, ok := st.(*SelectStmt)
	if !ok {
		return st
	}
	seen := 0
	bind := func(e Expr) Expr {
		return RewriteExpr(e, func(n Expr) Expr {
			p, ok := n.(*Param)
			if !ok {
				return n
			}
			if p.Slot < 0 || p.Slot >= len(params) || params[p.Slot].Typ != p.Typ {
				t.Fatalf("parameter %s does not match the scanned values %v", PrintExpr(p), params)
			}
			seen++
			return &Literal{Val: params[p.Slot]}
		})
	}
	out := *sel
	out.Items = make([]SelectItem, len(sel.Items))
	for i, it := range sel.Items {
		it.Expr = bind(it.Expr)
		out.Items[i] = it
	}
	out.Where = bind(sel.Where)
	out.GroupBy = make([]Expr, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		out.GroupBy[i] = bind(g)
	}
	out.Having = bind(sel.Having)
	out.OrderBy = make([]OrderItem, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		out.OrderBy[i] = OrderItem{Expr: bind(o.Expr), Desc: o.Desc}
	}
	if seen != len(params) {
		t.Fatalf("shape parses to %d parameters, scan lifted %d", seen, len(params))
	}
	return &out
}

// checkShape holds ScanShape to Parse on one text: a shape that scans
// parses, with its values bound, to exactly what the text parses to, and a
// text whose scan fails does not parse.
func checkShape(t testing.TB, sql string) Shape {
	sh, serr := ScanShape(sql)
	want, werr := Parse(sql)
	if serr != nil {
		if werr == nil {
			t.Fatalf("ScanShape(%q) failed (%v) but Parse succeeds", sql, serr)
		}
		return sh
	}
	got, gerr := ParseShape(sh.Text)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%q: Parse error %v, ParseShape(%q) error %v", sql, werr, sh.Text, gerr)
	}
	if werr != nil {
		return sh
	}
	if g, w := Print(bindShape(t, got, sh.Params)), Print(want); g != w {
		t.Fatalf("%q: shape %q binds to\n  %s\nwant\n  %s", sql, sh.Text, g, w)
	}
	return sh
}

var shapeSeeds = []string{
	// The NoBench analytic texts.
	`SELECT str1, num FROM nobench_main`,
	`SELECT nested_obj.str, nested_obj.num FROM nobench_main`,
	`SELECT sparse_110, sparse_119 FROM nobench_main`,
	`SELECT sparse_110, sparse_220 FROM nobench_main`,
	`SELECT * FROM nobench_main WHERE str1 = 'GBRDCMBQGEYTAMJQ'`,
	`SELECT * FROM nobench_main WHERE num BETWEEN 1000 AND 1020`,
	`SELECT * FROM nobench_main WHERE dyn1 BETWEEN 1000 AND 1020`,
	`SELECT * FROM nobench_main WHERE 'GBRDCMBQGEYTAMJQ' = ANY(nested_arr)`,
	`SELECT * FROM nobench_main WHERE sparse_500 = 'GBRDCMBQGEYTAMJQ'`,
	`SELECT thousandth, COUNT(*) FROM nobench_main WHERE num BETWEEN 1000 AND 1020 GROUP BY thousandth`,
	`SELECT * FROM nobench_main AS l, nobench_main AS r WHERE l.nested_obj.str = r.str1 AND l.num BETWEEN 1000 AND 1020`,
	`SELECT * FROM nobench_main WHERE matches('str1', 'GBRDCMBQGEYTAMJQ')`,
	`SELECT COUNT(*) FROM nobench_main WHERE num BETWEEN 1000 AND 1020`,
	`SELECT DISTINCT "user.id" FROM tweets WHERE retweet_count > 2`,
	`SELECT "user.lang", COUNT(*) FROM tweets GROUP BY "user.lang" ORDER BY 2 DESC LIMIT 10`,
	// Negative numbers, quotes, number spellings.
	`SELECT * FROM t WHERE num > -5`,
	`SELECT * FROM t WHERE num > - 5 AND num < -2.5`,
	`SELECT * FROM t WHERE num = - -5`,
	`SELECT * FROM t WHERE num = - +5`,
	`SELECT * FROM t WHERE num = 5 - -3`,
	`SELECT * FROM t WHERE num = -9223372036854775808`,
	`SELECT * FROM t WHERE str1 = 'it''s'`,
	`SELECT * FROM t WHERE str1 = ''`,
	`SELECT * FROM t WHERE num = 1e3 OR num = 1000 OR num = 1000.0 OR num = .5`,
	`SELECT * FROM t WHERE num = 1e999`,
	`SELECT * FROM t WHERE num = 1e`,
	`SELECT * FROM t WHERE num IN (1, 2, -3)`,
	`SELECT _id FROM nobench_main WHERE num = 7 OR str1 = 'GBRDCMBQGEYTAMJQ'`,
	`SELECT * FROM t WHERE (num < 5 OR num > 9) AND str1 NOT IN ('a', 'b', NULL)`,
	`SELECT * FROM t WHERE num NOT IN (-1, 2.5) OR coalesce(num, 3) IN (3, 4)`,
	`SELECT * FROM t WHERE str1 LIKE 'ab%' AND str2 NOT LIKE '%z'`,
	`SELECT * FROM t WHERE 5 = num`,
	`SELECT * FROM t WHERE num = 5 LIMIT 10`,
	`SELECT num, 1 FROM t WHERE num = 5 ORDER BY 1`,
	`SELECT * FROM t WHERE sinew_extract_int(data, 'num') = 7`,
	`SELECT * FROM t WHERE CAST('5' AS integer) = num AND -'a' = str1`,
	`SELECT * FROM t WHERE (num = 5) AND (NOT num = 6)`,
	`SELECT * FROM t WHERE num IS NULL OR num - 1 > 2`,
	`SELECT * FROM t WHERE num=5and str1='x'`,
	`SELECT * FROM t WHERE str1 = $i1`,
	`SELECT * FROM t WHERE str1 = 'a'5`,
	`UPDATE t SET a = 5 WHERE b = 6`,
	`EXPLAIN SELECT * FROM t WHERE num = 5`,
	`SELECT a FROM t JOIN u ON t.a = 5 WHERE u.b = 6;`,
}

func TestShapeMatchesParse(t *testing.T) {
	for _, sql := range shapeSeeds {
		checkShape(t, sql)
	}
}

// TestShapeLiftsWhereLiterals pins which literals a shape lifts and how it
// keys them.
func TestShapeLiftsWhereLiterals(t *testing.T) {
	cases := []struct {
		sql, shape string
		params     []types.Datum
	}{
		{`SELECT * FROM t WHERE str1 = 'it''s'`, `SELECT * FROM t WHERE str1 =  $t1 `, []types.Datum{types.NewText("it's")}},
		{`SELECT * FROM t WHERE num BETWEEN -5 AND 1e3`, `SELECT * FROM t WHERE num BETWEEN  $i1  AND  $f2 `, []types.Datum{types.NewInt(-5), types.NewFloat(1000)}},
		{`SELECT num, 1 FROM t WHERE sinew_extract_int(data, 'k') = 2 GROUP BY num ORDER BY 1 LIMIT 3`,
			`SELECT num, 1 FROM t WHERE sinew_extract_int(data, 'k') =  $i1  GROUP BY num ORDER BY 1 LIMIT 3`, []types.Datum{types.NewInt(2)}},
		{`SELECT * FROM t WHERE num = - -5`, `SELECT * FROM t WHERE num = - -5`, nil},
		{`SELECT * FROM t`, `SELECT * FROM t`, nil},
	}
	for _, c := range cases {
		sh := checkShape(t, c.sql)
		if sh.Text != c.shape || len(sh.Params) != len(c.params) {
			t.Errorf("ScanShape(%q) = %q %v, want %q %v", c.sql, sh.Text, sh.Params, c.shape, c.params)
			continue
		}
		for i := range c.params {
			if sh.Params[i].Typ != c.params[i].Typ || !types.Equal(sh.Params[i], c.params[i]) {
				t.Errorf("ScanShape(%q) param %d = %v, want %v", c.sql, i, sh.Params[i], c.params[i])
			}
		}
	}
	a, _ := ScanShape(`SELECT * FROM t WHERE num = 5`)
	b, _ := ScanShape(`SELECT * FROM t WHERE num = 70`)
	c, _ := ScanShape(`SELECT * FROM t WHERE num = 5.0`)
	if a.Text != b.Text || a.Text == c.Text {
		t.Errorf("shapes %q, %q, %q: want the first two equal and the real one apart", a.Text, b.Text, c.Text)
	}
}

// TestShapeMatchesCall: only a call of matches makes a statement
// uncacheable, not the word inside a literal or a column name.
func TestShapeMatchesCall(t *testing.T) {
	for sql, want := range map[string]bool{
		`SELECT * FROM t WHERE matches('str1', 'x')`:     true,
		`SELECT * FROM t WHERE MATCHES ('str1', 'x')`:    true,
		`SELECT * FROM t WHERE str1 = 'rematches'`:       false,
		`SELECT matches_total FROM t WHERE num = 1`:      false,
		`SELECT "matches" FROM t WHERE matches_n(1) = 1`: false,
	} {
		sh, err := ScanShape(sql)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Matches != want || !sh.Select {
			t.Errorf("ScanShape(%q): Matches = %v, Select = %v; want Matches = %v", sql, sh.Matches, sh.Select, want)
		}
	}
}

// TestParseRejectsParamTokens: user text cannot spell a parameter.
func TestParseRejectsParamTokens(t *testing.T) {
	for _, sql := range []string{`SELECT * FROM t WHERE a = $i1`, `SELECT $t1`} {
		if _, err := Parse(sql); err == nil || !strings.Contains(err.Error(), "unexpected character") {
			t.Errorf("Parse(%q) = %v, want the lexer's unexpected-character error", sql, err)
		}
		if _, err := ParseShape(sql); err != nil {
			t.Errorf("ParseShape(%q): %v", sql, err)
		}
	}
}

// FuzzShapeMatchesParse holds ScanShape to Parse on any text: a shape that
// scans parses, with its values bound, to exactly what the text parses to,
// and a text whose scan fails does not parse either.
func FuzzShapeMatchesParse(f *testing.F) {
	for _, s := range shapeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		checkShape(t, sql)
	})
}

// TestShapeScanAllocs pins the scan's cost on a plan-cache hit: the shape
// text and the parameter slice (the token slice is recycled), plus the
// lower-cased copy of an identifier spelled in upper case (COUNT).
func TestShapeScanAllocs(t *testing.T) {
	const sql = `SELECT thousandth, COUNT(*) FROM nobench_main WHERE num BETWEEN 1000 AND 1020 GROUP BY thousandth`
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ScanShape(sql); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("ScanShape allocates %.0f times, want at most 3", n)
	}
}
