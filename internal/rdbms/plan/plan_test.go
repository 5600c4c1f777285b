package plan

import (
	"fmt"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// memCatalog is a minimal plan.Catalog for tests.
type memCatalog struct {
	heaps map[string]*storage.Heap
	stats map[string]*storage.TableStats
	pager *storage.Pager
}

func (m *memCatalog) Table(name string) (storage.ReadView, *storage.TableStats, error) {
	h, ok := m.heaps[name]
	if !ok {
		return nil, nil, fmt.Errorf("no table %q", name)
	}
	return h, m.stats[name], nil
}

// buildCatalog creates table t(v int, s text, grp int) with n rows;
// analyzed toggles statistics.
func buildCatalog(t *testing.T, n int, analyzed bool) *memCatalog {
	t.Helper()
	schema, err := storage.NewSchema(
		storage.Column{Name: "v", Typ: types.Int},
		storage.Column{Name: "s", Typ: types.Text},
		storage.Column{Name: "grp", Typ: types.Int},
	)
	if err != nil {
		t.Fatal(err)
	}
	pager := storage.NewPager()
	h := storage.NewHeap(schema, pager)
	for i := 0; i < n; i++ {
		h.Insert(storage.Row{
			types.NewInt(int64(i)),
			types.NewText(fmt.Sprintf("s%d", i)),
			types.NewInt(int64(i % 5)),
		})
	}
	cat := &memCatalog{heaps: map[string]*storage.Heap{"t": h}, stats: map[string]*storage.TableStats{}, pager: pager}
	if analyzed {
		cat.stats["t"] = storage.Analyze(h)
	}
	return cat
}

func planQuery(t *testing.T, cat Catalog, sql string) *SelectPlan {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlanner(cat, exec.NewRegistry(), nil)
	sp, err := p.PlanSelect(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return sp
}

func runQuery(t *testing.T, cat Catalog, sql string) []storage.Row {
	t.Helper()
	rows, err := planQuery(t, cat, sql).Collect()
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return rows
}

func TestScanRowEstimateWithStats(t *testing.T) {
	cat := buildCatalog(t, 1000, true)
	sp := planQuery(t, cat, `SELECT v FROM t WHERE v < 100`)
	// Interpolated range selectivity: ~10%.
	scan := findScan(sp.Root)
	if scan.Rows() < 50 || scan.Rows() > 200 {
		t.Errorf("range estimate = %.0f, want ~100", scan.Rows())
	}
	// Equality on a unique column estimates ~1 row.
	sp = planQuery(t, cat, `SELECT v FROM t WHERE v = 7`)
	if r := findScan(sp.Root).Rows(); r > 5 {
		t.Errorf("eq estimate = %.0f, want ~1", r)
	}
}

func TestOpaqueExpressionDefaultEstimate(t *testing.T) {
	cat := buildCatalog(t, 10000, true)
	// abs() is stats-opaque: the fixed 200-row default applies (§3.1.1).
	sp := planQuery(t, cat, `SELECT v FROM t WHERE abs(v) = 7`)
	if r := findScan(sp.Root).Rows(); r < 150 || r > 250 {
		t.Errorf("opaque eq estimate = %.0f, want ~200", r)
	}
}

func findScan(n Node) Node {
	if s, ok := n.(*ScanNode); ok {
		return s
	}
	for _, c := range n.Children() {
		if s := findScan(c); s != nil {
			return s
		}
	}
	return nil
}

func TestDistinctStrategyFlip(t *testing.T) {
	cat := buildCatalog(t, 2000, true)
	cfg := DefaultConfig()
	cfg.HashAggMaxGroups = 100

	stmt, _ := sqlparse.Parse(`SELECT DISTINCT v FROM t`)
	p := NewPlanner(cat, exec.NewRegistry(), cfg)
	sp, err := p.PlanSelect(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	ops := strings.Join(OperatorNames(sp.Root), " ")
	if !strings.Contains(ops, "Unique") {
		t.Errorf("high-cardinality DISTINCT should sort+Unique: %s", ops)
	}
	// Low-cardinality grp hashes.
	stmt, _ = sqlparse.Parse(`SELECT DISTINCT grp FROM t`)
	sp, _ = p.PlanSelect(stmt.(*sqlparse.SelectStmt))
	ops = strings.Join(OperatorNames(sp.Root), " ")
	if !strings.Contains(ops, "HashAggregate") {
		t.Errorf("low-cardinality DISTINCT should hash: %s", ops)
	}
}

func TestGroupByStrategyFlip(t *testing.T) {
	cat := buildCatalog(t, 2000, true)
	cfg := DefaultConfig()
	cfg.HashAggMaxGroups = 100
	p := NewPlanner(cat, exec.NewRegistry(), cfg)

	stmt, _ := sqlparse.Parse(`SELECT v, COUNT(*) FROM t GROUP BY v`)
	sp, err := p.PlanSelect(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if ops := strings.Join(OperatorNames(sp.Root), " "); !strings.Contains(ops, "GroupAggregate") {
		t.Errorf("want GroupAggregate: %s", ops)
	}
	stmt, _ = sqlparse.Parse(`SELECT grp, COUNT(*) FROM t GROUP BY grp`)
	sp, _ = p.PlanSelect(stmt.(*sqlparse.SelectStmt))
	if ops := strings.Join(OperatorNames(sp.Root), " "); !strings.Contains(ops, "HashAggregate") {
		t.Errorf("want HashAggregate: %s", ops)
	}
}

func TestAggregateExpressionsAndHaving(t *testing.T) {
	cat := buildCatalog(t, 100, true)
	rows := runQuery(t, cat, `SELECT grp, SUM(v) + 1, COUNT(*) * 2 FROM t GROUP BY grp HAVING SUM(v) > 900 ORDER BY grp`)
	// Sum per grp g: sum of i in [0,100) with i%5==g → 950+20g.
	if len(rows) != 5 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][1].I != 951 || rows[0][2].I != 40 {
		t.Errorf("row0 = %v", rows[0])
	}
}

func TestGroupByValidation(t *testing.T) {
	cat := buildCatalog(t, 10, true)
	stmt, _ := sqlparse.Parse(`SELECT s, COUNT(*) FROM t GROUP BY grp`)
	p := NewPlanner(cat, exec.NewRegistry(), nil)
	if _, err := p.PlanSelect(stmt.(*sqlparse.SelectStmt)); err == nil ||
		!strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("want GROUP BY validation error, got %v", err)
	}
	// Aggregates in WHERE are rejected.
	stmt, _ = sqlparse.Parse(`SELECT v FROM t WHERE COUNT(*) > 1`)
	if _, err := p.PlanSelect(stmt.(*sqlparse.SelectStmt)); err == nil {
		t.Error("aggregate in WHERE should error")
	}
}

func TestOrderByAliasAndExpression(t *testing.T) {
	cat := buildCatalog(t, 10, true)
	rows := runQuery(t, cat, `SELECT v * -1 AS neg FROM t ORDER BY neg LIMIT 1`)
	if rows[0][0].I != -9 {
		t.Errorf("rows = %v", rows)
	}
	rows = runQuery(t, cat, `SELECT grp, COUNT(*) AS n FROM t GROUP BY grp ORDER BY n DESC, grp LIMIT 2`)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	cat := buildCatalog(t, 5, false)
	cat.heaps["u"] = cat.heaps["t"]
	stmt, _ := sqlparse.Parse(`SELECT v FROM t, u WHERE t.v = u.v`)
	p := NewPlanner(cat, exec.NewRegistry(), nil)
	if _, err := p.PlanSelect(stmt.(*sqlparse.SelectStmt)); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("want ambiguity error, got %v", err)
	}
}

func TestDuplicateTableAlias(t *testing.T) {
	cat := buildCatalog(t, 5, false)
	stmt, _ := sqlparse.Parse(`SELECT 1 FROM t, t`)
	p := NewPlanner(cat, exec.NewRegistry(), nil)
	if _, err := p.PlanSelect(stmt.(*sqlparse.SelectStmt)); err == nil {
		t.Error("duplicate table without alias should error")
	}
}

func TestJoinAlgorithmThreshold(t *testing.T) {
	cat := buildCatalog(t, 2000, true)
	cat.heaps["u"] = cat.heaps["t"]
	cat.stats["u"] = cat.stats["t"]
	cfg := DefaultConfig()
	p := NewPlanner(cat, exec.NewRegistry(), cfg)
	stmt, _ := sqlparse.Parse(`SELECT a.v FROM t a, u b WHERE a.v = b.v`)
	sp, err := p.PlanSelect(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if ops := strings.Join(OperatorNames(sp.Root), " "); !strings.Contains(ops, "Hash Join") {
		t.Errorf("under threshold should hash join: %s", ops)
	}
	cfg.HashJoinMaxBuildRows = 10
	sp, _ = p.PlanSelect(stmt.(*sqlparse.SelectStmt))
	if ops := strings.Join(OperatorNames(sp.Root), " "); !strings.Contains(ops, "Merge Join") {
		t.Errorf("over threshold should merge join: %s", ops)
	}
}

func TestCrossJoinUsesNestedLoop(t *testing.T) {
	cat := buildCatalog(t, 10, false)
	cat.heaps["u"] = cat.heaps["t"]
	stmt, _ := sqlparse.Parse(`SELECT 1 FROM t a, u b`)
	p := NewPlanner(cat, exec.NewRegistry(), nil)
	sp, err := p.PlanSelect(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if ops := strings.Join(OperatorNames(sp.Root), " "); !strings.Contains(ops, "Nested Loop") {
		t.Errorf("cross join ops: %s", ops)
	}
	rows, _ := sp.Collect()
	if len(rows) != 100 {
		t.Errorf("cross join rows = %d", len(rows))
	}
}

func TestExplainRendering(t *testing.T) {
	cat := buildCatalog(t, 100, true)
	sp := planQuery(t, cat, `SELECT grp, COUNT(*) FROM t WHERE v > 10 GROUP BY grp`)
	text := sp.Explain()
	for _, want := range []string{"Seq Scan on t", "Filter:", "rows=", "cost="} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
}

func TestLeafOrderAndOperatorNames(t *testing.T) {
	cat := buildCatalog(t, 100, true)
	cat.heaps["u"] = cat.heaps["t"]
	cat.stats["u"] = cat.stats["t"]
	sp := planQuery(t, cat, `SELECT a.v FROM t a, u b WHERE a.v = b.v`)
	leaves := LeafOrder(sp.Root)
	if len(leaves) != 2 {
		t.Errorf("leaves = %v", leaves)
	}
	ops := OperatorNames(sp.Root)
	if ops[0] != "Project" {
		t.Errorf("ops = %v", ops)
	}
}

func TestSelectNoFromPlanning(t *testing.T) {
	cat := buildCatalog(t, 1, false)
	rows := runQuery(t, cat, `SELECT 2 + 2, upper('x')`)
	if len(rows) != 1 || rows[0][0].I != 4 || rows[0][1].Text() != "X" {
		t.Errorf("rows = %v", rows)
	}
}

func TestSelectivityEstimatorDirect(t *testing.T) {
	cat := buildCatalog(t, 1000, true)
	_, stats, _ := cat.Table("t")
	layout := &Layout{Rows: 1000}
	layout.Cols = append(layout.Cols,
		LayoutCol{Table: "t", Name: "v", Typ: types.Int, Stats: stats.Columns["v"]},
		LayoutCol{Table: "t", Name: "grp", Typ: types.Int, Stats: stats.Columns["grp"]},
	)
	es := &estimator{cfg: DefaultConfig(), layout: layout, rows: 1000}
	parse := func(s string) sqlparse.Expr {
		stmt, err := sqlparse.Parse("SELECT 1 FROM t WHERE " + s)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*sqlparse.SelectStmt).Where
	}
	// MCV-backed equality on grp (each value ~20%).
	if sel := es.selectivity(parse("grp = 2")); sel < 0.15 || sel > 0.25 {
		t.Errorf("grp=2 sel = %f", sel)
	}
	// BETWEEN interpolation.
	if sel := es.selectivity(parse("v BETWEEN 100 AND 299")); sel < 0.15 || sel > 0.25 {
		t.Errorf("between sel = %f", sel)
	}
	// NOT inverts.
	if sel := es.selectivity(parse("NOT (grp = 2)")); sel < 0.7 {
		t.Errorf("not sel = %f", sel)
	}
	// OR combines.
	if sel := es.selectivity(parse("grp = 1 OR grp = 2")); sel < 0.3 || sel > 0.5 {
		t.Errorf("or sel = %f", sel)
	}
	// IS NULL uses null fraction (none here).
	if sel := es.selectivity(parse("v IS NULL")); sel > 0.01 {
		t.Errorf("is-null sel = %f", sel)
	}
}

func TestExplainBatchAnnotation(t *testing.T) {
	cat := buildCatalog(t, 100, true)
	sp := planQuery(t, cat, `SELECT grp, COUNT(*) FROM t WHERE v > 10 GROUP BY grp`)
	text := sp.Explain()
	if !strings.Contains(text, "(batch)") {
		t.Errorf("explain missing %q:\n%s", "(batch)", text)
	}
}

// scansOf returns every ScanNode in the plan tree rooted at n.
func scansOf(n Node) []*ScanNode {
	if s, ok := n.(*ScanNode); ok {
		return []*ScanNode{s}
	}
	var out []*ScanNode
	for _, c := range n.Children() {
		out = append(out, scansOf(c)...)
	}
	return out
}

// TestJoinScansPruned: a join reads of each side only the columns the
// operators above it, its keys and its residual name (all of them: no
// NeedCols), and a scan whose filter reads a column nothing above reads
// leaves it lazy.
func TestJoinScansPruned(t *testing.T) {
	cat := buildCatalog(t, 200, true)
	for sql, want := range map[string][2]string{
		`SELECT a.s FROM t a, t b WHERE a.v = b.v`:                          {"[0 1] []", "[0] []"},
		`SELECT b.grp FROM t a, t b WHERE a.v = b.v AND a.s < b.s`:          {"[0 1] []", "[] []"},
		`SELECT a.v FROM t a, t b WHERE a.v < b.grp AND b.s = 's1'`:         {"[0] []", "[1 2] [1]"},
		`SELECT COUNT(*) FROM t a, t b WHERE a.v = b.v AND a.grp = 1`:       {"[0 2] [2]", "[0] []"},
		`SELECT a.s, b.s FROM t a, t b WHERE a.v = b.v ORDER BY a.grp, b.s`: {"[] []", "[0 1] []"},
	} {
		got := map[string]string{}
		for _, s := range scansOf(planQuery(t, cat, sql).Root) {
			got[s.AliasName] = fmt.Sprint(s.NeedCols, " ", s.LazyCols)
		}
		if got["a"] != want[0] || got["b"] != want[1] {
			t.Errorf("%q: scan a reads %s, b %s (needed, lazy); want %s and %s", sql, got["a"], got["b"], want[0], want[1])
		}
	}
}

// TestRowAndBatchPlansAgree runs each statement under the reference plan
// (EnableBatch=false) and the default plan and wants the same rows in the
// same order. It also pins the two shortcuts EXPLAIN does not show: the
// reference takes no fused collector and prunes, skips and compiles
// nothing in its scans.
func TestRowAndBatchPlansAgree(t *testing.T) {
	cat := buildCatalog(t, 500, true)
	pruned := false // the default plan prunes some scan's columns
	for _, sql := range []string{
		`SELECT v, s FROM t WHERE v >= 250`,
		`SELECT grp, COUNT(*), SUM(v) FROM t GROUP BY grp ORDER BY grp`,
		`SELECT v * 2 FROM t WHERE grp = 3 LIMIT 7`,
		`SELECT DISTINCT grp FROM t ORDER BY grp`,
		// Scan column pruning: the filter and sort columns are not in the
		// select list, so the pruned scan must still materialize them.
		`SELECT s FROM t WHERE v % 7 = 0`,
		`SELECT s FROM t ORDER BY v DESC LIMIT 20`,
		// Fused projection-over-scan collector (with and without LIMIT).
		`SELECT v, s FROM t`,
		`SELECT s, v, s FROM t LIMIT 13`,
		// Aggregate over a fully pruned scan (no columns referenced).
		`SELECT COUNT(*) FROM t`,
		// Joins prune both sides: a hash join on its keys, a nested loop
		// on its condition, the residual read across both.
		`SELECT a.s, b.v FROM t a, t b WHERE a.v = b.grp AND a.v < 5 ORDER BY a.s, b.v`,
		`SELECT a.s, b.s FROM t a, t b WHERE a.v = b.v AND a.grp + b.grp > 3 AND a.v < 40 ORDER BY a.s`,
		`SELECT a.v, b.s FROM t a, t b WHERE a.v < b.grp AND a.v < 3 AND b.v < 20 ORDER BY a.v, b.s`,
	} {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		refCfg := DefaultConfig()
		refCfg.EnableBatch = false
		plans := map[string]*Config{"reference": refCfg, "batch": DefaultConfig()}
		var got map[string][]storage.Row
		got = map[string][]storage.Row{}
		for name, cfg := range plans {
			p := NewPlanner(cat, exec.NewRegistry(), cfg)
			sp, err := p.PlanSelect(stmt.(*sqlparse.SelectStmt))
			if err != nil {
				t.Fatalf("plan %q (%s): %v", sql, name, err)
			}
			if !cfg.EnableBatch {
				if sp.fuse {
					t.Errorf("%q: reference plan takes the fused collector", sql)
				}
				for _, s := range scansOf(sp.Root) {
					if s.NeedCols != nil || s.LazyCols != nil || s.Skip != nil || s.SelFilter != nil {
						t.Errorf("%q: reference scan of %s has NeedCols %v, LazyCols %v, Skip set %v, SelFilter set %v",
							sql, s.TableName, s.NeedCols, s.LazyCols, s.Skip != nil, s.SelFilter != nil)
					}
				}
			} else {
				for _, s := range scansOf(sp.Root) {
					pruned = pruned || s.NeedCols != nil
				}
			}
			rows, err := sp.Collect()
			if err != nil {
				t.Fatalf("run %q (%s): %v", sql, name, err)
			}
			got[name] = rows
		}
		r, b := got["reference"], got["batch"]
		if len(r) != len(b) {
			t.Fatalf("%q: reference %d rows, batch %d", sql, len(r), len(b))
		}
		for i := range r {
			var rk, bk []byte
			for j := range r[i] {
				rk = r[i][j].HashKey(rk)
				bk = b[i][j].HashKey(bk)
			}
			if string(rk) != string(bk) {
				t.Fatalf("%q row %d: reference %v vs batch %v", sql, i, r[i], b[i])
			}
		}
	}
	if !pruned {
		t.Error("no default plan pruned a scan's columns; the reference check above is vacuous")
	}
}
