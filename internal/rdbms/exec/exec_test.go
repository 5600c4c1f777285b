package exec

import (
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

func col(i int, t types.Type) Expr      { return &ColExpr{Idx: i, Typ: t, Name: "c"} }
func lit(d types.Datum) Expr            { return &ConstExpr{Val: d} }
func row(ds ...types.Datum) storage.Row { return storage.Row(ds) }

// evalOn evaluates e over the one-row batch r through EvalBatch; r is nil
// for an expression that reads no column.
func evalOn(t *testing.T, e Expr, r storage.Row) types.Datum {
	t.Helper()
	v, err := evalRow(e, r)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return v
}

func evalRow(e Expr, r storage.Row) (types.Datum, error) {
	b := NewRowBatch(len(r), 1)
	b.AppendRow(r)
	col, err := EvalBatch(e, b, NewEvalCtx())
	if err != nil {
		return types.Datum{}, err
	}
	return col[0], nil
}

func TestComparisonThreeValuedLogic(t *testing.T) {
	eq := &BinExpr{Op: "=", L: col(0, types.Int), R: lit(types.NewInt(5))}
	if v := evalOn(t, eq, row(types.NewInt(5))); !v.Bool() {
		t.Error("5 = 5 should be true")
	}
	if v := evalOn(t, eq, row(types.NewInt(6))); v.Bool() {
		t.Error("6 = 5 should be false")
	}
	if v := evalOn(t, eq, row(types.NewNull(types.Int))); !v.IsNull() {
		t.Error("NULL = 5 should be NULL")
	}
}

func TestCrossTypeNumericComparison(t *testing.T) {
	eq := &BinExpr{Op: "=", L: lit(types.NewInt(2)), R: lit(types.NewFloat(2.0))}
	if v := evalOn(t, eq, nil); !v.Bool() {
		t.Error("2 = 2.0 should be true in SQL")
	}
	lt := &BinExpr{Op: "<", L: lit(types.NewFloat(1.5)), R: lit(types.NewInt(2))}
	if v := evalOn(t, lt, nil); !v.Bool() {
		t.Error("1.5 < 2 should be true")
	}
}

func TestIncomparableTypesError(t *testing.T) {
	gt := &BinExpr{Op: ">", L: lit(types.NewText("x")), R: lit(types.NewInt(1))}
	if _, err := evalRow(gt, nil); err == nil {
		t.Error("text > int should error")
	}
}

func TestLogicalKleene(t *testing.T) {
	null := lit(types.NewNull(types.Bool))
	tru := lit(types.NewBool(true))
	fal := lit(types.NewBool(false))
	cases := []struct {
		op   string
		l, r Expr
		want string // "t", "f", "n"
	}{
		{"AND", tru, tru, "t"}, {"AND", tru, fal, "f"}, {"AND", fal, null, "f"},
		{"AND", null, fal, "f"}, {"AND", tru, null, "n"}, {"AND", null, null, "n"},
		{"OR", fal, fal, "f"}, {"OR", fal, tru, "t"}, {"OR", tru, null, "t"},
		{"OR", null, tru, "t"}, {"OR", fal, null, "n"}, {"OR", null, null, "n"},
	}
	for _, c := range cases {
		v := evalOn(t, &BinExpr{Op: c.op, L: c.l, R: c.r}, nil)
		got := "n"
		if !v.IsNull() {
			if v.Bool() {
				got = "t"
			} else {
				got = "f"
			}
		}
		if got != c.want {
			t.Errorf("%s %s %s = %s, want %s", c.l, c.op, c.r, got, c.want)
		}
	}
}

func TestShortCircuitSkipsErrors(t *testing.T) {
	// FALSE AND <error> must not evaluate the error side.
	bad := &BinExpr{Op: ">", L: lit(types.NewText("x")), R: lit(types.NewInt(1))}
	and := &BinExpr{Op: "AND", L: lit(types.NewBool(false)), R: bad}
	if v := evalOn(t, and, nil); v.Bool() {
		t.Error("FALSE AND err should be false")
	}
	or := &BinExpr{Op: "OR", L: lit(types.NewBool(true)), R: bad}
	if v := evalOn(t, or, nil); !v.Bool() {
		t.Error("TRUE OR err should be true")
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		op   string
		l, r types.Datum
		want types.Datum
	}{
		{"+", types.NewInt(2), types.NewInt(3), types.NewInt(5)},
		{"-", types.NewInt(2), types.NewInt(3), types.NewInt(-1)},
		{"*", types.NewInt(4), types.NewInt(3), types.NewInt(12)},
		{"/", types.NewInt(7), types.NewInt(2), types.NewInt(3)}, // integer division
		{"%", types.NewInt(7), types.NewInt(2), types.NewInt(1)},
		{"+", types.NewInt(1), types.NewFloat(0.5), types.NewFloat(1.5)},
		{"/", types.NewFloat(7), types.NewInt(2), types.NewFloat(3.5)},
	}
	for _, c := range cases {
		v := evalOn(t, &BinExpr{Op: c.op, L: lit(c.l), R: lit(c.r)}, nil)
		if !types.Equal(v, c.want) || v.Typ != c.want.Typ {
			t.Errorf("%v %s %v = %v, want %v", c.l, c.op, c.r, v, c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	for _, r := range []types.Datum{types.NewInt(0), types.NewFloat(0)} {
		d := &BinExpr{Op: "/", L: lit(types.NewInt(1)), R: lit(r)}
		if _, err := evalRow(d, nil); err == nil {
			t.Errorf("1 / %v should error", r)
		}
	}
}

func TestLikeMatching(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "H%", false}, // case sensitive
		{"hello", "%x%", false},
		{"a.b", "a.b", true},
		{"axb", "a.b", false}, // dot is literal
		{"100%", `100\%`, true},
		{"multi\nline", "multi%", true},
	}
	for _, c := range cases {
		e := &LikeExpr{X: lit(types.NewText(c.s)), Pattern: lit(types.NewText(c.pat))}
		if v := evalOn(t, e, nil); v.Bool() != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.pat, v.Bool(), c.want)
		}
	}
}

func TestInListNullSemantics(t *testing.T) {
	// 3 IN (1, 2, NULL) is NULL (unknown), not false.
	in := &InListExpr{X: lit(types.NewInt(3)), List: []Expr{
		lit(types.NewInt(1)), lit(types.NewInt(2)), lit(types.NewNull(types.Int)),
	}}
	if v := evalOn(t, in, nil); !v.IsNull() {
		t.Errorf("3 IN (1,2,NULL) = %v, want NULL", v)
	}
	// 2 IN (1, 2, NULL) is true.
	in2 := &InListExpr{X: lit(types.NewInt(2)), List: []Expr{
		lit(types.NewInt(1)), lit(types.NewInt(2)), lit(types.NewNull(types.Int)),
	}}
	if v := evalOn(t, in2, nil); !v.Bool() {
		t.Errorf("2 IN (1,2,NULL) = %v, want true", v)
	}
}

func TestAnyHeterogeneousArray(t *testing.T) {
	arr := lit(types.NewArray(types.NewText("x"), types.NewInt(5), types.NewBool(true)))
	// Probing for int 5 skips the incomparable string element.
	e := &AnyExpr{X: lit(types.NewInt(5)), Op: "=", Array: arr}
	if v := evalOn(t, e, nil); !v.Bool() {
		t.Error("5 = ANY({x,5,true}) should be true")
	}
	e2 := &AnyExpr{X: lit(types.NewInt(9)), Op: "=", Array: arr}
	if v := evalOn(t, e2, nil); v.Bool() {
		t.Error("9 = ANY({x,5,true}) should be false")
	}
}

func TestCoalesceLazy(t *testing.T) {
	// A trap argument that errors when evaluated.
	trap := &BinExpr{Op: ">", L: lit(types.NewText("boom")), R: lit(types.NewInt(1))}
	c := &CoalesceExpr{Args: []Expr{lit(types.NewInt(7)), trap}}
	if v := evalOn(t, c, nil); v.I != 7 {
		t.Errorf("coalesce = %v", v)
	}
	// First NULL falls through.
	c2 := &CoalesceExpr{Args: []Expr{lit(types.NewNull(types.Int)), lit(types.NewInt(9))}}
	if v := evalOn(t, c2, nil); v.I != 9 {
		t.Errorf("coalesce = %v", v)
	}
	// All NULL stays NULL.
	c3 := &CoalesceExpr{Args: []Expr{lit(types.NewNull(types.Int))}}
	if v := evalOn(t, c3, nil); !v.IsNull() {
		t.Errorf("coalesce = %v", v)
	}
}

// ---------- operators ----------

func TestSortIterNullsAndDirections(t *testing.T) {
	sorted := func(desc bool, rows ...storage.Row) []storage.Row {
		return collectBatches(t, &BatchSortIter{In: &sliceBatches{rows: rows},
			Keys: []SortKey{{Expr: col(0, types.Int), Desc: desc}}})
	}
	rows := sorted(false,
		row(types.NewInt(3)), row(types.NewNull(types.Int)),
		row(types.NewInt(1)), row(types.NewInt(2)),
	)
	// ASC: 1 2 3 NULL (nulls last).
	if rows[0][0].I != 1 || !rows[3][0].IsNull() {
		t.Errorf("asc rows = %v", rows)
	}
	rows = sorted(true, row(types.NewInt(3)), row(types.NewNull(types.Int)), row(types.NewInt(1)))
	// DESC: NULL 3 1 (nulls first).
	if !rows[0][0].IsNull() || rows[1][0].I != 3 {
		t.Errorf("desc rows = %v", rows)
	}
}

func TestHashAggScalarOverEmpty(t *testing.T) {
	rows := collectBatches(t, &BatchHashAggIter{In: &sliceBatches{}, Aggs: []*AggSpec{{Kind: AggCountStar}}})
	if len(rows) != 1 || rows[0][0].I != 0 {
		t.Errorf("COUNT(*) over empty = %v", rows)
	}
}

func TestHashAggGroups(t *testing.T) {
	in := &sliceBatches{rows: []storage.Row{
		row(types.NewText("a"), types.NewInt(1)),
		row(types.NewText("b"), types.NewInt(2)),
		row(types.NewText("a"), types.NewInt(3)),
		row(types.NewText("a"), types.NewNull(types.Int)),
	}}
	rows := collectBatches(t, &BatchHashAggIter{
		In:      in,
		GroupBy: []Expr{col(0, types.Text)},
		Aggs: []*AggSpec{
			{Kind: AggCountStar},
			{Kind: AggCount, Arg: col(1, types.Int)},
			{Kind: AggSum, Arg: col(1, types.Int)},
			{Kind: AggMin, Arg: col(1, types.Int)},
			{Kind: AggMax, Arg: col(1, types.Int)},
			{Kind: AggAvg, Arg: col(1, types.Int)},
		},
	})
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	// Deterministic order (sorted by encoded key): "a" then "b".
	a := rows[0]
	if a[0].Text() != "a" || a[1].I != 3 || a[2].I != 2 || a[3].I != 4 ||
		a[4].I != 1 || a[5].I != 3 || a[6].Float() != 2.0 {
		t.Errorf("group a = %v", a)
	}
}

func TestGroupAggMatchesHashAgg(t *testing.T) {
	rows := []storage.Row{
		row(types.NewInt(1), types.NewInt(10)),
		row(types.NewInt(1), types.NewInt(20)),
		row(types.NewInt(2), types.NewInt(5)),
		row(types.NewInt(3), types.NewInt(7)),
		row(types.NewInt(3), types.NewInt(8)),
	}
	specs := func() []*AggSpec {
		return []*AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: col(1, types.Int)}}
	}
	hashed := collectBatches(t, &BatchHashAggIter{In: &sliceBatches{rows: rows}, GroupBy: []Expr{col(0, types.Int)}, Aggs: specs()})
	// GroupAgg needs sorted input — rows above are sorted by group key.
	grouped := collectBatches(t, &BatchSortedAggIter{In: &sliceBatches{rows: rows}, GroupBy: []Expr{col(0, types.Int)}, Aggs: specs()})
	rowsEqual(t, grouped, hashed)
}

func TestCountDistinct(t *testing.T) {
	in := &sliceBatches{rows: []storage.Row{
		row(types.NewInt(1)), row(types.NewInt(1)), row(types.NewInt(2)),
		row(types.NewNull(types.Int)),
	}}
	rows := collectBatches(t, &BatchHashAggIter{In: in, Aggs: []*AggSpec{{Kind: AggCount, Arg: col(0, types.Int), Distinct: true}}})
	if rows[0][0].I != 2 {
		t.Errorf("COUNT(DISTINCT) = %v", rows[0][0])
	}
}

// hashJoin is the batch hash join of two row sets on their first columns.
func hashJoin(probe, build []storage.Row) BatchIterator {
	return &BatchHashJoinIter{
		Probe: &sliceBatches{rows: probe}, Build: &sliceBatches{rows: build},
		ProbeKeys: []Expr{col(0, types.Int)}, BuildKeys: []Expr{col(0, types.Int)},
		BuildWidth: len(build[0]),
	}
}

func TestHashJoinBasics(t *testing.T) {
	probe := []storage.Row{
		row(types.NewInt(1), types.NewText("p1")),
		row(types.NewInt(2), types.NewText("p2")),
		row(types.NewNull(types.Int), types.NewText("pnull")),
	}
	build := []storage.Row{
		row(types.NewInt(1), types.NewText("b1")),
		row(types.NewInt(1), types.NewText("b1b")),
		row(types.NewInt(3), types.NewText("b3")),
		row(types.NewNull(types.Int), types.NewText("bnull")),
	}
	rows := collectBatches(t, hashJoin(probe, build))
	// key 1 matches twice; NULLs never join.
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if len(rows[0]) != 4 {
		t.Errorf("joined width = %d", len(rows[0]))
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	left := []storage.Row{
		row(types.NewInt(1)), row(types.NewInt(2)), row(types.NewInt(2)), row(types.NewInt(4)),
	}
	right := []storage.Row{
		row(types.NewInt(2)), row(types.NewInt(2)), row(types.NewInt(3)), row(types.NewInt(4)),
	}
	mj := collectBatches(t, &BatchSortedJoinIter{
		Left: &sliceBatches{rows: left}, Right: &sliceBatches{rows: right},
		LeftKeys: []Expr{col(0, types.Int)}, RightKeys: []Expr{col(0, types.Int)},
	})
	hj := collectBatches(t, hashJoin(left, right))
	// 2x2 duplicates + 4x4 = 5 matches.
	if len(mj) != 5 || len(hj) != 5 {
		t.Fatalf("merge %d vs hash %d rows", len(mj), len(hj))
	}
}

func TestNestedLoopCross(t *testing.T) {
	rows := collectBatches(t, &BatchSortedJoinIter{
		Left:  &sliceBatches{rows: []storage.Row{row(types.NewInt(1)), row(types.NewInt(2))}},
		Right: &sliceBatches{rows: []storage.Row{row(types.NewText("a")), row(types.NewText("b"))}},
	})
	if len(rows) != 4 {
		t.Fatalf("cross join rows = %d", len(rows))
	}
}

func TestLimitAndUnique(t *testing.T) {
	rows := collectBatches(t, &BatchLimitIter{N: 2, In: &sliceBatches{rows: []storage.Row{
		row(types.NewInt(1)), row(types.NewInt(2)), row(types.NewInt(3))}}})
	if len(rows) != 2 {
		t.Errorf("limit rows = %d", len(rows))
	}
	rows = collectBatches(t, &BatchDedupIter{In: &sliceBatches{rows: []storage.Row{
		row(types.NewInt(1)), row(types.NewInt(1)), row(types.NewInt(2)), row(types.NewInt(2)), row(types.NewInt(2)),
	}}})
	if len(rows) != 2 {
		t.Errorf("unique rows = %v", rows)
	}
}

func TestScanWithFilterOverHeap(t *testing.T) {
	schema, _ := storage.NewSchema(storage.Column{Name: "v", Typ: types.Int})
	h := storage.NewHeap(schema, nil)
	for i := 0; i < 100; i++ {
		if err := h.Insert(row(types.NewInt(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	filter := &BinExpr{Op: ">=", L: col(0, types.Int), R: lit(types.NewInt(90))}
	if rows := collectBatches(t, NewBatchScan(h, filter)); len(rows) != 10 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestRegistryAndBuiltins(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"coalesce", "length", "lower", "upper", "abs", "substr", "array_contains", "array_length", "array_get"} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("builtin %s missing", name)
		}
	}
	length, _ := r.Lookup("length")
	v, err := length.Eval([]types.Datum{types.NewText("hello")})
	if err != nil || v.I != 5 {
		t.Errorf("length = %v %v", v, err)
	}
	substr, _ := r.Lookup("substr")
	v, _ = substr.Eval([]types.Datum{types.NewText("hello"), types.NewInt(2), types.NewInt(3)})
	if v.Text() != "ell" {
		t.Errorf("substr = %v", v)
	}
	// Out-of-range substr clamps.
	v, _ = substr.Eval([]types.Datum{types.NewText("hi"), types.NewInt(10)})
	if v.Text() != "" {
		t.Errorf("substr oob = %q", v.Text())
	}
}

func TestAggFromName(t *testing.T) {
	if k, ok := AggFromName("count", true); !ok || k != AggCountStar {
		t.Error("count(*)")
	}
	if k, ok := AggFromName("SUM", false); !ok || k != AggSum {
		t.Error("sum case-insensitive")
	}
	if _, ok := AggFromName("length", false); ok {
		t.Error("length is not an aggregate")
	}
	if !IsAggName("avg") || IsAggName("lower") {
		t.Error("IsAggName")
	}
}
