package exec

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// TestPropertyJoinAlgorithmsAgree checks that hash join, merge join (over
// sorted inputs), and nested-loop join produce the reference's multiset of
// results on random inputs — the planner is free to pick any of them, so
// they must be interchangeable.
func TestPropertyJoinAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mkRows := func(n, keySpace int) []storage.Row {
			rows := make([]storage.Row, n)
			for i := range rows {
				key := types.NewInt(int64(r.Intn(keySpace)))
				if r.Intn(10) == 0 {
					key = types.NewNull(types.Int) // NULLs never join
				}
				rows[i] = storage.Row{key, types.NewInt(int64(i))}
			}
			return rows
		}
		left := mkRows(1+r.Intn(40), 1+r.Intn(8))
		right := mkRows(1+r.Intn(40), 1+r.Intn(8))
		keyL := []Expr{col(0, types.Int)}
		keyR := []Expr{col(0, types.Int)}
		want := mustRef(t)(refJoin(left, right, keyL, keyR, nil))

		hj := collectBatches(t, &BatchHashJoinIter{
			Probe: &sliceBatches{rows: left}, Build: &sliceBatches{rows: right},
			ProbeKeys: keyL, BuildKeys: keyR, BuildWidth: 2,
		})
		rowsEqual(t, hj, want)
		// Merge join needs sorted inputs.
		sorted := func(rows []storage.Row) Iterator {
			return &BatchToRow{In: &BatchSortIter{In: &sliceBatches{rows: rows}, Keys: []SortKey{{Expr: col(0, types.Int)}}}}
		}
		mj, err := drainRows(&MergeJoinIter{
			Left: sorted(left), Right: sorted(right), LeftKeys: keyL, RightKeys: keyR,
		})
		if err != nil {
			t.Fatal(err)
		}
		cond := &BinExpr{Op: "=", L: col(0, types.Int), R: col(2, types.Int)}
		nl, err := drainRows(&NestedLoopIter{
			Outer: rowsOf(left...), Inner: &sliceBatches{rows: right}, Cond: cond,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := canonical(want), canonical(mj), canonical(nl)
		if a != b || b != c {
			t.Fatalf("seed %d: reference %q merge %q nl %q", seed, a, b, c)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAggregationStrategiesAgree checks HashAgg vs sorted GroupAgg
// on random groups against the reference.
func TestPropertyAggregationStrategiesAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		rows := make([]storage.Row, n)
		for i := range rows {
			g := types.NewInt(int64(r.Intn(6)))
			v := types.NewInt(int64(r.Intn(50)))
			if r.Intn(8) == 0 {
				v = types.NewNull(types.Int)
			}
			rows[i] = storage.Row{g, v}
		}
		specs := func() []*AggSpec {
			return []*AggSpec{
				{Kind: AggCountStar},
				{Kind: AggCount, Arg: col(1, types.Int)},
				{Kind: AggSum, Arg: col(1, types.Int)},
				{Kind: AggMin, Arg: col(1, types.Int)},
				{Kind: AggMax, Arg: col(1, types.Int)},
			}
		}
		groupBy := []Expr{col(0, types.Int)}
		want := mustRef(t)(refGroup(rows, groupBy, specs()))
		hashed := collectBatches(t, &BatchHashAggIter{
			In: &sliceBatches{rows: rows}, GroupBy: groupBy, Aggs: specs(),
		})
		rowsEqual(t, hashed, want)
		sorted := &BatchToRow{In: &BatchSortIter{In: &sliceBatches{rows: rows}, Keys: []SortKey{{Expr: col(0, types.Int)}}}}
		grouped, err := drainRows(&GroupAggIter{In: sorted, GroupBy: groupBy, Aggs: specs()})
		if err != nil {
			t.Fatal(err)
		}
		if canonical(want) != canonical(grouped) {
			t.Fatalf("seed %d: reference %v vs sort %v", seed, want, grouped)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// canonical renders a row multiset order-independently.
func canonical(rows []storage.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		var buf []byte
		for _, d := range r {
			buf = d.HashKey(buf)
		}
		lines[i] = string(buf)
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\x00"
	}
	return out
}

// ---------- Batch/row differential testing ----------

// randBatchRows builds a random table over the given column types, with
// NULLs sprinkled in every column.
func randBatchRows(r *rand.Rand, colTypes []types.Type, n int) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		row := make(storage.Row, len(colTypes))
		for j, tp := range colTypes {
			if r.Intn(6) == 0 {
				row[j] = types.NewNull(tp)
				continue
			}
			switch tp {
			case types.Int:
				row[j] = types.NewInt(int64(r.Intn(21) - 10))
			case types.Float:
				row[j] = types.NewFloat(float64(r.Intn(41))/4 - 5)
			case types.Text:
				row[j] = types.NewText(string(rune('a' + r.Intn(5))))
			case types.Array:
				row[j] = randArray(r)
			default:
				row[j] = types.NewBool(r.Intn(2) == 0)
			}
		}
		rows[i] = row
	}
	return rows
}

// randArray builds a short array (possibly empty) of mixed-type elements —
// Sinew's arrays are dynamically typed — with NULL elements sprinkled in.
func randArray(r *rand.Rand) types.Datum {
	elems := make([]types.Datum, r.Intn(5))
	for i := range elems {
		switch r.Intn(6) {
		case 0:
			elems[i] = types.NewNull(types.Unknown)
		case 1:
			elems[i] = types.NewText(string(rune('a' + r.Intn(5))))
		case 2:
			elems[i] = types.NewFloat(float64(r.Intn(9))/2 - 2)
		case 3:
			elems[i] = types.NewBool(r.Intn(2) == 0)
		default:
			elems[i] = types.NewInt(int64(r.Intn(9) - 4))
		}
	}
	return types.NewArray(elems...)
}

// randAnyPred returns `x op ANY(arr)` — IN over an array when op is "=" —
// or its negation (NOT IN). x is numeric, text or a NULL literal; arr is an
// array column when the schema has one, else an array literal. Unless safe,
// arr is occasionally a non-array column, which must raise the same error
// on both pipelines.
func randAnyPred(r *rand.Rand, colTypes []types.Type, safe bool) Expr {
	var x Expr
	switch r.Intn(5) {
	case 0:
		x = lit(types.NewNull(types.Unknown))
	case 1, 2:
		x = randTextExpr(r, colTypes, 0)
	default:
		x = randNumExpr(r, colTypes, 1, safe)
	}
	var arr Expr
	arrays := colsOfType(colTypes, types.Array)
	switch {
	case !safe && r.Intn(12) == 0:
		arr = col(0, colTypes[0])
	case len(arrays) > 0 && r.Intn(4) != 0:
		i := arrays[r.Intn(len(arrays))]
		arr = col(i, colTypes[i])
	case r.Intn(8) == 0:
		arr = lit(types.NewNull(types.Array))
	default:
		arr = lit(randArray(r))
	}
	op := "="
	if r.Intn(3) == 0 {
		op = []string{"<>", "<", "<=", ">", ">="}[r.Intn(5)]
	}
	var e Expr = &AnyExpr{X: x, Op: op, Array: arr}
	if r.Intn(2) == 0 {
		e = &NotExpr{X: e}
	}
	return e
}

func colsOfType(colTypes []types.Type, want ...types.Type) []int {
	var out []int
	for i, tp := range colTypes {
		for _, w := range want {
			if tp == w {
				out = append(out, i)
			}
		}
	}
	return out
}

// randNumExpr returns a numeric-valued expression; division and modulo are
// included rarely so that genuine runtime errors (÷0) are exercised but do
// not dominate. safe excludes both, for pipelines whose evaluation must be
// total.
func randNumExpr(r *rand.Rand, colTypes []types.Type, depth int, safe bool) Expr {
	nums := colsOfType(colTypes, types.Int, types.Float)
	if depth <= 0 || r.Intn(3) == 0 {
		if len(nums) > 0 && r.Intn(3) != 0 {
			i := nums[r.Intn(len(nums))]
			return col(i, colTypes[i])
		}
		if r.Intn(2) == 0 {
			return lit(types.NewInt(int64(r.Intn(9) - 4)))
		}
		return lit(types.NewFloat(float64(r.Intn(17))/4 - 2))
	}
	ops := []string{"+", "-", "*", "+", "-", "*", "/", "%"}
	if safe {
		ops = ops[:6]
	}
	return &BinExpr{
		Op: ops[r.Intn(len(ops))],
		L:  randNumExpr(r, colTypes, depth-1, safe),
		R:  randNumExpr(r, colTypes, depth-1, safe),
	}
}

func randTextExpr(r *rand.Rand, colTypes []types.Type, depth int) Expr {
	texts := colsOfType(colTypes, types.Text)
	if depth <= 0 || r.Intn(2) == 0 {
		if len(texts) > 0 && r.Intn(3) != 0 {
			i := texts[r.Intn(len(texts))]
			return col(i, colTypes[i])
		}
		return lit(types.NewText(string(rune('a' + r.Intn(5)))))
	}
	return &BinExpr{Op: "||",
		L: randTextExpr(r, colTypes, depth-1),
		R: randTextExpr(r, colTypes, depth-1)}
}

// randPred returns a random predicate mixing eager nodes (comparisons,
// BETWEEN, IS NULL, LIKE, NOT, IN/NOT IN over arrays) with lazy ones (AND,
// OR, IN-list, COALESCE) so
// both batch evaluation paths are exercised. safe keeps every numeric
// sub-expression total (no ÷0 candidates).
func randPred(r *rand.Rand, colTypes []types.Type, depth int, safe bool) Expr {
	if depth > 0 && r.Intn(2) == 0 {
		switch r.Intn(4) {
		case 0:
			return &BinExpr{Op: "AND",
				L: randPred(r, colTypes, depth-1, safe), R: randPred(r, colTypes, depth-1, safe)}
		case 1:
			return &BinExpr{Op: "OR",
				L: randPred(r, colTypes, depth-1, safe), R: randPred(r, colTypes, depth-1, safe)}
		case 2:
			return &NotExpr{X: randPred(r, colTypes, depth-1, safe)}
		default:
			return &CoalesceExpr{Args: []Expr{
				randPred(r, colTypes, depth-1, safe), lit(types.NewBool(false))}}
		}
	}
	cmps := []string{"=", "<>", "<", "<=", ">", ">="}
	switch r.Intn(7) {
	case 6:
		return randAnyPred(r, colTypes, safe)
	case 0:
		return &IsNullExpr{X: randNumExpr(r, colTypes, 1, safe), Not: r.Intn(2) == 0}
	case 1:
		return &BetweenExpr{
			X:   randNumExpr(r, colTypes, 1, safe),
			Lo:  randNumExpr(r, colTypes, 0, safe),
			Hi:  randNumExpr(r, colTypes, 0, safe),
			Not: r.Intn(2) == 0,
		}
	case 2:
		return &LikeExpr{
			X:       randTextExpr(r, colTypes, 1),
			Pattern: lit(types.NewText([]string{"a%", "%b%", "_", "%", "c"}[r.Intn(5)])),
			Not:     r.Intn(2) == 0,
		}
	case 3:
		return &InListExpr{
			X: randNumExpr(r, colTypes, 0, safe),
			List: []Expr{lit(types.NewInt(int64(r.Intn(5)))),
				lit(types.NewInt(int64(r.Intn(5) - 5)))},
			Not: r.Intn(2) == 0,
		}
	case 4:
		return &BinExpr{Op: cmps[r.Intn(len(cmps))],
			L: randTextExpr(r, colTypes, 1), R: randTextExpr(r, colTypes, 1)}
	default:
		return &BinExpr{Op: cmps[r.Intn(len(cmps))],
			L: randNumExpr(r, colTypes, 2, safe), R: randNumExpr(r, colTypes, 1, safe)}
	}
}

// TestPropertyBatchMatchesRow is the differential test backing the batch
// executor: over random schemas, data (with NULLs), predicates, and
// projections, the pipeline must produce exactly the reference's output —
// same rows, same order — and must error exactly when the reference errors
// (÷0, type mismatches). A third of the inputs span three batches.
//
// The second leg adds LIMIT: the limit announces its remaining budget down
// the pipeline so the projection truncates each delivered batch BEFORE
// evaluating expressions, which makes projection errors past the limit
// unreachable — the reference projects the first limit rows only. The
// predicate is kept total in that leg because a filter must still evaluate
// whole batches: predicate errors beyond the last limit-surviving row
// remain batch-granular by design.
func TestPropertyBatchMatchesRow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text, types.Array}
		for n := r.Intn(4); n > 0; n-- {
			colTypes = append(colTypes,
				[]types.Type{types.Int, types.Float, types.Text, types.Bool, types.Array}[r.Intn(5)])
		}
		n := drawRows(r, r.Intn(60))
		rows := randBatchRows(r, colTypes, n)
		pred := randPred(r, colTypes, 3, false)
		projs := make([]Expr, 1+r.Intn(3))
		for i := range projs {
			if r.Intn(3) == 0 {
				projs[i] = randTextExpr(r, colTypes, 2)
			} else {
				projs[i] = randNumExpr(r, colTypes, 2, false)
			}
		}

		compare := func(label string, got []storage.Row, gotErr error,
			want []storage.Row, wantErr error) {
			t.Helper()
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("seed %d %s: reference err %v, batch err %v",
					seed, label, wantErr, gotErr)
			}
			if wantErr != nil {
				return
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d rows vs %d", seed, label, len(got), len(want))
			}
			for i := range want {
				var wk, gk []byte
				for j := range want[i] {
					wk = want[i][j].HashKey(wk)
					gk = got[i][j].HashKey(gk)
				}
				if string(wk) != string(gk) {
					t.Fatalf("seed %d %s row %d: batch %v vs reference %v",
						seed, label, i, got[i], want[i])
				}
			}
		}

		want, wantErr := refFilter(rows, pred)
		if wantErr == nil {
			want, wantErr = refProject(want, projs)
		}
		got, gotErr := CollectBatches(&BatchProjectIter{Exprs: projs,
			In: &BatchFilterIter{Pred: pred, In: &sliceBatches{rows: rows}}})
		compare("no-limit", got, gotErr, want, wantErr)

		// LIMIT leg: total predicate, possibly-erroring projections. Both
		// must evaluate projections on exactly the first `limit` filtered
		// rows — same output AND same error behaviour.
		safePred := randPred(r, colTypes, 3, true)
		limit := int64(r.Intn(8))
		if n > DefaultBatchSize {
			limit = int64(r.Intn(n))
		}
		filtered, err := refFilter(rows, safePred)
		if err != nil {
			t.Fatalf("seed %d: total predicate errored: %v", seed, err)
		}
		wantL, wantLErr := refProject(refLimit(filtered, limit), projs)
		gotL, gotLErr := CollectBatches(&BatchLimitIter{N: limit,
			In: &BatchProjectIter{Exprs: projs,
				In: &BatchFilterIter{Pred: safePred, In: &sliceBatches{rows: rows}}}})
		compare("limit", gotL, gotLErr, wantL, wantLErr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
