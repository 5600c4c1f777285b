package exec

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// batchLens are the batch lengths the operator property tests cut their
// inputs into: below DefaultBatchSize, groups, duplicate runs and
// equal-key runs straddle batch boundaries.
var batchLens = []int{1, 3, 7, DefaultBatchSize}

// feed is one shape of operator input: sliceBatches of size rows,
// selection-carrying or not, optionally narrowed by a BatchFilterIter
// over filter, with the pruned columns left empty.
type feed struct {
	size   int
	sel    bool
	filter Expr
	pruned []int
}

// feeds draws one input shape per batch length. The shapes take turns: dense
// batches, selection-carrying ones, and selection-carrying ones through a
// BatchFilterIter over filter (none when filter is nil); each leaves the
// pruned columns empty half of the time.
func feeds(r *rand.Rand, filter Expr, pruned ...int) []feed {
	out := make([]feed, len(batchLens))
	for i, size := range batchLens {
		f := feed{size: size}
		switch r.Intn(3) {
		case 1:
			f.sel = true
		case 2:
			f.sel, f.filter = true, filter
		}
		if r.Intn(2) == 0 {
			f.pruned = pruned
		}
		out[i] = f
	}
	return out
}

// open replays rows in the feed's shape.
func (f feed) open(rows []storage.Row) BatchIterator {
	var it BatchIterator = &sliceBatches{rows: rows, size: f.size, sel: f.sel, pruned: f.pruned}
	if f.filter != nil {
		it = filterOn(it, f.filter)
	}
	return it
}

// rows is what an operator reads from open(rows).
func (f feed) rows(t *testing.T, rows []storage.Row) []storage.Row {
	if f.filter != nil {
		rows = mustRef(t)(refFilter(rows, f.filter))
	}
	return prunedRows(rows, f.pruned...)
}

// joinSide draws n join input rows [key, id, ikey, pad]: key a multi-typed
// randKey, id the row number, ikey a small Int or NULL, pad text no join
// reads (the column a pruning scan may leave empty).
func joinSide(r *rand.Rand, n, space int) []storage.Row {
	rows := make([]storage.Row, n)
	for i := range rows {
		ikey := types.NewInt(int64(r.Intn(space)))
		if r.Intn(10) == 0 {
			ikey = types.NewNull(types.Int)
		}
		rows[i] = storage.Row{randKey(r, space), types.NewInt(int64(i)), ikey, types.NewText("p" + strconv.Itoa(i))}
	}
	return rows
}

// TestPropertyJoinAlgorithmsAgree checks that hash join, merge join (over
// sorted inputs) and nested-loop join each produce the reference's
// results on random multi-typed keys, with and without a join filter, for
// every input shape feeds draws — the planner is free to pick any of them,
// so they must be interchangeable.
func TestPropertyJoinAlgorithmsAgree(t *testing.T) {
	key := []Expr{col(0, types.Int)}
	ikey := []Expr{col(2, types.Int)}
	sortKey := []SortKey{{Expr: col(0, types.Int)}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		space := keySpace(r)
		left := joinSide(r, r.Intn(60), space)
		right := joinSide(r, r.Intn(60), space)
		var residual Expr
		if r.Intn(2) == 0 {
			residual = &BinExpr{Op: "<=", L: col(1, types.Int), R: col(5, types.Int)}
		}
		keep := &BinExpr{Op: ">=", L: col(1, types.Int), R: lit(types.NewInt(int64(r.Intn(8))))}
		ref := mustRef(t)
		sortedL, sortedR := ref(refSort(left, sortKey)), ref(refSort(right, sortKey))
		for _, fd := range feeds(r, keep, 3) {
			l, rt := fd.rows(t, left), fd.rows(t, right)
			want := ref(refJoin(l, rt, key, key, residual))
			rowsEqual(t, collectBatches(t, &BatchHashJoinIter{
				Probe: fd.open(left), Build: fd.open(right),
				ProbeKeys: key, BuildKeys: key, Residual: residual, BuildWidth: 4,
			}), want)

			merged := collectBatches(t, &BatchSortedJoinIter{
				Left: fd.open(sortedL), Right: fd.open(sortedR),
				LeftKeys: key, RightKeys: key, Residual: residual,
			})
			if a, b := canonical(want), canonical(merged); a != b {
				t.Fatalf("seed %d %+v: merge join %v, reference %v", seed, fd, merged, want)
			}

			cond := &BinExpr{Op: "=", L: col(2, types.Int), R: col(6, types.Int)}
			var nlCond Expr = cond
			if residual != nil {
				nlCond = &BinExpr{Op: "AND", L: cond, R: residual}
			}
			rowsEqual(t, collectBatches(t, &BatchSortedJoinIter{
				Left: fd.open(left), Right: fd.open(right), Residual: nlCond,
			}), ref(refJoin(l, rt, ikey, ikey, residual)))
			rowsEqual(t, collectBatches(t, &BatchSortedJoinIter{
				Left: fd.open(left[:min(len(left), 9)]), Right: fd.open(right),
			}), ref(refJoin(fd.rows(t, left[:min(len(left), 9)]), rt, nil, nil, nil)))
		}
		// The plan's shape: each side sorted by a BatchSortIter.
		merged := collectBatches(t, &BatchSortedJoinIter{
			Left:     &BatchSortIter{In: &sliceBatches{rows: left, size: 7}, Keys: sortKey},
			Right:    &BatchSortIter{In: &sliceBatches{rows: right, size: 3, sel: true}, Keys: sortKey},
			LeftKeys: key, RightKeys: key, Residual: residual,
		})
		if want := ref(refJoin(left, right, key, key, residual)); canonical(want) != canonical(merged) {
			t.Fatalf("seed %d: merge join over sorts %v, reference %v", seed, merged, want)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAggregationStrategiesAgree checks the hash aggregate and the
// sorted GroupAggregate, and the hash DISTINCT and Unique over sorted
// rows, against the reference on random multi-typed groups, for every
// input shape feeds draws.
func TestPropertyAggregationStrategiesAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		space := keySpace(r)
		rows := make([]storage.Row, 1+r.Intn(300))
		for i := range rows {
			v := types.NewInt(int64(r.Intn(50)))
			if r.Intn(8) == 0 {
				v = types.NewNull(types.Int)
			}
			rows[i] = storage.Row{randKey(r, space), v, types.NewInt(int64(i)), types.NewText("pad")}
		}
		specs := func() []*AggSpec {
			return []*AggSpec{
				{Kind: AggCountStar},
				{Kind: AggCount, Arg: col(1, types.Int)},
				{Kind: AggSum, Arg: col(1, types.Int)},
				{Kind: AggAvg, Arg: col(1, types.Int)},
				{Kind: AggMin, Arg: col(1, types.Int)},
				{Kind: AggMax, Arg: col(1, types.Int)},
				{Kind: AggCount, Arg: col(1, types.Int), Distinct: true},
			}
		}
		groupBy := []Expr{col(0, types.Int)}
		ref := mustRef(t)
		sorted := ref(refSort(rows, []SortKey{{Expr: groupBy[0]}}))
		keep := &BinExpr{Op: ">=", L: col(2, types.Int), R: lit(types.NewInt(int64(r.Intn(8))))}
		for _, fd := range feeds(r, keep, 3) {
			rowsEqual(t, collectBatches(t, &BatchHashAggIter{In: fd.open(rows), GroupBy: groupBy, Aggs: specs()}),
				ref(refGroup(fd.rows(t, rows), groupBy, specs())))
			grouped := collectBatches(t, &BatchSortedAggIter{In: fd.open(sorted), GroupBy: groupBy, Aggs: specs()})
			if want := ref(refGroup(fd.rows(t, sorted), groupBy, specs())); canonical(want) != canonical(grouped) {
				t.Fatalf("seed %d %+v: GroupAggregate %v, reference %v", seed, fd, grouped, want)
			}
		}

		// DISTINCT over [key, value, pad], sorted: pad is one text in every
		// row, the column a pruning scan may leave empty.
		distinct := make([]storage.Row, len(rows))
		for i, row := range rows {
			distinct[i] = storage.Row{row[0], row[1], types.NewText("pad")}
		}
		dcols := []Expr{col(0, types.Int), col(1, types.Int), col(2, types.Text)}
		distinct = ref(refSort(distinct, []SortKey{{Expr: dcols[0]}, {Expr: dcols[1]}}))
		dkeep := &BinExpr{Op: ">=", L: col(1, types.Int), R: lit(types.NewInt(int64(r.Intn(8))))}
		for _, fd := range feeds(r, dkeep, 2) {
			unique := collectBatches(t, &BatchDedupIter{In: fd.open(distinct)})
			in := fd.rows(t, distinct)
			rowsEqual(t, unique, refUnique(in))
			if want := ref(refGroup(in, dcols, nil)); canonical(want) != canonical(unique) {
				t.Fatalf("seed %d %+v: Unique %v, hash DISTINCT reference %v", seed, fd, unique, want)
			}
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
	var sb strings.Builder
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte(0)
	}
	return sb.String()
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

// randGuardedPred returns a predicate whose lazy node holds an operand
// that errors — ÷0 or negating text — on some rows, guarded so that the
// node never evaluates it there: AND/OR whose right side errors only on
// rows the left side decides, a COALESCE whose later argument errors only
// where an earlier one is never NULL, an IN list whose item after a match
// errors. Unless safe, the guard is sometimes turned around and the error
// must surface on both pipelines. Column 0 is an Int, column 1 a Text.
func randGuardedPred(r *rand.Rand, safe bool) Expr {
	num, txt := col(0, types.Int), col(1, types.Text)
	ten, zero := lit(types.NewInt(10)), lit(types.NewInt(0))
	// divides fails where num is 0.
	divides := &BinExpr{Op: ">", L: &BinExpr{Op: "/", L: ten, R: num}, R: zero}
	isZero := &BinExpr{Op: "=", L: num, R: zero}
	open := !safe && r.Intn(4) == 0
	guard := func(e, turned Expr) Expr {
		if open {
			return turned
		}
		return e
	}
	var e Expr
	switch r.Intn(5) {
	case 0:
		e = &BinExpr{Op: "AND", L: guard(&NotExpr{X: isZero}, isZero), R: divides}
	case 1:
		e = &BinExpr{Op: "OR", L: guard(isZero, &NotExpr{X: isZero}), R: divides}
	case 2:
		notNull := &IsNullExpr{X: txt, Not: true}
		e = &BinExpr{Op: "OR", L: guard(notNull, &IsNullExpr{X: txt}),
			R: &IsNullExpr{X: &NegExpr{X: txt}}}
	case 3:
		first := guard(&CoalesceExpr{Args: []Expr{num, lit(types.NewInt(1))}}, num)
		e = &BinExpr{Op: ">=", L: &CoalesceExpr{Args: []Expr{
			first, &BinExpr{Op: "/", L: ten, R: zero}}}, R: zero}
	default:
		e = &InListExpr{X: num,
			List: []Expr{guard(num, lit(types.NewInt(int64(r.Intn(5))))), &BinExpr{Op: "/", L: ten, R: num}},
			Not:  r.Intn(2) == 0}
	}
	if r.Intn(3) == 0 {
		e = &NotExpr{X: e}
	}
	return e
}

// randPred returns a random predicate mixing eager nodes (comparisons,
// BETWEEN, IS NULL, LIKE, NOT, IN/NOT IN over arrays) with lazy ones (AND,
// OR, IN-list, COALESCE), some of them guarding an erroring operand. safe
// keeps the predicate total (no ÷0 candidates).
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
	switch r.Intn(8) {
	case 7:
		return randGuardedPred(r, safe)
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
// projections, the pipeline must produce exactly the output of the row
// evaluator, refEval — same rows, same order — and must error exactly when
// it errors (÷0, type mismatches, negated text). The lazy nodes must skip
// exactly the operands refEval skips, or a guarded error surfaces on one
// side only. A third of the inputs span three batches. The predicate runs
// twice: as generated, and with every constant a parameter (SetParams).
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
			In: filterOn(&sliceBatches{rows: rows}, pred)})
		compare("no-limit", got, gotErr, want, wantErr)

		// The same predicate with every constant a parameter, its value
		// given to the filter's context.
		ppred, params := paramize(pred, nil)
		got, gotErr = CollectBatches(&BatchProjectIter{Exprs: projs,
			In: filterOn(&sliceBatches{rows: rows}, ppred, params...)})
		compare("params", got, gotErr, want, wantErr)

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
				In: filterOn(&sliceBatches{rows: rows}, safePred)}})
		compare("limit", gotL, gotLErr, wantL, wantLErr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// paramize returns e with every constant replaced by a parameter, and the
// parameter values: params with the constants' values appended in slot
// order.
func paramize(e Expr, params []types.Datum) (Expr, []types.Datum) {
	list := func(es []Expr) []Expr {
		out := make([]Expr, len(es))
		for i, a := range es {
			out[i], params = paramize(a, params)
		}
		return out
	}
	one := func(e Expr) Expr {
		var out Expr
		out, params = paramize(e, params)
		return out
	}
	switch x := e.(type) {
	case *ConstExpr:
		return &ParamExpr{Slot: len(params), Typ: x.Val.Typ}, append(params, x.Val)
	case *BinExpr:
		return &BinExpr{Op: x.Op, L: one(x.L), R: one(x.R)}, params
	case *NotExpr:
		return &NotExpr{X: one(x.X)}, params
	case *NegExpr:
		return &NegExpr{X: one(x.X)}, params
	case *IsNullExpr:
		return &IsNullExpr{X: one(x.X), Not: x.Not}, params
	case *BetweenExpr:
		return &BetweenExpr{X: one(x.X), Lo: one(x.Lo), Hi: one(x.Hi), Not: x.Not}, params
	case *InListExpr:
		return &InListExpr{X: one(x.X), List: list(x.List), Not: x.Not}, params
	case *LikeExpr:
		return &LikeExpr{X: one(x.X), Pattern: one(x.Pattern), Not: x.Not}, params
	case *AnyExpr:
		return &AnyExpr{X: one(x.X), Op: x.Op, Array: one(x.Array)}, params
	case *CastExpr:
		return &CastExpr{X: one(x.X), To: x.To}, params
	case *CoalesceExpr:
		return &CoalesceExpr{Args: list(x.Args)}, params
	case *CallExpr:
		return &CallExpr{Def: x.Def, Args: list(x.Args)}, params
	default:
		return e, params
	}
}

// TestPropertyParallelMatchesSerial is the differential test of the
// scan→filter→project pipeline: over random schemas, data, predicates, and
// projections, it must produce the reference's output — same rows, same
// order (heap order). The name is kept from when a partitioned pipeline
// ran beside it; its serial leg is what remains.
func TestPropertyParallelMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text}
		for n := r.Intn(3); n > 0; n-- {
			colTypes = append(colTypes,
				[]types.Type{types.Int, types.Float, types.Text, types.Bool}[r.Intn(4)])
		}
		rows := randBatchRows(r, colTypes, drawRows(r, r.Intn(300)))
		h, _ := heapOf(t, colTypes, rows)
		pred := randPred(r, colTypes, 3, true)
		projs := make([]Expr, 1+r.Intn(3))
		for i := range projs {
			if r.Intn(3) == 0 {
				projs[i] = randTextExpr(r, colTypes, 2)
			} else {
				projs[i] = randNumExpr(r, colTypes, 2, true)
			}
		}

		ref := mustRef(t)
		want := ref(refProject(ref(refFilter(rows, pred)), projs))
		batch := collectBatches(t, &BatchProjectIter{Exprs: projs,
			In: filterOn(NewBatchScan(h, nil), pred)})
		rowsEqual(t, batch, want)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyParallelAggMatchesSerial checks the hash aggregate — GROUP
// BY with COUNT/SUM/AVG/MIN/MAX, the same without GROUP BY (the one group
// folds whole batches), plus the grouped DISTINCT case (no aggregates) —
// against the reference. The name is kept from when a two-phase parallel
// aggregate ran beside it.
func TestPropertyParallelAggMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Int, types.Float, types.Text}
		rows := randBatchRows(r, colTypes, drawRows(r, r.Intn(400)))
		h, _ := heapOf(t, colTypes, rows)
		var groupBy []Expr
		switch r.Intn(3) {
		case 1:
			groupBy = []Expr{col(0, types.Int)}
		case 2:
			groupBy = []Expr{col(0, types.Int), col(3, types.Text)}
		}
		specs := func() []*AggSpec {
			return []*AggSpec{
				{Kind: AggCountStar},
				{Kind: AggCount, Arg: col(1, types.Int)},
				{Kind: AggSum, Arg: col(1, types.Int)},
				{Kind: AggAvg, Arg: col(2, types.Float)},
				{Kind: AggMin, Arg: col(2, types.Float)},
				{Kind: AggMax, Arg: col(3, types.Text)},
			}
		}
		ref := mustRef(t)
		want := ref(refGroup(rows, groupBy, specs()))
		// The aggregate and the reference both emit in encoded-key order.
		rowsEqual(t, collectBatches(t, &BatchHashAggIter{
			In: NewBatchScan(h, nil), GroupBy: groupBy, Aggs: specs()}), want)

		// Grouped DISTINCT: group-by columns, no aggregate states.
		distinct := collectBatches(t, &BatchHashAggIter{
			In: NewBatchScan(h, nil), GroupBy: groupBy})
		rowsEqual(t, distinct, ref(refGroup(rows, groupBy, nil)))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyParallelJoinMatchesSerial checks the hash join probing a
// heap scan against the reference join: identical output order, and on
// the larger inputs more than one output batch. The name is kept from when
// a partitioned probe ran beside it.
func TestPropertyParallelJoinMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text}
		rows := randBatchRows(r, colTypes, drawRows(r, r.Intn(300)))
		h, _ := heapOf(t, colTypes, rows)
		build := make([]storage.Row, 1+r.Intn(30))
		for i := range build {
			key := types.NewInt(int64(r.Intn(9) - 4))
			if r.Intn(8) == 0 {
				key = types.NewNull(types.Int)
			}
			build[i] = storage.Row{key, types.NewInt(int64(i))}
		}
		probeKeys := []Expr{col(0, types.Int)}
		buildKeys := []Expr{col(0, types.Int)}
		var residual Expr
		if r.Intn(2) == 0 {
			residual = &BinExpr{Op: "<>", L: col(1, types.Text), R: lit(types.NewText("b"))}
		}
		want := mustRef(t)(refJoin(rows, build, probeKeys, buildKeys, residual))
		got := collectBatches(t, &BatchHashJoinIter{
			Probe: NewBatchScan(h, nil), Build: &sliceBatches{rows: build},
			ProbeKeys: probeKeys, BuildKeys: buildKeys, Residual: residual, BuildWidth: 2})
		rowsEqual(t, got, want)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
