package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// randKey draws a multi-typed key over k in [0, space): the Int k, the
// Float k that equals it, -0.0 for 0 (equal to both zeros), a Float
// between two integers, 2^53+2k as an Int or the Float equal to it, text,
// numeric arrays with a NULL element, and NULL. Arrays hold only numerics
// and NULLs so every pair of keys is ordered by CompareOrder, and the
// offsets beyond 2^53 are even so that equality stays transitive
// (2^53+1 would equal the float 2^53 and 2^53 both), as the sorted
// operators need.
func randKey(r *rand.Rand, space int) types.Datum {
	k := r.Intn(space)
	switch r.Intn(10) {
	case 0:
		return types.NewNull(types.Unknown)
	case 1:
		return types.NewFloat(float64(k))
	case 2:
		if k == 0 {
			return types.NewFloat(math.Copysign(0, -1))
		}
		return types.NewFloat(float64(k) + 0.5)
	case 3:
		return types.NewText(fmt.Sprintf("t%d", k))
	case 4:
		return types.NewArray(types.NewInt(int64(k)), types.NewNull(types.Int))
	case 5:
		return types.NewArray(types.NewFloat(float64(k)), types.NewNull(types.Unknown))
	case 6:
		big := int64(1)<<53 + 2*int64(k)
		if r.Intn(2) == 0 {
			return types.NewFloat(float64(big))
		}
		return types.NewInt(big)
	default:
		return types.NewInt(int64(k))
	}
}

// keySpace draws a key range whose group counts land on either side of
// the key table's growth points (32 ids, then every doubling).
func keySpace(r *rand.Rand) int {
	return []int{1, 3, 5, 6, 7, 13, 14, 27, 60, 400}[r.Intn(10)]
}

// TestPropertyMultiTypedKeysMatchReference holds every key-table consumer
// to the reference on multi-typed keys: the hash aggregate (with a
// DISTINCT aggregate over multi-typed values), the hash join — and the
// operators that meet the same keys sorted: GroupAggregate, Unique and
// the merge join, each over every input shape feeds draws. The reference
// matches keys by linear search with types.KeyEqual and hashes nothing.
func TestPropertyMultiTypedKeysMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		space := keySpace(r)
		rows := make([]storage.Row, drawRows(r, r.Intn(400)))
		for i := range rows {
			rows[i] = storage.Row{randKey(r, space), types.NewInt(int64(r.Intn(50))), randKey(r, 3)}
		}
		groupBy := []Expr{col(0, types.Int)}
		if r.Intn(3) == 0 {
			groupBy = append(groupBy, col(2, types.Int))
		}
		// MIN/MAX read the one-typed column: over a multi-typed one the
		// first-seen-type rule picks the input's first value.
		specs := func() []*AggSpec {
			return []*AggSpec{
				{Kind: AggCountStar},
				{Kind: AggSum, Arg: col(1, types.Int)},
				{Kind: AggMin, Arg: col(1, types.Int)},
				{Kind: AggMax, Arg: col(1, types.Int)},
				{Kind: AggCount, Arg: col(2, types.Int), Distinct: true},
			}
		}
		ref := mustRef(t)
		rowsEqual(t, collectBatches(t, &BatchHashAggIter{
			In: &sliceBatches{rows: rows}, GroupBy: groupBy, Aggs: specs()}),
			ref(refGroup(rows, groupBy, specs())))

		sortKeys := make([]SortKey, len(groupBy))
		for i, g := range groupBy {
			sortKeys[i] = SortKey{Expr: g}
		}
		sorted := ref(refSort(rows, sortKeys))
		keys := make([]storage.Row, len(sorted))
		for i, row := range sorted {
			keys[i] = storage.Row{row[0]}
		}
		keep := &BinExpr{Op: ">=", L: col(1, types.Int), R: lit(types.NewInt(int64(r.Intn(8))))}
		for _, fd := range feeds(r, keep) {
			in := fd.rows(t, sorted)
			grouped := collectBatches(t, &BatchSortedAggIter{In: fd.open(sorted), GroupBy: groupBy, Aggs: specs()})
			if want := ref(refGroup(in, groupBy, specs())); canonical(grouped) != canonical(want) {
				t.Fatalf("seed %d %+v: GroupAggregate %v, reference %v", seed, fd, grouped, want)
			}
			fk := feed{size: fd.size, sel: fd.sel}
			unique := collectBatches(t, &BatchDedupIter{In: fk.open(keys)})
			rowsEqual(t, unique, refUnique(keys))
			if want := ref(refGroup(keys, groupBy[:1], nil)); canonical(unique) != canonical(want) {
				t.Fatalf("seed %d %+v: Unique %v, reference %v", seed, fk, unique, want)
			}
		}

		build := make([]storage.Row, 1+r.Intn(60))
		for i := range build {
			build[i] = storage.Row{randKey(r, space), types.NewInt(int64(i))}
		}
		joinKeys := []Expr{col(0, types.Int)}
		want := ref(refJoin(rows, build, joinKeys, joinKeys, nil))
		rowsEqual(t, collectBatches(t, &BatchHashJoinIter{
			Probe: &sliceBatches{rows: rows}, Build: &sliceBatches{rows: build},
			ProbeKeys: joinKeys, BuildKeys: joinKeys, BuildWidth: 2}), want)
		sortedBuild := ref(refSort(build, []SortKey{{Expr: joinKeys[0]}}))
		for _, fd := range feeds(r, nil) {
			merged := collectBatches(t, &BatchSortedJoinIter{
				Left: fd.open(sorted), Right: fd.open(sortedBuild), LeftKeys: joinKeys, RightKeys: joinKeys,
			})
			if canonical(merged) != canonical(want) {
				t.Fatalf("seed %d %+v: merge join %v, reference %v", seed, fd, merged, want)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestKeyTableFirstSeenRepresents pins the group rule where Int/Float
// equality is not transitive: 2^53 and 2^53+1 are two groups, and the
// float 2^53 that equals both joins the one seen first. -0.0 and 0.0 are
// one group, represented by the value seen first.
func TestKeyTableFirstSeenRepresents(t *testing.T) {
	const big = 1 << 53
	negZero := types.NewFloat(math.Copysign(0, -1))
	rows := []storage.Row{
		{types.NewInt(big + 1)}, {types.NewInt(big)}, {types.NewFloat(big)},
		{negZero}, {types.NewInt(0)}, {types.NewFloat(0)},
	}
	got := collectBatches(t, &BatchHashAggIter{
		In: &sliceBatches{rows: rows}, GroupBy: []Expr{col(0, types.Int)},
		Aggs: []*AggSpec{{Kind: AggCountStar}}})
	// Output order is the encoding's: 2^53+1 and 2^53 share one, so they
	// come in order of appearance, and the sign bit sorts -0.0 last.
	rowsEqual(t, got, []storage.Row{
		{types.NewInt(big + 1), types.NewInt(2)},
		{types.NewInt(big), types.NewInt(1)},
		{negZero, types.NewInt(3)},
	})
}

// TestHashJoinInexactKeys holds the hash join to the nested-loop
// reference on the build keys one key id cannot answer for: Ints beyond
// 2^53 beside the Float they both equal (either side first), and Text and
// Bytes of one content, which hash alike.
func TestHashJoinInexactKeys(t *testing.T) {
	const big = 1 << 53
	vals := []types.Datum{
		types.NewFloat(big), types.NewInt(big + 1), types.NewInt(big), types.NewInt(7),
		types.NewText("ab"), types.NewBytes([]byte("ab")), types.NewNull(types.Int),
		types.NewFloat(7), types.NewInt(big + 1),
	}
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8}, {2, 8, 1, 0, 5, 4, 7, 3, 6}, {3, 7, 4}} {
		var build []storage.Row
		for i, v := range order {
			build = append(build, storage.Row{vals[v], types.NewInt(int64(i))})
		}
		probe := make([]storage.Row, 3*len(vals))
		for i := range probe {
			probe[i] = storage.Row{vals[i%len(vals)], types.NewInt(int64(i))}
		}
		keys := []Expr{col(0, types.Int)}
		want := mustRef(t)(refJoin(probe, build, keys, keys, nil))
		rowsEqual(t, collectBatches(t, &BatchHashJoinIter{
			Probe: &sliceBatches{rows: probe}, Build: &sliceBatches{rows: build},
			ProbeKeys: keys, BuildKeys: keys, BuildWidth: 2}), want)
	}
}

// TestHashAggAllocsFlatInGroups pins that a grouped hash aggregate's
// allocations do not grow with its group count: one key table, one flat
// state slice and one ordering arena, each grown by doubling.
func TestHashAggAllocsFlatInGroups(t *testing.T) {
	allocs := func(groups int) float64 {
		rows := make([]storage.Row, 4*DefaultBatchSize)
		for i := range rows {
			rows[i] = storage.Row{types.NewInt(int64(i % groups)), types.NewInt(int64(i))}
		}
		in := &sliceBatches{rows: rows}
		return testing.AllocsPerRun(5, func() {
			in.pos = 0
			it := &BatchHashAggIter{In: in, GroupBy: []Expr{col(0, types.Int)}, Aggs: []*AggSpec{
				{Kind: AggCountStar}, {Kind: AggSum, Arg: col(1, types.Int)},
			}}
			for {
				b, err := it.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
			}
			it.Close()
		})
	}
	few, many := allocs(10), allocs(1000)
	t.Logf("allocations per run: %.0f with 10 groups, %.0f with 1000", few, many)
	if many-few >= 50 {
		t.Errorf("1000 groups allocate %.0f times, 10 groups %.0f: grows with the group count", many, few)
	}
}

// TestAnyEquality pins x op ANY(arr) over the cases = answers by
// equality: NULL elements make a miss NULL, an empty array is false,
// numerics meet across types, other types never match, and <> keeps its
// ordering rule.
func TestAnyEquality(t *testing.T) {
	arr := func(ds ...types.Datum) types.Datum { return types.NewArray(ds...) }
	null := types.NewNull(types.Unknown)
	tru, fls, unk := types.NewBool(true), types.NewBool(false), types.NewNull(types.Bool)
	for _, c := range []struct {
		x    types.Datum
		op   string
		arr  types.Datum
		want types.Datum
	}{
		{types.NewInt(1), "=", arr(types.NewFloat(1)), tru},
		{types.NewFloat(math.Copysign(0, -1)), "=", arr(types.NewInt(0)), tru},
		{types.NewInt(1), "=", arr(), fls},
		{types.NewInt(1), "=", arr(null), unk},
		{types.NewInt(1), "=", arr(null, types.NewInt(1)), tru},
		{types.NewInt(2), "=", arr(null, types.NewInt(1)), unk},
		{types.NewInt(1), "=", arr(types.NewText("1"), types.NewBool(true), types.NewBytes([]byte{1})), fls},
		{types.NewText("a"), "=", arr(types.NewInt(1), types.NewText("a")), tru},
		{types.NewInt(1 << 53), "=", arr(types.NewInt(1<<53 + 1)), fls},
		{null, "=", arr(types.NewInt(1)), unk},
		{types.NewInt(1), "=", types.NewNull(types.Array), unk},
		{types.NewInt(1), "<>", arr(types.NewText("x"), types.NewInt(1)), fls},
		{types.NewInt(1), "<>", arr(types.NewInt(1), types.NewFloat(2)), tru},
		{types.NewInt(1), "<>", arr(), fls},
		{types.NewInt(1), "<", arr(types.NewText("z"), types.NewInt(0)), fls},
	} {
		e := &AnyExpr{X: lit(c.x), Op: c.op, Array: lit(c.arr)}
		got := evalOn(t, e, nil)
		if got.IsNull() != c.want.IsNull() || got.Bool() != c.want.Bool() {
			t.Errorf("%v %s ANY(%v) = %v, want %v", c.x, c.op, c.arr, got, c.want)
		}
	}
}
