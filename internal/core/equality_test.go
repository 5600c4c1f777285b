package core

import (
	"fmt"
	"math"

	"sort"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// eqValues are the values of key k in TestEqualityIsPlanIndependent, as
// JSON and as the number COALESCE(CAST(k AS integer), CAST(k AS real))
// reads (nil where that is NULL): the two zeros, which are equal, the
// integers 2^53 and 2^53+1, which are not, text, null and a missing key.
var eqValues = []struct {
	json string
	num  *types.Datum
}{
	{`0.0`, ptr(types.NewFloat(0))},
	{`-0.0`, ptr(types.NewFloat(math.Copysign(0, -1)))},
	{`9007199254740992`, ptr(types.NewInt(1 << 53))},
	{`9007199254740993`, ptr(types.NewInt(1<<53 + 1))},
	{`"text"`, nil},
	{`null`, nil},
	{``, nil},
}

func ptr(d types.Datum) *types.Datum { return &d }

// eqNum is the key as one column holding Ints and Floats.
func eqNum(alias string) string {
	return fmt.Sprintf("COALESCE(CAST(%[1]s.k AS integer), CAST(%[1]s.k AS real))", alias)
}

// eqDB loads collection eq (three pages and a tail, k cycling through
// eqValues) and side (one document per value), with k materialized or
// virtual, tuning the planner's thresholds first.
func eqDB(t *testing.T, materialize bool, hashJoinMaxBuildRows, hashAggMaxGroups float64) *DB {
	t.Helper()
	db := Open(DefaultConfig())
	cfg := db.RDBMS().PlanConfig()
	cfg.HashJoinMaxBuildRows, cfg.HashAggMaxGroups = hashJoinMaxBuildRows, hashAggMaxGroups
	doc := func(id int) string {
		v := eqValues[id%len(eqValues)]
		if v.json == "" {
			return fmt.Sprintf(`{"id":%d}`, id)
		}
		return fmt.Sprintf(`{"id":%d,"k":%s}`, id, v.json)
	}
	for name, n := range map[string]int{"eq": 3*storage.PageCapacity + 20, "side": len(eqValues)} {
		if err := db.CreateCollection(name); err != nil {
			t.Fatal(err)
		}
		lines := make([]string, n)
		for i := range lines {
			lines[i] = doc(i)
		}
		if _, err := db.LoadDocuments(name, mustDocs(t, lines...)); err != nil {
			t.Fatal(err)
		}
		if materialize {
			if err := db.SetMaterialized(name, "k", true); err != nil {
				t.Fatal(err)
			}
			if _, err := NewMaterializer(db).RunOnce(name); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.RDBMS().Analyze(name); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestEqualityIsPlanIndependent runs equality over a key holding both
// zeros, 2^53 and 2^53+1, text and NULL through every operator that can
// answer it — hash join, merge join, nested loop, hash aggregate,
// GroupAggregate, SELECT DISTINCT by hash and by Sort+Unique,
// COUNT(DISTINCT) and the reference plan — over a virtual and a
// materialized key. Every one must give the
// answer types.Equal defines: -0.0 joins and groups with 0.0, and 2^53
// never with 2^53+1. A group is represented by its first-seen key.
func TestEqualityIsPlanIndependent(t *testing.T) {
	// The answers types.Equal defines, computed here from eqValues.
	nEq := 3*storage.PageCapacity + 20
	var wantJoin, wantGroups []string
	counts := map[int]int{} // first equal value's index → rows
	nulls := 0
	for id := 0; id < nEq; id++ {
		v := eqValues[id%len(eqValues)]
		if v.num == nil {
			nulls++
			continue
		}
		first := -1
		for j, w := range eqValues {
			if w.num != nil && types.Equal(*v.num, *w.num) {
				if first < 0 {
					first = j
				}
				wantJoin = append(wantJoin, fmt.Sprintf("%d|%d|", id, j))
			}
		}
		counts[first]++
	}
	for j, c := range counts {
		wantGroups = append(wantGroups, fmt.Sprintf("%v|%d|", *eqValues[j].num, c))
	}
	wantGroups = append(wantGroups, fmt.Sprintf("∅|%d|", nulls))
	// sorted renders lines as sortedResultKey renders a result.
	sorted := func(lines []string) string {
		lines = append(lines[:len(lines):len(lines)], "")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}

	joinSQL := fmt.Sprintf(`SELECT e.id, s.id FROM eq e, side s WHERE %s = %s`, eqNum("e"), eqNum("s"))
	loopSQL := fmt.Sprintf(`SELECT e.id, s.id FROM eq e, side s WHERE NOT (%s <> %s)`, eqNum("e"), eqNum("s"))
	groupSQL := fmt.Sprintf(`SELECT %[1]s, COUNT(*) FROM eq GROUP BY %[1]s`, eqNum("eq"))
	distinctSQL := fmt.Sprintf(`SELECT DISTINCT %s FROM eq`, eqNum("eq"))
	countSQL := fmt.Sprintf(`SELECT COUNT(DISTINCT %s) FROM eq`, eqNum("eq"))

	type leg struct {
		name     string
		joinMax  float64 // HashJoinMaxBuildRows
		groupMax float64 // HashAggMaxGroups
		settings []string
		join     string // the join operator the leg must plan
		group    string // the grouping operator
		unique   string // SELECT DISTINCT's operator
	}
	batch := []string{`SET enable_batch = on`}
	reference := []string{`SET enable_batch = off`}
	legs := []leg{
		{"hash", 1 << 20, 10000, batch, "Hash Join", "HashAggregate", "HashAggregate"},
		{"sorted", 0, 0, batch, "Merge Join", "GroupAggregate", "Unique"},
		{"reference", 1 << 20, 10000, reference, "Hash Join", "HashAggregate", "HashAggregate"},
		{"reference-sorted", 0, 0, reference, "Merge Join", "GroupAggregate", "Unique"},
	}
	for _, materialize := range []bool{false, true} {
		for _, l := range legs {
			name := fmt.Sprintf("%s/materialized=%t", l.name, materialize)
			db := eqDB(t, materialize, l.joinMax, l.groupMax)
			mustSet(t, db, l.settings...)
			query := func(q, op string) *QueryResult {
				t.Helper()
				if op != "" {
					text, err := db.Explain(q)
					if err != nil {
						t.Fatalf("%s: EXPLAIN %s: %v", name, q, err)
					}
					if !strings.Contains(text, op) {
						t.Fatalf("%s: %s plans no %s:\n%s", name, q, op, text)
					}
				}
				res, err := db.Query(q)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, q, err)
				}
				return res
			}
			want := sorted(wantJoin)
			if got := sortedResultKey(query(joinSQL, l.join)); got != want {
				t.Errorf("%s: %s join:\n%s\nwant\n%s", name, l.join, got, want)
			}
			if got := sortedResultKey(query(loopSQL, "Nested Loop")); got != want {
				t.Errorf("%s: nested loop join:\n%s\nwant\n%s", name, got, want)
			}
			if got, want := sortedResultKey(query(groupSQL, l.group)), sorted(wantGroups); got != want {
				t.Errorf("%s: %s:\n%s\nwant\n%s", name, l.group, got, want)
			}
			distinct := query(distinctSQL, l.unique)
			count := query(countSQL, "")
			if len(distinct.Rows) != len(wantGroups) || count.Rows[0][0].I != int64(len(wantGroups)-1) {
				t.Errorf("%s: SELECT DISTINCT has %d rows and COUNT(DISTINCT) is %v; want %d values and NULL",
					name, len(distinct.Rows), count.Rows[0][0], len(wantGroups)-1)
			}
		}
	}
}
