package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/twittergen"
)

// TwitterFixture holds the synthetic-tweet Sinew database for the Table
// 1/2 and Appendix B experiments.
type TwitterFixture struct {
	Sinew *core.DB
	N     int
}

// SetupTwitter loads n synthetic tweets plus the delete-notice stream into
// a fresh Sinew database with everything virtual (no materialization, no
// statistics).
func SetupTwitter(n int, seed int64) (*TwitterFixture, error) {
	db := core.Open(core.DefaultConfig())
	if err := db.CreateCollection("tweets"); err != nil {
		return nil, err
	}
	if err := db.CreateCollection("deletes"); err != nil {
		return nil, err
	}
	cfg := twittergen.DefaultConfig(n)
	if _, err := db.LoadDocuments("tweets", twittergen.GenerateTweets(n, seed, cfg)); err != nil {
		return nil, err
	}
	if _, err := db.LoadDocuments("deletes", twittergen.GenerateDeletes(n, seed, 0.2, cfg)); err != nil {
		return nil, err
	}
	// Scale the planner's work_mem analogues to the dataset the way the
	// paper's 10M-tweet corpus related to Postgres's defaults: hash
	// strategies fit in memory only for modest cardinalities, so correct
	// estimates (physical columns + ANALYZE) and the fixed virtual-column
	// defaults land on different sides of the threshold.
	pc := db.RDBMS().PlanConfig()
	pc.HashAggMaxGroups = float64(n) / 8
	pc.HashJoinMaxBuildRows = float64(n) / 8
	return &TwitterFixture{Sinew: db, N: n}, nil
}

// Table1Queries are the four Twitter queries of Table 1.
func Table1Queries() map[string]string {
	return map[string]string{
		"T1-1": `SELECT DISTINCT "user.id" FROM tweets`,
		"T1-2": `SELECT SUM(retweet_count) FROM tweets GROUP BY "user.id"`,
		"T1-3": `SELECT "user.id" FROM tweets t1, deletes d1, deletes d2 ` +
			`WHERE t1.id_str = d1."delete.status.id_str" ` +
			`AND d1."delete.status.user_id" = d2."delete.status.user_id" ` +
			`AND t1."user.lang" = 'msa'`,
		"T1-4": `SELECT t1."user.screen_name", t2."user.screen_name" ` +
			`FROM tweets t1, tweets t2, tweets t3 ` +
			`WHERE t1."user.screen_name" = t3."user.screen_name" ` +
			`AND t1."user.screen_name" = t2.in_reply_to_screen_name ` +
			`AND t2."user.screen_name" = t3.in_reply_to_screen_name`,
	}
}

// table2MaterializeKeys are the attributes the physical phase materializes
// (every column Table 1's queries touch).
var table2MaterializeKeys = map[string][]string{
	"tweets": {
		"user.id", "user.lang", "user.screen_name",
		"in_reply_to_screen_name", "id_str", "retweet_count",
	},
	"deletes": {"delete.status.id_str", "delete.status.user_id"},
}

// table2Order is the order Table 2 lists the Table 1 queries in.
func table2Order() []string { return []string{"T1-1", "T1-2", "T1-3", "T1-4"} }

// materializeTable2 moves every key Table 1's queries touch into a
// physical column and gathers statistics: Table 2's physical state.
func materializeTable2(f *TwitterFixture) error {
	mat := core.NewMaterializer(f.Sinew)
	for table, keys := range table2MaterializeKeys {
		for _, k := range keys {
			if err := f.Sinew.SetMaterialized(table, k, true); err != nil {
				return err
			}
		}
		if _, err := mat.RunOnce(table); err != nil {
			return err
		}
		if err := f.Sinew.RDBMS().Analyze(table); err != nil {
			return err
		}
	}
	return nil
}

// Table2 reproduces "Table 2: Effect of Virtual Columns on Query Plans":
// it EXPLAINs and times the Table 1 queries with everything virtual, then
// materializes the referenced columns, refreshes statistics, and repeats.
// The same SQL must produce different operator choices because the
// optimizer sees fixed default estimates through extraction UDFs but true
// statistics through physical columns (§3.1.1).
func Table2(f *TwitterFixture, runQueries bool) (*Table, error) {
	queries := Table1Queries()
	order := table2Order()

	type phaseResult struct {
		ops  map[string]string
		time map[string]time.Duration
	}
	capture := func() (phaseResult, error) {
		pr := phaseResult{ops: map[string]string{}, time: map[string]time.Duration{}}
		for _, q := range order {
			ops, leaves, err := f.Sinew.PlanShape(queries[q])
			if err != nil {
				return pr, fmt.Errorf("bench: plan %s: %w", q, err)
			}
			pr.ops[q] = summarizeOps(ops)
			if len(leaves) > 1 {
				pr.ops[q] += " [" + strings.Join(leaves, " ") + "]"
			}
			if runQueries {
				start := time.Now()
				if _, err := f.Sinew.Query(queries[q]); err != nil {
					return pr, fmt.Errorf("bench: run %s: %w", q, err)
				}
				pr.time[q] = time.Since(start)
			}
		}
		return pr, nil
	}

	virtual, err := capture()
	if err != nil {
		return nil, err
	}

	if err := materializeTable2(f); err != nil {
		return nil, err
	}

	physical, err := capture()
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  fmt.Sprintf("Table 2 — Effect of virtual columns on query plans (%d tweets)", f.N),
		Header: []string{"Query", "With Virtual Column", "With Physical Column"},
	}
	for _, q := range order {
		t.AddRow(q, virtual.ops[q], physical.ops[q])
	}
	if runQueries {
		for _, q := range order {
			t.AddNote("%s runtime: virtual %s s, physical %s s (%.1fx)",
				q, fmtDur(virtual.time[q]), fmtDur(physical.time[q]),
				safeRatio(virtual.time[q], physical.time[q]))
		}
	}
	return t, nil
}

func safeRatio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// summarizeOps compresses a pre-order operator list into the interesting
// subsequence (aggregation/distinct/join/sort operators, in order).
func summarizeOps(ops []string) string {
	var keep []string
	for _, op := range ops {
		switch op {
		case "HashAggregate", "GroupAggregate", "Unique", "Hash Join",
			"Merge Join", "Nested Loop", "Sort":
			keep = append(keep, op)
		}
	}
	if len(keep) == 0 {
		return "Seq Scan"
	}
	return strings.Join(keep, " > ")
}

// Table5Queries are Appendix B's three queries.
func Table5Queries() []string {
	return []string{
		`SELECT "user.id" FROM tweets`,
		`SELECT * FROM tweets WHERE "user.lang" = 'en'`,
		`SELECT * FROM tweets ORDER BY "user.friends_count" DESC`,
	}
}

// Table5 reproduces "Table 5: Virtual vs Physical Column Performance"
// (Appendix B): each query runs with the referenced attribute in a virtual
// column, then again after materializing it. The overhead of extraction
// should be small (<5% projection, <2% selection/sort in the paper).
func Table5(f *TwitterFixture, reps int) (*Table, error) {
	if reps < 1 {
		reps = 1
	}
	queries := Table5Queries()
	// Minimum over reps (plus one warm-up): the overhead comparison needs
	// single-digit-percent precision, and the minimum is the standard
	// noise-robust microbenchmark statistic.
	timeQuery := func(sql string) (time.Duration, error) {
		if _, err := f.Sinew.Query(sql); err != nil {
			return 0, err
		}
		best := time.Duration(0)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := f.Sinew.Query(sql); err != nil {
				return 0, err
			}
			d := time.Since(start)
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}

	// Freeze page statistics before the virtual leg: the physical leg
	// re-analyzes after materializing, so without this the virtual side runs
	// un-striped scans and the overhead column conflates column layout with
	// statistics freshness.
	if err := f.Sinew.RDBMS().Analyze("tweets"); err != nil {
		return nil, err
	}

	virtual := make([]time.Duration, len(queries))
	for i, q := range queries {
		d, err := timeQuery(q)
		if err != nil {
			return nil, fmt.Errorf("bench: table5 virtual %q: %w", q, err)
		}
		virtual[i] = d
	}

	mat := core.NewMaterializer(f.Sinew)
	for _, key := range []string{"user.id", "user.lang", "user.friends_count"} {
		if err := f.Sinew.SetMaterialized("tweets", key, true); err != nil {
			return nil, err
		}
	}
	if _, err := mat.RunOnce("tweets"); err != nil {
		return nil, err
	}
	if err := f.Sinew.RDBMS().Analyze("tweets"); err != nil {
		return nil, err
	}

	physical := make([]time.Duration, len(queries))
	for i, q := range queries {
		d, err := timeQuery(q)
		if err != nil {
			return nil, fmt.Errorf("bench: table5 physical %q: %w", q, err)
		}
		physical[i] = d
	}

	t := &Table{
		Title:  fmt.Sprintf("Table 5 — Virtual vs physical column performance (%d tweets, seconds)", f.N),
		Header: []string{"Query", "Virtual", "Physical", "Overhead"},
	}
	for i, q := range queries {
		over := "-"
		if physical[i] > 0 {
			over = fmt.Sprintf("%+.1f%%", (float64(virtual[i])/float64(physical[i])-1)*100)
		}
		t.AddRow(q, fmtDur(virtual[i]), fmtDur(physical[i]), over)
	}
	t.AddNote("overhead falls as fixed query costs grow (the paper's Appendix B trend); absolute percentages exceed the paper's <5%%/<2%% because this engine's per-tuple fixed costs are far below Postgres's")
	return t, nil
}
