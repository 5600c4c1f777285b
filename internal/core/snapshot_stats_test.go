package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestSinewStatsSnapshotCounters checks the concurrency observability
// surface added with the snapshot read path (DESIGN.md §10): every
// counter sinew_stats() gained — snapshots_open, snapshot_epoch,
// pages_cow, sessions_active — moves when and only when its mechanism
// fires.
func TestSinewStatsSnapshotCounters(t *testing.T) {
	db := Open(DefaultConfig())
	rdb := db.RDBMS()
	mustSet(t, db, `CREATE TABLE snapcnt (a INT)`,
		`INSERT INTO snapcnt VALUES (1), (2), (3)`)

	cases := []struct {
		name  string
		key   string
		drive func(t *testing.T)
		check func(t *testing.T, before, after int64)
	}{
		{
			name: "snapshot_epoch advances when a write publishes",
			key:  "snapshot_epoch",
			drive: func(t *testing.T) {
				mustSet(t, db, `INSERT INTO snapcnt VALUES (4)`)
			},
			check: func(t *testing.T, before, after int64) {
				if after <= before {
					t.Errorf("snapshot_epoch stuck at %d after an INSERT published", after)
				}
			},
		},
		{
			name: "pages_cow counts pages cloned under UPDATE",
			key:  "pages_cow",
			drive: func(t *testing.T) {
				// The INSERTs above published the tail page; updating a row
				// on it must clone it rather than write the shared version.
				mustSet(t, db, `UPDATE snapcnt SET a = a + 10 WHERE a = 1`)
			},
			check: func(t *testing.T, before, after int64) {
				if after <= before {
					t.Errorf("pages_cow stuck at %d after an UPDATE hit a published page", after)
				}
			},
		},
		{
			name: "sessions_active follows the session gauge",
			key:  "sessions_active",
			drive: func(t *testing.T) {
				rdb.SessionEnter()
			},
			check: func(t *testing.T, before, after int64) {
				defer rdb.SessionExit()
				if after != before+1 {
					t.Errorf("sessions_active = %d after SessionEnter, want %d", after, before+1)
				}
			},
		},
		{
			name: "snapshots_open drains to zero between statements",
			key:  "snapshots_open",
			drive: func(t *testing.T) {
				if _, err := db.Query(`SELECT COUNT(*) FROM snapcnt`); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, _, after int64) {
				if after != 0 {
					t.Errorf("snapshots_open = %d at rest; statement pins leaked", after)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := statCounter(t, db, tc.key)
			tc.drive(t)
			tc.check(t, before, statCounter(t, db, tc.key))
		})
	}

	// Reading the gauge from inside a scanning statement shows that
	// statement's own pin: the planner acquired the snapshot before the
	// volatile UDF ran.
	res, err := db.Query(`SELECT sinew_stats() FROM snapcnt LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	text := res.Rows[0][0].Text()
	for _, field := range strings.Fields(text) {
		if rest, ok := strings.CutPrefix(field, "snapshots_open="); ok {
			v, perr := strconv.ParseInt(rest, 10, 64)
			if perr != nil {
				t.Fatalf("parsing %q: %v", field, perr)
			}
			if v < 1 {
				t.Errorf("snapshots_open = %d mid-scan, want >= 1 (statement's own pin)", v)
			}
			return
		}
	}
	t.Fatalf("sinew_stats output lacks snapshots_open: %q", text)
}

// TestSortedOperatorErrorsReleasePins fails a statement inside each of
// the operators Table 2's plans flip to — a Merge Join whose Join Filter
// CAST fails on a later output batch, a Nested Loop whose condition fails,
// and a GroupAggregate whose SUM meets a text value mid-stream: each
// statement returns its error, no snapshot pin outlives it, and the next
// statement runs.
func TestSortedOperatorErrorsReleasePins(t *testing.T) {
	db := Open(DefaultConfig())
	pc := db.RDBMS().PlanConfig()
	pc.HashJoinMaxBuildRows, pc.HashAggMaxGroups = 10, 10
	mustSet(t, db, `CREATE TABLE sl (a INT, s TEXT, t TEXT)`, `CREATE TABLE sr (a INT)`,
		`CREATE TABLE ss (a INT)`, `INSERT INTO ss VALUES (1), (2), (3)`)
	const n = 3 * 1024
	var l, r strings.Builder
	l.WriteString(`INSERT INTO sl VALUES `)
	r.WriteString(`INSERT INTO sr VALUES `)
	for i := 0; i < n; i++ {
		if i > 0 {
			l.WriteString(", ")
			r.WriteString(", ")
		}
		// The last rows, in key order past two output batches, hold text
		// no CAST reads as a number; one row mid-stream holds a text value
		// for the SUM below.
		s, tv := strconv.Itoa(i), "NULL"
		if i >= n-10 {
			s = "x"
		}
		if i == n/2 {
			tv = "'mid'"
		}
		fmt.Fprintf(&l, "(%d, '%s', %s)", i, s, tv)
		fmt.Fprintf(&r, "(%d)", i)
	}
	mustSet(t, db, l.String(), r.String())

	for _, tc := range []struct{ op, detail, sql, err string }{
		{"Merge Join", "Join Filter: (CAST(sl.s",
			`SELECT sl.a FROM sl, sr WHERE sl.a = sr.a AND CAST(sl.s AS INT) >= sr.a`, `"x"`},
		{"Nested Loop", "Join Filter: (CAST(sl.s",
			`SELECT sl.a FROM sl, ss WHERE CAST(sl.s AS INT) > ss.a`, `"x"`},
		{"GroupAggregate", "Group Key: sl.a",
			`SELECT a, SUM(COALESCE(t, a)) FROM sl GROUP BY a`, "sum requires numeric input"},
	} {
		text, err := db.Explain(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, tc.op+" (batch)") || !strings.Contains(text, tc.detail) {
			t.Fatalf("%s: no such operator in\n%s", tc.op, text)
		}
		if _, err := db.Query(tc.sql); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: error %v, want one naming %q", tc.op, err, tc.err)
		}
		if open := statCounter(t, db, "snapshots_open"); open != 0 {
			t.Errorf("%s: snapshots_open = %d after the failed statement", tc.op, open)
		}
		if res, err := db.Query(`SELECT COUNT(*) FROM ss`); err != nil || res.Rows[0][0].I != 3 {
			t.Errorf("%s: the next statement returned %v, %v", tc.op, res, err)
		}
	}
}
