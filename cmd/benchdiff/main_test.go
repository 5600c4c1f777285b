package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func writeReport(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const baseline = `{
  "records": 1000,
  "figure6_sinew": [
    {"query": "q1", "sql": "SELECT 1", "ns_per_op": 1000, "allocs_per_op": 100},
    {"query": "q2", "sql": "SELECT 2", "ns_per_op": 2000, "allocs_per_op": 10}
  ]
}`

func TestMissingBaselineFile(t *testing.T) {
	newP := writeReport(t, "new.json", baseline)
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", filepath.Join(t.TempDir(), "absent.json"), "-new", newP}, &out, &errb)
	if code != 2 {
		t.Fatalf("run() = %d, want 2 for a missing baseline", code)
	}
	if !strings.Contains(errb.String(), "absent.json") {
		t.Errorf("stderr should name the missing file: %q", errb.String())
	}
}

func TestMalformedJSON(t *testing.T) {
	oldP := writeReport(t, "old.json", baseline)
	newP := writeReport(t, "new.json", `{"records": 1000, "figure6_sinew": [`)
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", oldP, "-new", newP}, &out, &errb)
	if code != 2 {
		t.Fatalf("run() = %d, want 2 for malformed JSON", code)
	}
	if !strings.Contains(errb.String(), "new.json") {
		t.Errorf("stderr should name the malformed file: %q", errb.String())
	}
}

// A query present in only one report is informational, never a failure:
// the set can grow (new query) and shrink (dropped) across PRs.
func TestQueryInOnlyOneReport(t *testing.T) {
	oldP := writeReport(t, "old.json", baseline)
	newP := writeReport(t, "new.json", `{
	  "records": 1000,
	  "figure6_sinew": [
	    {"query": "q1", "sql": "SELECT 1", "ns_per_op": 1000, "allocs_per_op": 100},
	    {"query": "q3", "sql": "SELECT 3", "ns_per_op": 500, "allocs_per_op": 5}
	  ]
	}`)
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", oldP, "-new", newP}, &out, &errb)
	if code != 0 {
		t.Fatalf("run() = %d, want 0\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "(new query)") {
		t.Errorf("q3 should be reported as a new query:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "q2    dropped from new report") {
		t.Errorf("q2 should be reported as dropped:\n%s", out.String())
	}
}

// An allocs/op regression fails; the same report's ns/op regression is
// printed and does not.
func TestRegressionFails(t *testing.T) {
	oldP := writeReport(t, "old.json", baseline)
	newP := writeReport(t, "new.json", `{
	  "records": 1000,
	  "figure6_sinew": [
	    {"query": "q1", "sql": "SELECT 1", "ns_per_op": 1000, "allocs_per_op": 150},
	    {"query": "q2", "sql": "SELECT 2", "ns_per_op": 9000, "allocs_per_op": 10}
	  ]
	}`)
	var out, errb bytes.Buffer
	code := run([]string{"-baseline", oldP, "-new", newP, "-tolerance", "10"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run() = %d, want 1 for a 50%% allocs/op regression", code)
	}
	if !strings.Contains(out.String(), "REGRESSION(allocs)") {
		t.Errorf("q1 should be marked REGRESSION(allocs):\n%s", out.String())
	}
	if strings.Count(out.String(), "REGRESSION") != 1 || !strings.Contains(out.String(), "+350.0%") {
		t.Errorf("q2's ns/op should be printed and not marked:\n%s", out.String())
	}

	slowP := writeReport(t, "slow.json", `{
	  "records": 1000,
	  "figure6_sinew": [
	    {"query": "q1", "sql": "SELECT 1", "ns_per_op": 5000, "allocs_per_op": 100},
	    {"query": "q2", "sql": "SELECT 2", "ns_per_op": 9000, "allocs_per_op": 10}
	  ]
	}`)
	out.Reset()
	errb.Reset()
	if code = run([]string{"-baseline", oldP, "-new", slowP}, &out, &errb); code != 0 {
		t.Fatalf("run() = %d, want 0: ns/op alone never fails the diff\n%s", code, out.String())
	}
}

// Alloc jumps under the -minallocs noise floor don't gate: q2 doubles its
// allocs but sits below the floor.
func TestAllocNoiseFloor(t *testing.T) {
	oldP := writeReport(t, "old.json", baseline)
	newP := writeReport(t, "new.json", `{
	  "records": 1000,
	  "figure6_sinew": [
	    {"query": "q1", "sql": "SELECT 1", "ns_per_op": 1000, "allocs_per_op": 100},
	    {"query": "q2", "sql": "SELECT 2", "ns_per_op": 2000, "allocs_per_op": 20}
	  ]
	}`)
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", oldP, "-new", newP}, &out, &errb); code != 0 {
		t.Fatalf("run() = %d, want 0 (allocs below noise floor)\n%s", code, out.String())
	}
}

// Without -new there is nothing to compare.
func TestNewRequired(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", writeReport(t, "old.json", baseline)}, &out, &errb); code != 2 {
		t.Fatalf("run() = %d, want 2 without -new", code)
	}
	if !strings.Contains(errb.String(), "-new is required") {
		t.Errorf("stderr should ask for -new: %q", errb.String())
	}
}

func TestRecordCountMismatch(t *testing.T) {
	oldP := writeReport(t, "old.json", baseline)
	newP := writeReport(t, "new.json", `{"records": 2000, "figure6_sinew": []}`)
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", oldP, "-new", newP}, &out, &errb); code != 2 {
		t.Fatalf("run() = %d, want 2 for incomparable record counts", code)
	}
	if !strings.Contains(errb.String(), "not comparable") {
		t.Errorf("stderr should explain the mismatch: %q", errb.String())
	}
}

// Table 5 rows are gated per leg: an allocs/op regression in either the
// virtual or the physical leg fails, a row new in the candidate report is
// exempt.
func TestTable5Gate(t *testing.T) {
	oldP := writeReport(t, "old.json", `{
	  "records": 1000,
	  "figure6_sinew": [],
	  "table5": [
	    {"sql": "SELECT * FROM t ORDER BY k", "virtual_ns_per_op": 1000,
	     "virtual_allocs_per_op": 500, "physical_ns_per_op": 900,
	     "physical_allocs_per_op": 400}
	  ]
	}`)
	newP := writeReport(t, "new.json", `{
	  "records": 1000,
	  "figure6_sinew": [],
	  "table5": [
	    {"sql": "SELECT * FROM t ORDER BY k", "virtual_ns_per_op": 1000,
	     "virtual_allocs_per_op": 500, "physical_ns_per_op": 2000,
	     "physical_allocs_per_op": 800},
	    {"sql": "SELECT * FROM t ORDER BY k LIMIT 5", "virtual_ns_per_op": 10,
	     "virtual_allocs_per_op": 5, "physical_ns_per_op": 10,
	     "physical_allocs_per_op": 5}
	  ]
	}`)
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", oldP, "-new", newP}, &out, &errb); code != 1 {
		t.Fatalf("run() = %d, want 1 for a table5 physical regression\nstdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION(allocs)") {
		t.Errorf("output should mark the regressed leg:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "(new row)") {
		t.Errorf("the row absent from the baseline should be exempt:\n%s", out.String())
	}

	// Within tolerance both legs pass.
	okP := writeReport(t, "ok.json", `{
	  "records": 1000,
	  "figure6_sinew": [],
	  "table5": [
	    {"sql": "SELECT * FROM t ORDER BY k", "virtual_ns_per_op": 1010,
	     "virtual_allocs_per_op": 505, "physical_ns_per_op": 910,
	     "physical_allocs_per_op": 404}
	  ]
	}`)
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", oldP, "-new", okP}, &out, &errb); code != 0 {
		t.Fatalf("run() = %d, want 0 within tolerance\nstdout: %s", code, out.String())
	}
}

// Table 2 rows gate their plans exactly and their allocs/op per leg like
// Table 5; a row new in the candidate report is exempt.
func TestTable2Gate(t *testing.T) {
	row := func(query, physPlan string, physAllocs int) string {
		return `{"query": "` + query + `", "virtual_plan": "HashAggregate > Seq Scan [tweets]",
		  "virtual_ns_per_op": 1000, "virtual_allocs_per_op": 500,
		  "physical_plan": "` + physPlan + `", "physical_ns_per_op": 900,
		  "physical_allocs_per_op": ` + strconv.Itoa(physAllocs) + `}`
	}
	report := func(rows ...string) string {
		return `{"records": 1000, "figure6_sinew": [], "table2": [` + strings.Join(rows, ",") + `]}`
	}
	const sorted = "Unique > Sort > Seq Scan [tweets]"
	oldP := writeReport(t, "old.json", report(row("T1-1", sorted, 400)))
	for _, c := range []struct {
		name, body string
		code       int
		want       string
	}{
		{"unchanged", report(row("T1-1", sorted, 404), row("T1-9", "Seq Scan [t]", 5)), 0, "(new row)"},
		{"plan", report(row("T1-1", "HashAggregate > Seq Scan [tweets]", 400)), 1, "PLAN CHANGED"},
		{"allocs", report(row("T1-1", sorted, 800)), 1, "REGRESSION(allocs)"},
	} {
		newP := writeReport(t, c.name+".json", c.body)
		var out, errb bytes.Buffer
		if code := run([]string{"-baseline", oldP, "-new", newP}, &out, &errb); code != c.code {
			t.Fatalf("%s: run() = %d, want %d\nstdout: %s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output should say %q:\n%s", c.name, c.want, out.String())
		}
	}
}

// The fixture heap gates HeapInuse and HeapObjects: either growing past
// the tolerance fails, a drop passes, and a baseline without the section
// exempts it.
func TestHeapGate(t *testing.T) {
	report := func(heap string) string {
		return `{"records": 1000, "figure6_sinew": []` + heap + `}`
	}
	heap := func(inuse, objects int) string {
		return `, "heap": {"heap_inuse_bytes": ` + strconv.Itoa(inuse) + `, "heap_objects": ` + strconv.Itoa(objects) + `}`
	}
	oldP := writeReport(t, "old.json", report(heap(1000000, 20000)))
	for _, c := range []struct {
		name, base, body string
		code             int
		want             string
	}{
		{"within", oldP, report(heap(1050000, 21000)), 0, "benchdiff: OK"},
		{"drop", oldP, report(heap(500000, 10000)), 0, "-50.0%"},
		{"inuse", oldP, report(heap(1200000, 20000)), 1, "REGRESSION(heap)"},
		{"objects", oldP, report(heap(1000000, 30000)), 1, "REGRESSION(heap)"},
		{"no-baseline", writeReport(t, "bare.json", report("")), report(heap(1000000, 20000)), 0, "(new section)"},
	} {
		newP := writeReport(t, c.name+".json", c.body)
		var out, errb bytes.Buffer
		if code := run([]string{"-baseline", c.base, "-new", newP}, &out, &errb); code != c.code {
			t.Fatalf("%s: run() = %d, want %d\nstdout: %s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output should say %q:\n%s", c.name, c.want, out.String())
		}
	}
}
