// Command benchdiff compares a benchmark report produced by `sinewbench
// -json` with the checked-in baseline and fails (exit 1) when any Figure 6
// query — or either leg (virtual/physical) of any Table 2 or Table 5 row —
// allocates more per operation than the baseline by more than the
// tolerance, or when a Table 2 row's plan differs from the baseline's at
// all (Table 2 is the paper's plan-flip experiment, so its plans are part
// of the result), or when the NoBench fixture's live heap (HeapInuse or
// HeapObjects after a forced collection) grows by more than the tolerance:
//
//	benchdiff -new .bench_build/bench.json [-baseline BENCH_BASELINE.json] [-tolerance 10]
//
// allocs/op and the fixture heap are what a report holds that is the same
// (the heap: within a few percent) on every run and every host, so they
// are what `make bench-diff` gates. ns/op is printed beside it
// and never fails the diff: timing claims go through pairs of
// benchmark/run.sh (see benchmark/README.md).
//
// Queries present in only one report are reported but do not fail the
// diff (the query set can grow across PRs). Alloc counts below the noise
// floor (-minallocs) are exempt: a jump from 3 to 5 allocations is
// measurement noise, not a regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type queryBench struct {
	Query       string `json:"query"`
	SQL         string `json:"sql"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

type table5Bench struct {
	SQL             string `json:"sql"`
	VirtualNsPerOp  int64  `json:"virtual_ns_per_op"`
	VirtualAllocs   int64  `json:"virtual_allocs_per_op"`
	PhysicalNsPerOp int64  `json:"physical_ns_per_op"`
	PhysicalAllocs  int64  `json:"physical_allocs_per_op"`
}

type table2Bench struct {
	Query           string `json:"query"`
	VirtualPlan     string `json:"virtual_plan"`
	VirtualNsPerOp  int64  `json:"virtual_ns_per_op"`
	VirtualAllocs   int64  `json:"virtual_allocs_per_op"`
	PhysicalPlan    string `json:"physical_plan"`
	PhysicalNsPerOp int64  `json:"physical_ns_per_op"`
	PhysicalAllocs  int64  `json:"physical_allocs_per_op"`
}

type heapBench struct {
	HeapInuseBytes int64 `json:"heap_inuse_bytes"`
	HeapObjects    int64 `json:"heap_objects"`
}

type report struct {
	Records      int           `json:"records"`
	Figure6Sinew []queryBench  `json:"figure6_sinew"`
	Table2       []table2Bench `json:"table2"`
	Table5       []table5Bench `json:"table5"`
	Heap         *heapBench    `json:"heap"`
}

// leg is one measured side (virtual or physical) of a Table 2 or Table 5
// row.
type leg struct {
	name           string
	oldNs, newNs   int64
	oldAll, newAll int64
}

func load(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func pct(oldV, newV int64) float64 {
	if oldV <= 0 {
		return 0
	}
	return (float64(newV)/float64(oldV) - 1) * 100
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		basePath  = fs.String("baseline", "BENCH_BASELINE.json", "baseline report")
		newPath   = fs.String("new", "", "candidate report")
		tolerance = fs.Float64("tolerance", 10, "max allowed allocs/op regression in percent")
		minAllocs = fs.Int64("minallocs", 64, "allocs/op noise floor below which the gate is skipped")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *newPath == "" {
		fmt.Fprintln(stderr, "benchdiff: -new is required")
		return 2
	}
	oldRep, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	newRep, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if oldRep.Records != newRep.Records {
		fmt.Fprintf(stderr, "benchdiff: record counts differ (%d vs %d); the reports are not comparable\n",
			oldRep.Records, newRep.Records)
		return 2
	}

	oldBy := make(map[string]queryBench, len(oldRep.Figure6Sinew))
	for _, q := range oldRep.Figure6Sinew {
		oldBy[q.Query] = q
	}

	failed := false
	fmt.Fprintf(stdout, "%-5s %14s %14s %8s   %10s %10s %8s\n",
		"query", "old ns/op", "new ns/op", "Δ%", "old allocs", "new allocs", "Δ%")
	for _, n := range newRep.Figure6Sinew {
		o, ok := oldBy[n.Query]
		if !ok {
			fmt.Fprintf(stdout, "%-5s %14s %14d %8s   %10s %10d %8s  (new query)\n",
				n.Query, "-", n.NsPerOp, "-", "-", n.AllocsPerOp, "-")
			continue
		}
		delete(oldBy, n.Query)
		nsD := pct(o.NsPerOp, n.NsPerOp)
		alD := pct(o.AllocsPerOp, n.AllocsPerOp)
		mark := ""
		if alD > *tolerance && o.AllocsPerOp >= *minAllocs {
			mark, failed = "  REGRESSION(allocs)", true
		}
		fmt.Fprintf(stdout, "%-5s %14d %14d %+7.1f%%   %10d %10d %+7.1f%%%s\n",
			n.Query, o.NsPerOp, n.NsPerOp, nsD, o.AllocsPerOp, n.AllocsPerOp, alD, mark)
	}
	dropped := make([]string, 0, len(oldBy))
	for q := range oldBy {
		dropped = append(dropped, q)
	}
	sort.Strings(dropped)
	for _, q := range dropped {
		fmt.Fprintf(stdout, "%-5s dropped from new report\n", q)
	}

	// Table 5 rows are gated too (keyed by SQL; rows new in the candidate
	// report are exempt): both the virtual- and physical-column legs must
	// stay within tolerance.
	oldT5 := make(map[string]table5Bench, len(oldRep.Table5))
	for _, q := range oldRep.Table5 {
		oldT5[q.SQL] = q
	}
	for _, n := range newRep.Table5 {
		o, ok := oldT5[n.SQL]
		if !ok {
			fmt.Fprintf(stdout, "table5 %-60q  (new row)\n", n.SQL)
			continue
		}
		for _, l := range []leg{
			{"virtual", o.VirtualNsPerOp, n.VirtualNsPerOp, o.VirtualAllocs, n.VirtualAllocs},
			{"physical", o.PhysicalNsPerOp, n.PhysicalNsPerOp, o.PhysicalAllocs, n.PhysicalAllocs},
		} {
			nsD := pct(l.oldNs, l.newNs)
			alD := pct(l.oldAll, l.newAll)
			mark := ""
			if alD > *tolerance && l.oldAll >= *minAllocs {
				mark, failed = "  REGRESSION(allocs)", true
			}
			fmt.Fprintf(stdout, "table5 %-60q %-8s %12d %12d %+7.1f%%   %8d %8d %+7.1f%%%s\n",
				n.SQL, l.name, l.oldNs, l.newNs, nsD, l.oldAll, l.newAll, alD, mark)
		}
	}

	// Table 2 rows (keyed by query; rows new in the candidate report are
	// exempt) gate both legs' allocs/op like Table 5 and, beyond that, the
	// plans: any difference in a plan string fails.
	oldT2 := make(map[string]table2Bench, len(oldRep.Table2))
	for _, q := range oldRep.Table2 {
		oldT2[q.Query] = q
	}
	planFailed := false
	for _, n := range newRep.Table2 {
		o, ok := oldT2[n.Query]
		if !ok {
			fmt.Fprintf(stdout, "table2 %-5s  (new row)\n", n.Query)
			continue
		}
		for _, p := range [][3]string{{"virtual", o.VirtualPlan, n.VirtualPlan}, {"physical", o.PhysicalPlan, n.PhysicalPlan}} {
			if p[1] != p[2] {
				planFailed = true
				fmt.Fprintf(stdout, "table2 %-5s %-8s PLAN CHANGED\n  old: %s\n  new: %s\n", n.Query, p[0], p[1], p[2])
			}
		}
		for _, l := range []leg{
			{"virtual", o.VirtualNsPerOp, n.VirtualNsPerOp, o.VirtualAllocs, n.VirtualAllocs},
			{"physical", o.PhysicalNsPerOp, n.PhysicalNsPerOp, o.PhysicalAllocs, n.PhysicalAllocs},
		} {
			nsD := pct(l.oldNs, l.newNs)
			alD := pct(l.oldAll, l.newAll)
			mark := ""
			if alD > *tolerance && l.oldAll >= *minAllocs {
				mark, failed = "  REGRESSION(allocs)", true
			}
			fmt.Fprintf(stdout, "table2 %-5s %-8s %12d %12d %+7.1f%%   %8d %8d %+7.1f%%%s\n",
				n.Query, l.name, l.oldNs, l.newNs, nsD, l.oldAll, l.newAll, alD, mark)
		}
	}

	// The fixture heap: either figure growing past the tolerance fails. A
	// report without the section (an older baseline) is exempt.
	heapFailed := false
	switch o, n := oldRep.Heap, newRep.Heap; {
	case n == nil:
	case o == nil:
		fmt.Fprintf(stdout, "heap  HeapInuse %d bytes, HeapObjects %d  (new section)\n", n.HeapInuseBytes, n.HeapObjects)
	default:
		for _, h := range []struct {
			name       string
			oldV, newV int64
		}{{"HeapInuse", o.HeapInuseBytes, n.HeapInuseBytes}, {"HeapObjects", o.HeapObjects, n.HeapObjects}} {
			d := pct(h.oldV, h.newV)
			mark := ""
			if d > *tolerance {
				mark, heapFailed = "  REGRESSION(heap)", true
			}
			fmt.Fprintf(stdout, "heap  %-11s %12d %12d %+7.1f%%%s\n", h.name, h.oldV, h.newV, d, mark)
		}
	}

	if planFailed {
		fmt.Fprintln(stderr, "benchdiff: FAIL — a Table 2 plan differs from the baseline")
	}
	if failed {
		fmt.Fprintf(stderr, "benchdiff: FAIL — allocs/op regression beyond %.0f%% tolerance\n", *tolerance)
	}
	if heapFailed {
		fmt.Fprintf(stderr, "benchdiff: FAIL — fixture heap grew beyond %.0f%% tolerance\n", *tolerance)
	}
	if failed || planFailed || heapFailed {
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: OK (allocs/op and fixture heap within %.0f%%, Table 2 plans unchanged; ns/op is not gated)\n", *tolerance)
	return 0
}
