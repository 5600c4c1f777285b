// Command sinewbench regenerates the tables and figures of the Sinew
// paper's evaluation (SIGMOD 2014, §6 and Appendices A–B) using the
// embedded reproduction harness.
//
// Usage:
//
//	sinewbench [-exp all|table2|table3|table4|table5|fig6|fig7|fig8|ablations|counts]
//	           [-small N] [-large N] [-reps R] [-seed S] [-json FILE]
//
// With -json, the Table 3 load row of every system and the Figure 6 (Sinew
// column), Table 2 (plans and virtual/physical timings), Table 5, and
// plan-cache benchmarks (measured via testing.Benchmark) are written as a JSON report (ns/op and allocs/op per
// query), with the live heap of the loaded, materialized and frozen
// NoBench fixture (HeapInuse, HeapObjects) beside them, instead of the
// text tables; `make bench` uses this to produce
// BENCH_BASELINE.json and `make bench-diff` the report it holds against it.
//
// The -small scale plays the paper's in-memory 16M-record runs and -large
// the disk-bound 64M-record runs (scaled 1:4 by default); see DESIGN.md §2
// for the substitution rationale.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/sinewdata/sinew/internal/bench"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment to run: all, table2, table3, table4, table5, fig6, fig7, fig8, ablations, counts")
		small = flag.Int("small", 4000, "record count for the in-memory scale")
		large = flag.Int("large", 16000, "record count for the disk-bound scale")
		reps  = flag.Int("reps", 2, "repetitions per query cell (averaged)")
		seed  = flag.Int64("seed", 42, "dataset generator seed")
		jsonP = flag.String("json", "", "write a machine-readable benchmark report (ns/op, allocs/op) to this file")
	)
	flag.Parse()
	if *jsonP != "" {
		if err := runJSON(*jsonP, *small, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "sinewbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *small, *large, *reps, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "sinewbench:", err)
		os.Exit(1)
	}
}

func runJSON(path string, small int, seed int64) error {
	fmt.Printf("measuring benchmark report (%d records)...\n", small)
	rep, err := bench.WriteReport(path, small, seed)
	if err != nil {
		return err
	}
	fmt.Printf("  heap HeapInuse %12d bytes  HeapObjects %10d\n", rep.Heap.HeapInuseBytes, rep.Heap.HeapObjects)
	for _, l := range rep.Table3Load {
		fmt.Printf("  table3 %-8s load %12d ns  size %10d bytes\n", l.System, l.LoadNs, l.SizeBytes)
	}
	for _, q := range rep.Figure6Sinew {
		fmt.Printf("  fig6 %-4s %12d ns/op %8d allocs/op\n", q.Query, q.NsPerOp, q.AllocsPerOp)
	}
	for _, q := range rep.Table2 {
		fmt.Printf("  table2 %s virtual %12d ns/op %8d allocs/op  physical %12d ns/op %8d allocs/op\n",
			q.Query, q.VirtualNsPerOp, q.VirtualAllocs, q.PhysicalNsPerOp, q.PhysicalAllocs)
		fmt.Printf("         virtual plan  %s\n         physical plan %s\n", q.VirtualPlan, q.PhysicalPlan)
	}
	for _, q := range rep.Table5 {
		fmt.Printf("  table5 virtual %12d ns/op physical %12d ns/op (cpu %+.1f%%, disk %+.1f%%)  %s\n",
			q.VirtualNsPerOp, q.PhysicalNsPerOp, q.CPUOverheadPct, q.DiskOverheadPct, q.SQL)
	}
	for _, q := range rep.PlanCache {
		fmt.Printf("  plan-cache hit %12d ns/op miss %12d ns/op (%.1fx)  %s\n",
			q.CachedNsPerOp, q.UncachedNsPerOp, q.SpeedupX, q.SQL)
	}
	fmt.Println("wrote", path)
	return nil
}

func run(exp string, small, large, reps int, seed int64) error {
	want := func(name string) bool { return exp == "all" || exp == name }
	var smallFix, largeFix *bench.NoBenchFixture
	needSmall := want("table3") || want("fig6") || want("fig7") || want("fig8") || want("counts")
	needLarge := want("fig6") || want("fig7")

	if needSmall {
		fmt.Printf("loading NoBench small scale (%d records)...\n", small)
		f, err := bench.SetupNoBench(small, seed, 0)
		if err != nil {
			return err
		}
		smallFix = f
	}
	if needLarge {
		fmt.Printf("loading NoBench large scale (%d records)...\n", large)
		// Scratch budget sized so the MongoDB client-side join exhausts it
		// at this scale (the paper's out-of-disk DNF).
		f, err := bench.SetupNoBench(large, seed, int64(large)*300)
		if err != nil {
			return err
		}
		largeFix = f
	}

	if want("table3") {
		fmt.Println()
		fmt.Println(bench.Table3(smallFix))
	}
	if want("table2") {
		fmt.Println()
		f, err := bench.SetupTwitter(small, 11)
		if err != nil {
			return err
		}
		tbl, err := bench.Table2(f, true)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
	}
	if want("fig6") {
		fmt.Println()
		fmt.Println(bench.Figure6(smallFix, bench.WarmCacheIOModel(), reps))
		fmt.Println()
		fmt.Println(bench.Figure6(largeFix, bench.DiskBoundIOModel(largeFix.DatasetBytes(bench.SysSinew)), reps))
	}
	if want("fig7") {
		fmt.Println()
		fmt.Println(bench.Figure7(smallFix, bench.WarmCacheIOModel(), reps))
		fmt.Println()
		fmt.Println(bench.Figure7(largeFix, bench.DiskBoundIOModel(largeFix.DatasetBytes(bench.SysSinew)), reps))
	}
	if want("fig8") {
		fmt.Println()
		fmt.Println(bench.Figure8(smallFix, bench.WarmCacheIOModel(), reps))
	}
	if want("table4") {
		fmt.Println()
		tbl, err := bench.Table4(small, 3)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
	}
	if want("table5") {
		fmt.Println()
		f, err := bench.SetupTwitter(small, 5)
		if err != nil {
			return err
		}
		tbl, err := bench.Table5(f, reps)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
	}
	if want("counts") {
		fmt.Println()
		tbl, err := bench.RowCounts(smallFix)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
	}
	if want("ablations") {
		for _, fn := range []func() (*bench.Table, error){
			func() (*bench.Table, error) { return bench.AblationHybrid(small/2, 9) },
			func() (*bench.Table, error) { return bench.AblationDirtyCoalesce(small, 13, reps) },
			func() (*bench.Table, error) { return bench.AblationPolicy(small/2, 17) },
			func() (*bench.Table, error) { return bench.AblationBinarySearch(small, 21) },
			func() (*bench.Table, error) { return bench.AblationArrays(small/2, 23) },
		} {
			tbl, err := fn()
			if err != nil {
				return err
			}
			fmt.Println()
			fmt.Println(tbl)
		}
	}
	return nil
}
