// Command benchmark is the repository's end-to-end and per-layer
// benchmark. See README.md in this directory; BENCHMARK.json at the root of
// the repository names the command, the workloads and the metrics.
//
//	bash benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out file.json] [--calibrate N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// runHeader is printed with every result and stored in every trace file.
type runHeader struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (built outside a git checkout)"
}

// traceDir is where a traced run writes its spans, relative to the root of
// the checkout the benchmark is started from.
var traceDir = filepath.Join("benchmark", "out")

func main() {
	// One processor for the whole program: client, sinewd and the Go
	// runtime's collector take turns on it. On this shared 2-processor host a
	// second busy thread buys the product nothing (its two processors behave
	// like two threads of one core: the analytic set ran at 437 statements/s
	// on one and 442 on two) and makes every timing depend on what the
	// neighbours leave of the second one: alternating runs of one commit
	// spread by 5-12 % on one processor and by 20-46 % on two.
	runtime.GOMAXPROCS(1)
	workload := flag.String("workload", "all", "workload to run: "+fmt.Sprint(workloadNames())+" or all")
	seed := flag.Int64("seed", dataSeed, "seed of the statement order and of the statements' constants")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: single-client traced run, per-layer metrics")
	out := flag.String("out", "", "also write the results to this JSON file")
	calibrate := flag.Int("calibrate", 0, "run N times back to back (seeds seed..seed+N-1) and print each metric's spread and the bound it supports")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *out, *calibrate); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, out string, calibrate int) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("benchmark: unexpected arguments %v", flag.Args())
	}
	if seconds < 1 || seconds > 60 || trace < 0 || trace > 1 {
		return fmt.Errorf("benchmark: -seconds must be 1..60 and -trace 0 or 1")
	}
	names := []string{workload}
	if workload == "all" {
		names = workloadNames()
	}
	if err := checkFingerprints(); err != nil {
		return err
	}
	if calibrate > 0 {
		return runCalibrate(names, seed, seconds, trace == 1, calibrate)
	}
	results := make(map[string]*result, len(names))
	for _, name := range names {
		r, err := runOne(name, seed, seconds, trace == 1)
		if err != nil {
			return err
		}
		results[name] = r
	}
	if out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(out, append(data, '\n'), 0o644)
	}
	return nil
}

// runOne runs a workload and prints its header, its metrics by name and, as
// the last line, the result object.
func runOne(name string, seed int64, seconds int, trace bool) (*result, error) {
	h := runHeader{Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workload: name, Seed: seed, Seconds: seconds, Trace: trace}
	hj, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# run %s\n", hj)
	r, err := runWorkload(name, defaultSizes(seconds), seed, trace, traceDir, h)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Printf("%-40s %16.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s\n", line)
	return r, nil
}

// ---------- calibration ----------

// boundFloors are the narrowest bounds worth fixing per end-to-end metric:
// below them a regression gate would trip on noise that no run length
// removes. A metric whose spread needs more than its floor gets
// max(floor, 2 x spread), capped at the contract's 0.25.
var boundFloors = map[string]float64{
	"setup_s": 0.15, "ingest_docs_per_s": 0.10, "queries_per_s": 0.10, "query_p50_ms": 0.10, "query_p99_ms": 0.25,
	"stored_bytes_per_user_byte": 0.01, "live_heap_mb": 0.05,
}

// runCalibrate measures run-to-run spread the way the driver does: n runs
// per workload, each on another seed, and per metric the interquartile
// range as a share of the median.
func runCalibrate(names []string, seed int64, seconds int, trace bool, n int) error {
	if n < 2 {
		return fmt.Errorf("benchmark: -calibrate needs at least 2 runs")
	}
	worst := map[string]float64{}
	for _, name := range names {
		series := map[string][]float64{}
		for i := 0; i < n; i++ {
			r, err := runOne(name, seed+int64(i), seconds, trace)
			if err != nil {
				return err
			}
			if !r.Correct {
				return fmt.Errorf("benchmark: %s seed %d: %d of %d operations failed", name, seed+int64(i), r.Failed, r.Attempted)
			}
			for k, v := range r.Metrics {
				series[k] = append(series[k], v.Value)
			}
		}
		fmt.Printf("# calibrate %s: %d runs\n", name, n)
		fmt.Printf("# %-38s %12s %12s %12s %8s\n", "metric", "min", "median", "max", "spread")
		for _, k := range sortedKeys(series) {
			v := append([]float64(nil), series[k]...)
			sort.Float64s(v)
			sp := spread(v)
			fmt.Printf("# %-38s %12.5g %12.5g %12.5g %7.2f%%\n", k, v[0], medianF(v), v[len(v)-1], 100*sp)
			worst[k] = max(worst[k], sp)
		}
	}
	if !trace {
		fmt.Printf("# bounds supported by the widest spread over %v: max(floor, 2 x spread), at most 0.25\n", names)
		for _, d := range endToEnd {
			b := min(max(boundFloors[d.name], 2*worst[d.name]), 0.25)
			fmt.Printf("# %-38s spread %6.2f%%  bound %.2f\n", d.name, 100*worst[d.name], b)
		}
	}
	return nil
}
