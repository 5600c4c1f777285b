package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/nobench"
)

// This file produces the machine-readable benchmark report (`make bench`
// writes it to BENCH_BASELINE.json): per-query ns/op and allocs/op for the
// Sinew column of Figure 6, the Table 2 plans with their virtual and
// physical timings, the Table 5 virtual-vs-physical pair, the
// repeated-statement benchmark pinning the plan-cache hit path, and the
// live heap of the NoBench fixture.

// QueryBench is one measured statement.
type QueryBench struct {
	Query       string `json:"query"`
	SQL         string `json:"sql"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// Table5Bench pairs a query's virtual- and physical-column timings.
// CPUOverheadPct is the raw in-memory ratio; DiskOverheadPct applies the
// paper's disk-bound regime (DiskBoundIOModel), where the sequential scan
// reads the same pages either way and extraction CPU hides behind
// bandwidth — that is the number Appendix B's <5%/<2% claims refer to.
type Table5Bench struct {
	SQL             string  `json:"sql"`
	VirtualNsPerOp  int64   `json:"virtual_ns_per_op"`
	VirtualAllocs   int64   `json:"virtual_allocs_per_op"`
	PhysicalNsPerOp int64   `json:"physical_ns_per_op"`
	PhysicalAllocs  int64   `json:"physical_allocs_per_op"`
	CPUOverheadPct  float64 `json:"cpu_overhead_pct"`
	DiskOverheadPct float64 `json:"disk_overhead_pct"`
}

// Table2Bench is one Table 1 query measured with the referenced keys in
// virtual columns and again in physical ones, beside the plan each state
// gets (planString).
type Table2Bench struct {
	Query           string `json:"query"`
	VirtualPlan     string `json:"virtual_plan"`
	VirtualNsPerOp  int64  `json:"virtual_ns_per_op"`
	VirtualAllocs   int64  `json:"virtual_allocs_per_op"`
	PhysicalPlan    string `json:"physical_plan"`
	PhysicalNsPerOp int64  `json:"physical_ns_per_op"`
	PhysicalAllocs  int64  `json:"physical_allocs_per_op"`
}

// PlanCacheBench compares the same statement with the prepared-plan cache
// hitting versus being forced to re-plan every execution.
type PlanCacheBench struct {
	SQL             string  `json:"sql"`
	CachedNsPerOp   int64   `json:"cached_ns_per_op"`
	CachedAllocs    int64   `json:"cached_allocs_per_op"`
	UncachedNsPerOp int64   `json:"uncached_ns_per_op"`
	UncachedAllocs  int64   `json:"uncached_allocs_per_op"`
	SpeedupX        float64 `json:"speedup_x"`
}

// table5ReportQueries extends the report's Table 5 section beyond the
// paper's three queries with a bounded ORDER BY, so the Top-N trajectory
// is tracked by the same regression gate. The experiment table (Table5)
// keeps the paper's exact query set.
func table5ReportQueries() []string {
	return append(Table5Queries(),
		`SELECT * FROM tweets ORDER BY "user.friends_count" DESC LIMIT 10`)
}

// LoadBench is one system's row of Table 3: how long the NoBench records
// took to load and what they occupy afterwards.
type LoadBench struct {
	System    string `json:"system"`
	LoadNs    int64  `json:"load_ns"`
	SizeBytes int64  `json:"size_bytes"`
}

// HeapBench is the live heap of the NoBench fixture in Sinew alone, once
// it is loaded, its paper keys materialized and its pages frozen:
// HeapInuse and HeapObjects after a forced collection, nothing else live.
type HeapBench struct {
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	HeapObjects    uint64 `json:"heap_objects"`
}

// Report is the full BENCH_BASELINE.json payload.
type Report struct {
	Records      int              `json:"records"`
	TwitterN     int              `json:"twitter_records"`
	Table3Load   []LoadBench      `json:"table3_load"`
	Figure6Sinew []QueryBench     `json:"figure6_sinew"`
	Table2       []Table2Bench    `json:"table2"`
	Table5       []Table5Bench    `json:"table5"`
	PlanCache    []PlanCacheBench `json:"plan_cache"`
	Heap         *HeapBench       `json:"heap,omitempty"`
}

// benchQuery measures one statement as the minimum ns/op of five
// independent testing.Benchmark runs. Each run's window is ~1s; on a
// shared runner, noisy-neighbor stalls last whole seconds and poison a
// majority of windows, so a median still swings ±30% between invocations.
// Interference is strictly one-sided (contention only ever adds time), so
// the minimum is the stable estimator of what the query costs when the
// machine is available — the same statistic the Table 5 experiment uses —
// and five windows give it a chance to land in a quiet stretch. Allocs/op
// is deterministic and taken once.
func benchQuery(db *core.DB, sql string) (ns, allocs int64, err error) {
	if _, err = db.Query(sql); err != nil {
		return 0, 0, err
	}
	var inner error
	best := int64(0)
	for t := 0; t < 5; t++ {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, e := db.Query(sql); e != nil {
					inner = e
					b.FailNow()
				}
			}
		})
		if inner != nil {
			return 0, 0, inner
		}
		if ns := r.NsPerOp(); best == 0 || ns < best {
			best = ns
		}
		if t == 0 {
			allocs = r.AllocsPerOp()
		}
	}
	return best, allocs, nil
}

// BuildReport loads the NoBench and Twitter fixtures at scale n and
// measures every report entry.
func BuildReport(n int, seed int64) (*Report, error) {
	rep := &Report{Records: n, TwitterN: n}

	// The heap first, while no other fixture is live.
	heap, err := fixtureHeap(n, seed)
	if err != nil {
		return nil, err
	}
	rep.Heap = heap

	f, err := SetupNoBench(n, seed, 0)
	if err != nil {
		return nil, err
	}
	queries := f.Par.Queries()
	for _, qid := range nobench.QueryOrder()[:10] {
		sql := queries[qid]
		ns, allocs, err := benchQuery(f.Sinew, sql)
		if err != nil {
			// Per-query DNFs (if any) are reported, not fatal.
			rep.Figure6Sinew = append(rep.Figure6Sinew, QueryBench{Query: qid, SQL: sql})
			continue
		}
		rep.Figure6Sinew = append(rep.Figure6Sinew,
			QueryBench{Query: qid, SQL: sql, NsPerOp: ns, AllocsPerOp: allocs})
	}

	// Plan cache: the cheapest Figure 6 query is where fixed per-statement
	// costs (parse + rewrite + plan) weigh most; compare cache hits with a
	// forced re-plan per execution.
	for _, qid := range []string{"Q1", "Q3"} {
		sql := queries[qid]
		cachedNs, cachedAllocs, err := benchQuery(f.Sinew, sql)
		if err != nil {
			return nil, err
		}
		rdb := f.Sinew.RDBMS()
		var inner error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rdb.BumpCatalogEpoch() // invalidate: every execution re-plans
				if _, e := f.Sinew.Query(sql); e != nil {
					inner = e
					b.FailNow()
				}
			}
		})
		if inner != nil {
			return nil, inner
		}
		pc := PlanCacheBench{
			SQL:             sql,
			CachedNsPerOp:   cachedNs,
			CachedAllocs:    cachedAllocs,
			UncachedNsPerOp: r.NsPerOp(),
			UncachedAllocs:  r.AllocsPerOp(),
		}
		if cachedNs > 0 {
			pc.SpeedupX = float64(r.NsPerOp()) / float64(cachedNs)
		}
		rep.PlanCache = append(rep.PlanCache, pc)
	}

	if rep.Table2, err = table2Report(n); err != nil {
		return nil, err
	}

	// Table 5: virtual first, then materialize the referenced keys and
	// measure again (same sequence as the Table5 experiment).
	tw, err := SetupTwitter(n, 5)
	if err != nil {
		return nil, err
	}
	// Freeze page statistics before the virtual leg: the physical leg below
	// re-analyzes after materializing, so without this the virtual side runs
	// un-striped scans and the comparison conflates column layout with
	// statistics freshness.
	if err := tw.Sinew.RDBMS().Analyze("tweets"); err != nil {
		return nil, err
	}
	t5Queries := table5ReportQueries()
	t5 := make([]Table5Bench, 0, len(t5Queries))
	virtBytes := tw.Sinew.DatabaseSizeBytes()
	for _, sql := range t5Queries {
		ns, allocs, err := benchQuery(tw.Sinew, sql)
		if err != nil {
			return nil, fmt.Errorf("table5 virtual %q: %w", sql, err)
		}
		t5 = append(t5, Table5Bench{SQL: sql, VirtualNsPerOp: ns, VirtualAllocs: allocs})
	}
	mat := core.NewMaterializer(tw.Sinew)
	for _, key := range []string{"user.id", "user.lang", "user.friends_count"} {
		if err := tw.Sinew.SetMaterialized("tweets", key, true); err != nil {
			return nil, err
		}
	}
	if _, err := mat.RunOnce("tweets"); err != nil {
		return nil, err
	}
	if err := tw.Sinew.RDBMS().Analyze("tweets"); err != nil {
		return nil, err
	}
	physBytes := tw.Sinew.DatabaseSizeBytes()
	for i, sql := range t5Queries {
		ns, allocs, err := benchQuery(tw.Sinew, sql)
		if err != nil {
			return nil, fmt.Errorf("table5 physical %q: %w", sql, err)
		}
		t5[i].PhysicalNsPerOp = ns
		t5[i].PhysicalAllocs = allocs
		if ns > 0 {
			t5[i].CPUOverheadPct = (float64(t5[i].VirtualNsPerOp)/float64(ns) - 1) * 100
		}
		// Disk-bound regime: a seq scan reads every page whether the key is
		// extracted or column-read, so both sides pay the same bandwidth and
		// the extraction CPU hides behind it (Appendix B's setting).
		vEff := DiskBoundIOModel(virtBytes).
			Effective(time.Duration(t5[i].VirtualNsPerOp), virtBytes, virtBytes)
		pEff := DiskBoundIOModel(physBytes).
			Effective(time.Duration(ns), physBytes, physBytes)
		if pEff > 0 {
			t5[i].DiskOverheadPct = (float64(vEff)/float64(pEff) - 1) * 100
		}
	}
	rep.Table5 = t5

	// Table 3: the fastest of three fresh loads per system. A load is timed
	// once per fixture, and interference only ever adds time.
	loads := f.LoadTime
	for i := 0; i < 2; i++ {
		g, err := SetupNoBench(n, seed, 0)
		if err != nil {
			return nil, err
		}
		for sys, d := range g.LoadTime {
			loads[sys] = min(loads[sys], d)
		}
	}
	for _, sys := range SystemOrder() {
		rep.Table3Load = append(rep.Table3Load, LoadBench{System: sys, LoadNs: loads[sys].Nanoseconds(), SizeBytes: f.SizeBytes[sys]})
	}
	return rep, nil
}

// fixtureHeap builds the Sinew side of SetupNoBench(n, seed) and measures
// the heap that holds it. The generated documents are dead by then, so the
// numbers are what the database keeps: rows, frozen segments, summaries,
// catalog and dictionary.
func fixtureHeap(n int, seed int64) (*HeapBench, error) {
	db, _, err := loadSinewNoBench(nobench.NewParams(n).Table, nobench.Generate(n, seed))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(db)
	return &HeapBench{HeapInuseBytes: ms.HeapInuse, HeapObjects: ms.HeapObjects}, nil
}

// table2Report measures the Table 1 queries over the Table 2 experiment's
// fixture: every query with the keys virtual, then every query again after
// materializeTable2.
func table2Report(n int) ([]Table2Bench, error) {
	f, err := SetupTwitter(n, 11)
	if err != nil {
		return nil, err
	}
	queries := Table1Queries()
	order := table2Order()
	out := make([]Table2Bench, len(order))
	measure := func(q string) (plan string, ns, allocs int64, err error) {
		if plan, err = planString(f.Sinew, queries[q]); err != nil {
			return "", 0, 0, err
		}
		ns, allocs, err = benchQuery(f.Sinew, queries[q])
		return plan, ns, allocs, err
	}
	for i, q := range order {
		out[i].Query = q
		if out[i].VirtualPlan, out[i].VirtualNsPerOp, out[i].VirtualAllocs, err = measure(q); err != nil {
			return nil, fmt.Errorf("table2 virtual %s: %w", q, err)
		}
	}
	if err := materializeTable2(f); err != nil {
		return nil, err
	}
	for i, q := range order {
		if out[i].PhysicalPlan, out[i].PhysicalNsPerOp, out[i].PhysicalAllocs, err = measure(q); err != nil {
			return nil, fmt.Errorf("table2 physical %s: %w", q, err)
		}
	}
	return out, nil
}

// planString renders sql's plan as its operator labels in pre-order
// (plan.OperatorNames) followed by its scan order (plan.LeafOrder).
func planString(db *core.DB, sql string) (string, error) {
	ops, leaves, err := db.PlanShape(sql)
	if err != nil {
		return "", err
	}
	return strings.Join(ops, " > ") + " [" + strings.Join(leaves, " ") + "]", nil
}

// WriteReport builds the report and writes it as indented JSON.
func WriteReport(path string, n int, seed int64) (*Report, error) {
	rep, err := BuildReport(n, seed)
	if err != nil {
		return nil, err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(path, append(buf, '\n'), 0o644)
}
