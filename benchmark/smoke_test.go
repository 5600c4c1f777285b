package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// smokeSizes runs every code path of every workload in a second or two
// each.
func smokeSizes() sizes {
	return sizes{
		window:        time.Second,
		warm:          100 * time.Millisecond,
		segments:      2,
		fixtureDocs:   2000,
		tweets:        1000,
		textsPerShape: 128,
		busyDocs:      5000,
		busyWindow:    time.Second,
		traceStmts:    256,
		openRate:      200,
		openWindow:    time.Second,
	}
}

// exactRepeat names the per-layer counts that must repeat exactly for one
// seed: those read around the single-client passes, before sinewd_point's
// concurrent phases.
var exactRepeat = []string{
	"serial.dict_attrs", "core.materialize_rows_moved", "core.materialized_columns",
	"plancache.hit_ratio", "plancache.entries",
	"exec.bytes_read_per_result_row", "exec.pages_skipped", "exec.segments_scanned",
	"exec.segments_skipped_zonemap", "exec.sel_vector_batches", "exec.parallel_workers",
	"exec.sort_batches", "exec.topn_short_circuits",
	"storage.frozen_pages", "storage.table_bytes",
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not emitted", d.name)
			continue
		}
		if v.Unit != d.unit || v.Unit == "" {
			t.Errorf("metric %s has unit %q, declared %q", d.name, v.Unit, d.unit)
		}
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q is outside the contract", d.name)
		}
	}
}

func TestWorkloadsUntraced(t *testing.T) {
	for _, name := range workloadNames() {
		r, err := runWorkload(name, smokeSizes(), 7, false, "", runHeader{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMetrics(t, r, endToEnd)
		for k, v := range r.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", name, k, v.Value)
			}
		}
	}
}

func TestWorkloadsTraced(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workloadNames() {
		first, err := runWorkload(name, smokeSizes(), 7, true, dir, runHeader{Workload: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMetrics(t, first, perLayer)
		if v := first.Metrics["loadgen.failed_ops_share"].Value; v != 0 {
			t.Errorf("%s: failed_ops_share = %v", name, v)
		}
		checkTraceFile(t, filepath.Join(dir, "trace-"+name+".json"))

		second, err := runWorkload(name, smokeSizes(), 7, true, dir, runHeader{Workload: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range exactRepeat {
			if a, b := first.Metrics[k].Value, second.Metrics[k].Value; a != b {
				t.Errorf("%s: count %s did not repeat: %v then %v", name, k, a, b)
			}
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for i, s := range tf.Spans {
		if int(s.ID) != i+1 {
			t.Fatalf("%s: span %d has id %d", path, i, s.ID)
		}
		if s.Parent < 0 || int(s.Parent) > len(tf.Spans) || s.Parent == s.ID {
			t.Errorf("%s: span %d (%s) has unresolvable parent %d", path, s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) was never closed", path, s.ID, s.Name)
		}
	}
}

// TestDeclaredInBenchmarkJSON keeps BENCHMARK.json and the program's metric
// tables in step.
func TestDeclaredInBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(decl.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(decl.Workloads), len(names))
	}
	for i, w := range decl.Workloads {
		if i < len(names) && w.Name != names[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, names[i])
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}

func TestFingerprintsMatch(t *testing.T) {
	if err := checkFingerprints(); err != nil {
		t.Fatal(err)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}
