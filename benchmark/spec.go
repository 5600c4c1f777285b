package main

import (
	"fmt"
	"sort"
)

type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run (-trace 0). Every workload
// reports every one of them: BENCHMARK.json fixes direction and bound per
// name, and README.md says where each workload takes a metric from.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"queries_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"ingest_docs_per_s", "1/s"},
	{"stored_bytes_per_user_byte", "ratio"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the metrics of a traced run (-trace 1). A metric that does
// not apply to a workload (no statement of that class; no writer and no
// open-loop phase off sinewd_point) is reported as 0.
var perLayer = []metricDef{
	{"jsonx.parse_ns_per_doc", "ns"},
	{"jsonx.parse_mb_per_s", "MB/s"},
	{"jsonx.flatten_ns_per_doc", "ns"},

	{"serial.serialize_ns_per_doc", "ns"},
	{"serial.bytes_per_user_byte", "ratio"},
	{"serial.dict_attrs", "count"},
	{"serial.segment_encode_ns_per_record", "ns"},
	{"serial.extract_ns_per_record", "ns"},
	{"serial.multiextract_ns_per_record", "ns"},
	{"serial.segment_scan_ns_per_value", "ns"},
	{"serial.tojson_ns_per_record", "ns"},

	{"core.load_self_ns_per_doc", "ns"},
	{"core.analyze_schema_ms", "ms"},
	{"core.materialize_ms", "ms"},
	{"core.materialize_rows_moved", "count"},
	{"core.materialized_columns", "count"},
	{"core.rewrite_us_per_stmt", "us"},

	{"sqlparse.parse_us_per_stmt", "us"},
	{"plan.plan_us_per_stmt", "us"},

	{"plancache.hit_ratio", "ratio"},
	{"plancache.invalidations", "count"},
	{"plancache.entries", "count"},

	{"exec.collect_ms.proj", "ms"},
	{"exec.collect_ms.sel", "ms"},
	{"exec.collect_ms.agg", "ms"},
	{"exec.collect_ms.join", "ms"},
	{"exec.bytes_read_per_result_row", "bytes"},
	{"exec.pages_skipped", "count"},
	{"exec.segments_scanned", "count"},
	{"exec.segments_skipped_zonemap", "count"},
	{"exec.sel_vector_batches", "count"},
	{"exec.parallel_workers", "count"},
	{"exec.sort_batches", "count"},
	{"exec.topn_short_circuits", "count"},
	{"exec.allocs_per_stmt", "count"},

	{"storage.insert_ns_per_row", "ns"},
	{"storage.scan_ns_per_row", "ns"},
	{"storage.freeze_ms", "ms"},
	{"storage.frozen_pages", "count"},
	{"storage.table_bytes", "bytes"},
	{"storage.pages_cow", "count"},
	{"storage.snapshot_epochs", "count"},
	{"storage.segment_pages_unfrozen", "count"},

	{"service.overhead_p50_us", "us"},
	{"service.response_bytes_per_row", "bytes"},
	{"service.session_open_us", "us"},
	{"service.idle_p50_ms", "ms"},
	{"service.busy_idle_ratio", "ratio"},
	{"service.open_p99_ms", "ms"},

	{"query.proj_p50_ms", "ms"},
	{"query.sel_p50_ms", "ms"},
	{"query.agg_p50_ms", "ms"},
	{"query.join_p50_ms", "ms"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.alloc_mb_per_s", "MB/s"},

	{"loadgen.open_lateness_p99_ms", "ms"},
	{"loadgen.trace_overhead_pct", "%"},
	{"loadgen.failed_ops_share", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; its JSON form is the last line of standard
// output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metrics collects a run's values and refuses names outside its list, so a
// run cannot emit a metric BENCHMARK.json does not declare.
type metrics struct {
	defs   map[string]string
	values map[string]metricValue
}

func newMetrics(defs []metricDef) *metrics {
	m := &metrics{defs: make(map[string]string, len(defs)), values: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		m.defs[d.name] = d.unit
	}
	return m
}

func (m *metrics) set(name string, v float64) {
	unit, ok := m.defs[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if _, dup := m.values[name]; dup {
		panic("benchmark: metric set twice: " + name)
	}
	m.values[name] = metricValue{Value: v, Unit: unit}
}

// finish fills metrics the workload left unset with 0 (per-layer only:
// "does not apply") and reports end-to-end ones that are missing or zero.
func (m *metrics) finish(allowMissing bool) (map[string]metricValue, error) {
	var bad []string
	for name, unit := range m.defs {
		v, ok := m.values[name]
		switch {
		case !ok && allowMissing:
			m.values[name] = metricValue{Unit: unit}
		case !ok:
			bad = append(bad, name+" (missing)")
		case v.Value != v.Value || v.Value > 1e300 || v.Value < -1e300:
			bad = append(bad, name+" (not finite)")
		case v.Value == 0 && !allowMissing:
			bad = append(bad, name+" (zero)")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return nil, fmt.Errorf("benchmark: bad metrics: %v", bad)
	}
	return m.values, nil
}
