package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the product itself is not instrumented). Parent is the span that
// caused it, 0 for a root. A child may lie outside its parent's interval:
// layer costs are measured by replaying the parent's input through each
// layer separately, after the parent call returned. Ref is the statement
// or batch id the spans of one operation share.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Ref    int32  `json:"ref"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run shares code with the traced one.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, ref int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Ref: ref, Start: now})
	t.mu.Unlock()
	return id
}

// end closes a span and returns its length in ns.
func (t *tracer) end(id int32) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	d := now - s.Start
	t.mu.Unlock()
	return d
}

// totalMs sums the finished spans of one name, in ms.
func (t *tracer) totalMs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End > 0 {
			sum += s.End - s.Start
		}
	}
	return ms(sum)
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Header runHeader `json:"header"`
	Spans  []span    `json:"spans"`
}

func (t *tracer) write(dir, workload string, h runHeader) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(traceFile{Header: h, Spans: t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// ---------- order statistics ----------

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func medianNs(xs []int64) int64 { return percentile(sortedCopy(xs), 0.5) }

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the first and third quartile of sorted as
// a share of its median, quartiles as Python's statistics.quantiles(n=4)
// gives them (the driver's measure of run-to-run noise).
func spread(sorted []float64) float64 {
	n := len(sorted)
	if medianF(sorted) == 0 {
		return 0
	}
	quartile := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / medianF(sorted)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
