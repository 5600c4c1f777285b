package main

import (
	"math"
	"sort"
	"time"
)

// This host is a few processors of a shared machine, and its neighbours
// disturb it: for fractions of a second to seconds at a time, and for a
// share of the time that drifts between a tenth and most of it over
// minutes, compute-bound code runs 1.5 to 2 times slower. Nothing ever makes
// it faster. A median over a run therefore follows the neighbours' duty
// cycle, and ten runs of one commit spread by 25-45 %.
//
// So the benchmark watches the host itself. Between any two timed pieces of
// work (statements, load batches, optimize steps) it times a fixed,
// cache-resident loop of about 25 µs, the probe. The probe has two clear
// modes, undisturbed and disturbed; a piece of work counts as quiet when the
// probes on both sides of it were undisturbed, and the end-to-end timings
// are taken from quiet pieces only. The choice does not look at the piece's
// own duration, so the program's own slow moments (a garbage collection, a
// cold cache) stay in.

var (
	probeBuf  [2048]int64
	probeSink int64
)

// probe times the reference loop and returns ns.
func probe() int64 {
	t0 := time.Now()
	var s int64
	for r := 0; r < 20; r++ {
		for i := range probeBuf {
			probeBuf[i] = probeBuf[i]*31 + int64(i)
			s += probeBuf[i]
		}
	}
	probeSink += s
	return int64(time.Since(t0))
}

// timed is embedded in whatever was timed between two probes.
type timed struct {
	before, after int64 // probe ns
}

// flank is the worse of the two probes around a piece of work.
func (t timed) flank() int64 { return max(t.before, t.after) }

// scale converts a quiet piece of work's duration to the reference host's:
// the host on which the probe takes probeRefNs. Also between disturbances
// the host is not one speed: the probe takes 24.4 µs for a third of one run
// and never in the next, and anything from 26.5 to 29 µs otherwise, and
// statements and batches follow it. Scaled by the probes beside them, ten
// runs agree twice as well (3.8 % against 6.3 % on queries_per_s, 4.5 %
// against 10.9 % on ingest_docs_per_s).
func (t timed) scale() float64 { return probeRefNs / (float64(t.before+t.after) / 2) }

// probeRefNs is the probe's usual undisturbed time on the host this
// benchmark was written on. It only fixes the unit: every end-to-end timing
// reads as on a host that runs the probe in exactly this time.
const probeRefNs = 27500

const (
	// quietFactor is how far above the run's fastest probes a probe may lie
	// and still count as undisturbed. The probe has three modes on this
	// host: 24.4 µs (rare), 27-28 µs (the usual quiet one) and 45-57 µs
	// (disturbed); the limit has to fall between the last two whether or
	// not the run saw the first.
	quietFactor = 1.3
	// quietFloor is the share of a run's statements its metrics come from
	// at the least: on a host that is never quiet, the least disturbed
	// tenth.
	quietFloor = 0.10
)

// quietLimit is the flank up to which a piece of work counts as quiet, from
// the probes and the flanks of all of a run's statements. The reference is
// the run's own fastest probe time: its thousandth-smallest part, so that
// one freak does not set it. Even a run that is disturbed nearly throughout
// has that many undisturbed probes.
func quietLimit(probes, flanks []int64) int64 {
	if len(probes) == 0 {
		return 0
	}
	return max(int64(quietFactor*float64(percentile(sortedCopy(probes), 0.001))), percentile(sortedCopy(flanks), quietFloor))
}

// weightedPercentile is the nearest-rank p-quantile of values with weights.
func weightedPercentile(values, weights []float64, p float64) float64 {
	idx := make([]int, len(values))
	var total float64
	for i := range idx {
		idx[i] = i
		total += weights[i]
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	var acc float64
	for _, i := range idx {
		if acc += weights[i]; acc >= p*total {
			return values[i]
		}
	}
	return 0
}

// weightedGeoMean is the geometric mean of positive values with weights.
func weightedGeoMean(values, weights []float64) float64 {
	var sum, total float64
	for i, v := range values {
		sum += weights[i] * math.Log(v)
		total += weights[i]
	}
	if total == 0 {
		return 0
	}
	return math.Exp(sum / total)
}
