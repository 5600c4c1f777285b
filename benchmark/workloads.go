package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/sinewdata/sinew/internal/core"
)

// workload is what distinguishes the runs: what a set-up loads and how it
// decides the layout, which statements the client sends, and through which
// door.
type workload struct {
	name string
	// inputs generates the collections every set-up of the run loads.
	inputs func(sz sizes) []collection
	// pinned set-ups materialize the paper's keys; the others leave the
	// choice to the schema analyzer's policy.
	pinned bool
	stmts  func(sz sizes, seed int64) []stmt
	// http sends the statements through a sinewd session on loopback; the
	// others call DB.Query in-process.
	http bool
	// oracleEvery and sumEvery: every oracleEvery-th text gets a checksum at
	// set-up, and every sumEvery-th timed reply is compared with it; the
	// row count is compared on every reply.
	oracleEvery, sumEvery int
}

var workloads = []workload{
	{
		name: "nobench_analytic",
		inputs: func(sz sizes) []collection {
			return []collection{{nobenchTable, noBenchDocs(sz.fixtureDocs, dataSeed)}}
		},
		pinned:      true,
		stmts:       func(sz sizes, _ int64) []stmt { return analyticStmts(sz.fixtureDocs) },
		oracleEvery: 1, sumEvery: 64,
	},
	{
		name: "sinewd_point",
		// A second collection of deeper, larger records beside the one the
		// statements read, and the layout left to the policy: the service on
		// a bulk-loaded database that optimized itself.
		inputs: func(sz sizes) []collection {
			return []collection{{nobenchTable, noBenchDocs(sz.fixtureDocs, dataSeed)}, {tweetsTable, tweetDocs(sz.tweets, dataSeed)}}
		},
		stmts: func(sz sizes, seed int64) []stmt { return pointStmts(sz.fixtureDocs, sz.textsPerShape, seed) },
		http:  true,
		// One text in 64 carries a checksum; the other texts' row counts
		// come from the generator.
		oracleEvery: 64, sumEvery: 1,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runWorkload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics, spans written under traceDir).
func runWorkload(name string, sz sizes, seed int64, trace bool, traceDir string, h runHeader) (*result, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		if trace {
			return runTraced(w, sz, seed, traceDir, h)
		}
		return runEndToEnd(w, sz, seed)
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q (have %v)", name, workloadNames())
}

func finish(m *metrics, t tally, perLayer bool) (*result, error) {
	values, err := m.finish(perLayer)
	if err != nil {
		return nil, err
	}
	if t.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed; first: %s\n", t.failed, t.attempted, t.firstFailure)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: values}, nil
}

// ---------- the untraced run ----------

// runEndToEnd is the untraced run of every workload: generate the inputs
// once, then, segment after segment, set up a fresh database from them and
// query it with one closed-loop client. Set-ups and query time alternate so
// that each sees the whole run's share of the host's quiet and disturbed
// moments, and not whatever state the host was in during one block.
func runEndToEnd(w workload, sz sizes, seed int64) (*result, error) {
	segments := sz.segments
	share := sz.window / time.Duration(segments)

	t0 := time.Now()
	in := w.inputs(sz)
	generateS := time.Since(t0).Seconds()
	stmts := w.stmts(sz, seed)

	var f *fixture
	var builds [][]piece
	var samples []sample
	var t tally
	for seg := 0; seg < segments; seg++ {
		if f != nil {
			// The previous segment's database is garbage; do not let it
			// tax this one.
			f = nil
			runtime.GC()
		}
		var err error
		if f, err = buildFixture(in, w.pinned, nil); err != nil {
			return nil, err
		}
		builds = append(builds, f.pieces)
		ss, st, err := querySegment(w, f.db, stmts, seg == 0, seed+int64(seg)*7919, sz.warm, share)
		if err != nil {
			return nil, err
		}
		for _, s := range ss {
			if s.at > 0 {
				samples = append(samples, s)
			}
		}
		t.add(st)
	}
	t.attempted += int64(segments * f.docs) // every document was acknowledged (loadBatches checks)
	in = nil

	probes, flanks := make([]int64, len(samples)), make([]int64, len(samples))
	for i, s := range samples {
		probes[i], flanks[i] = s.before, s.flank()
	}
	limit := quietLimit(probes, flanks)
	m := newMetrics(endToEnd)
	reportBuilds(m, builds, f, generateS, limit)
	m.set("stored_bytes_per_user_byte", f.storedBytesPerUserByte())
	summarize(samples, stmts, limit).report(m)
	m.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(f)
	return finish(m, t, false)
}

// querySegment queries one set-up's database for warm + share through the
// workload's door. The first segment also fills the oracle, through the
// same door.
func querySegment(w workload, db *core.DB, stmts []stmt, first bool, seed int64, warm, share time.Duration) (samples []sample, t tally, err error) {
	var q querier = &inproc{db: db}
	if w.http {
		var d *daemon
		if d, err = startDaemon(db); err != nil {
			return nil, t, err
		}
		defer func() {
			if serr := d.stop(); err == nil {
				err = serr
			}
		}()
		if q, err = d.openSession(); err != nil {
			return nil, t, err
		}
	}
	if first {
		if err = fillOracle(q, stmts, w.oracleEvery); err != nil {
			return nil, t, err
		}
	}
	samples, t = closedLoop(q, newSessionCheck(stmts, w.sumEvery, 0), seed, warm, share, nil)
	return samples, t, nil
}

// reportBuilds reports what the run's set-ups cost on a quiet host. Each
// piece of the build (a LoadJSONLines batch, an optimize step) is repeated
// once per set-up; it counts with the mean of its quiet repeats, scaled to
// the reference host, or, if the host was quiet for none of them, with the
// fastest as it was. The pieces are summed:
// the load's for ingest_docs_per_s, all of them plus the generation of the
// inputs (done once) for setup_s, which is everything that precedes the
// first query.
func reportBuilds(m *metrics, builds [][]piece, f *fixture, generateS float64, limit int64) {
	var loadNs, optimizeNs float64
	for j := range builds[0] {
		var quietNs, quiet float64
		fastest := builds[0][j].ns
		for _, b := range builds {
			fastest = min(fastest, b[j].ns)
			if b[j].flank() <= limit {
				quietNs += float64(b[j].ns) * b[j].scale()
				quiet++
			}
		}
		ns := float64(fastest)
		if quiet > 0 {
			ns = quietNs / quiet
		}
		if j < f.loadPieces {
			loadNs += ns
		} else {
			optimizeNs += ns
		}
	}
	m.set("setup_s", generateS+(loadNs+optimizeNs)/1e9)
	m.set("ingest_docs_per_s", float64(f.docs)/(loadNs/1e9))
}

// ---------- window statistics ----------

type windowStats struct {
	n, quiet int
	perS     float64
	p50, p99 float64 // ms
}

// summarize reduces a run's statements to its query metrics, from the quiet
// ones, scaled to the reference host (see quiet.go). A long statement is
// likelier than a short one to have a disturbed probe on one side, so the
// quiet statements are not the mix that was sent. The mix is restored by
// group: a group is the texts that cost the same by construction (one text
// of the analytic set, one shape of sinewd_point's), and each group counts
// with the number of its texts.
//
// queries_per_s is what one closed-loop client completes per second: the
// reciprocal of the mean latency, the mean of the groups' means.
// query_p50_ms is the typical text's median latency: the geometric mean over
// the texts of each text's median, so that every text counts, cheap or
// dear, and none decides alone. (The median over the texts was tried: it is
// one text's median, on the analytic set Q11's, and that text happens to
// spread by 20 %.) query_p99_ms is over all quiet statements, weighted to
// the mix.
func summarize(samples []sample, stmts []stmt, limit int64) windowStats {
	ws := windowStats{n: len(samples)}
	groups := 0
	for _, s := range stmts {
		groups = max(groups, s.group+1)
	}
	texts := make([]float64, groups)
	for _, s := range stmts {
		texts[s.group]++
	}
	quiet, all := make([][]float64, groups), make([][]float64, groups)
	for _, s := range samples {
		g := stmts[s.stmt].group
		all[g] = append(all[g], ms(s.dur))
		if s.flank() <= limit {
			quiet[g] = append(quiet[g], ms(s.dur)*s.scale())
			ws.quiet++
		}
	}
	var values, weights, medians, medianWeights []float64
	var meanSum, textSum float64
	for g, durs := range quiet {
		if len(durs) == 0 {
			// Too short a run to have caught this group in a quiet moment.
			durs = all[g]
		}
		if len(durs) == 0 {
			continue
		}
		var sum float64
		for _, d := range durs {
			sum += d
			values, weights = append(values, d), append(weights, texts[g]/float64(len(durs)))
		}
		meanSum += texts[g] * sum / float64(len(durs))
		textSum += texts[g]
		medians, medianWeights = append(medians, medianF(durs)), append(medianWeights, texts[g])
	}
	ws.perS = 1000 * textSum / meanSum
	ws.p50 = weightedGeoMean(medians, medianWeights)
	ws.p99 = weightedPercentile(values, weights, 0.99)
	return ws
}

func (ws windowStats) report(m *metrics) {
	m.set("queries_per_s", ws.perS)
	m.set("query_p50_ms", ws.p50)
	m.set("query_p99_ms", ws.p99)
	fmt.Fprintf(os.Stderr, "window: %d statements, %d of them on a quiet host\n", ws.n, ws.quiet)
}

// ---------- reads beside a writer (traced sinewd_point run) ----------

// The writer follows every updateEvery-th batch with the sparse UPDATE and
// every analyzeEvery-th with ANALYZE, which re-freezes. It never runs the
// materializer, so from the first batch on the materialized columns stay
// dirty and every predicate on them is a COALESCE over column and
// reservoir: reads beside an ingest the materializer has not caught up
// with.
const (
	updateEvery  = 5
	analyzeEvery = 10
)

type busyOutcome struct {
	samples []sample // at <= 0: the reader alone, before the writer started
	t       tally
	docs    int
}

// busyPhase runs one sinewd session reading in a closed loop while one
// writer goroutine loads pending through LoadJSONLines. The reader has the
// database to itself for sz.warm, then the writer starts. The writer is
// paced: it sends its batches evenly over sz.busyWindow, as a feed would,
// not back to back, so the table grows at the same rate on every commit and
// machine and the reader keeps a processor.
func busyPhase(db *core.DB, preloaded int, pending [][]byte, d *daemon, stmts []stmt, sz sizes, seed int64, tr *tracer) (busyOutcome, error) {
	var out busyOutcome
	sess, err := d.openSession()
	if err != nil {
		return out, err
	}
	if err := fillOracle(sess, stmts, 1); err != nil {
		return out, err
	}
	reader := &tracedQuerier{q: sess, tr: tr, name: "service.roundtrip"}
	chk := newSessionCheck(stmts, 0, int64(preloaded))

	timed := func(name string, ref int, fn func() error) error {
		sp := tr.begin(name, 0, int32(ref))
		err := fn()
		tr.end(sp)
		return err
	}
	write := func() error {
		start := time.Now()
		interval := sz.busyWindow / time.Duration(len(pending))
		for i, b := range pending {
			// A writer that has fallen behind its schedule sends at once.
			time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
			err := timed("core.load_batch", i, func() error {
				res, err := db.LoadJSONLines(nobenchTable, bytes.NewReader(b))
				if err == nil {
					out.docs += int(res.Documents)
				}
				return err
			})
			if err == nil && (i+1)%updateEvery == 0 {
				err = timed("core.update", i, func() error {
					_, err := db.Query(sparseUpdate())
					return err
				})
			}
			if err == nil && (i+1)%analyzeEvery == 0 {
				err = timed("storage.analyze_freeze", i, func() error { return db.RDBMS().Analyze(nobenchTable) })
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	stop := make(chan struct{})
	werr := make(chan error, 1)
	go func() {
		time.Sleep(sz.warm)
		err := write()
		close(stop)
		werr <- err
	}()
	// The reader's own deadline only matters if the writer hangs.
	out.samples, out.t = closedLoop(reader, chk, seed, sz.warm, 4*sz.busyWindow, stop)
	if err := <-werr; err != nil {
		return out, fmt.Errorf("benchmark: writer: %w", err)
	}

	out.t.attempted += int64(out.docs) + 1
	if r, err := sess.query(fmt.Sprintf(`SELECT COUNT(*) FROM %s`, nobenchTable), false); err != nil {
		out.t.fail("final count: %v", err)
	} else if want := int64(preloaded + out.docs); r.first != want {
		out.t.fail("final count is %d, %d documents were acknowledged", r.first, want)
	}
	return out, nil
}

// tracedQuerier records a span around each statement of a client.
type tracedQuerier struct {
	q    querier
	tr   *tracer
	name string
	n    int32
}

func (t *tracedQuerier) query(text string, withSum bool) (reply, error) {
	t.n++
	sp := t.tr.begin(t.name, 0, t.n)
	r, err := t.q.query(text, withSum)
	t.tr.end(sp)
	return r, err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
