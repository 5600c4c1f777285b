package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms"
	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/plan"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
)

// layerTrace is the traced run's state. The product is not instrumented,
// so a layer's cost is measured by calling that layer's public functions on
// the same input the end-to-end call just consumed: after each
// LoadJSONLines batch the benchmark replays the batch through jsonx, serial
// and storage on its own shadow dictionary and scratch table, and the
// loader's self time is the difference.
type layerTrace struct {
	tr *tracer

	shadowDict *serial.Dictionary
	scratch    *core.DB // owns the scratch collection storage.insert is timed on
	nextID     int64
	// records are the first serialized records (whole pages) of the shadow
	// pipeline, the input of the serial kernel passes.
	records [][]byte

	docs, userBytes, serialBytes                   int64
	loadNs, parseNs, flattenNs, serialNs, insertNs int64
	rowsMoved                                      int64
}

const (
	scratchTable  = "scratch"
	pageRows      = 128 // storage's page grouping factor: one segment's worth of records
	kernelRecords = 4 * pageRows
	kernelRepeats = 15
)

func newLayerTrace() (*layerTrace, error) {
	lt := &layerTrace{tr: newTracer(), shadowDict: serial.NewDictionary(), scratch: core.Open(core.DefaultConfig())}
	// A Sinew collection, so the scratch heap carries the same attribute
	// summarizer the real one pays for on insert.
	if err := lt.scratch.CreateCollection(scratchTable); err != nil {
		return nil, err
	}
	return lt, nil
}

func (lt *layerTrace) tracer() *tracer {
	if lt == nil {
		return nil
	}
	return lt.tr
}

var flattenSink int

// loadBatch loads one batch for real, then replays it layer by layer.
func (lt *layerTrace) loadBatch(db *core.DB, table string, batch []byte, ref int32) (int64, error) {
	tr := lt.tr
	parent := tr.begin("core.load_batch", 0, ref)
	res, err := db.LoadJSONLines(table, bytes.NewReader(batch))
	lt.loadNs += tr.end(parent)
	if err != nil {
		return 0, err
	}

	lines := bytes.Split(bytes.TrimSuffix(batch, []byte{'\n'}), []byte{'\n'})
	docs := make([]*jsonx.Doc, len(lines))
	sp := tr.begin("jsonx.parse", parent, ref)
	for i, line := range lines {
		if docs[i], err = jsonx.ParseDocument(line); err != nil {
			return 0, err
		}
	}
	lt.parseNs += tr.end(sp)

	sp = tr.begin("jsonx.flatten", parent, ref)
	for _, d := range docs {
		flattenSink += len(jsonx.Flatten(d))
	}
	lt.flattenNs += tr.end(sp)

	recs := make([][]byte, len(docs))
	sp = tr.begin("serial.serialize", parent, ref)
	for i, d := range docs {
		if recs[i], err = serial.Serialize(d, lt.shadowDict); err != nil {
			return 0, err
		}
	}
	lt.serialNs += tr.end(sp)

	rows := make([]storage.Row, len(recs))
	for i, rec := range recs {
		lt.nextID++
		rows[i] = storage.Row{types.NewInt(lt.nextID), types.NewBytes(rec)}
		lt.serialBytes += int64(len(rec))
		if len(lt.records) < kernelRecords {
			lt.records = append(lt.records, rec)
		}
	}
	sp = tr.begin("storage.insert", parent, ref)
	err = lt.scratch.RDBMS().InsertRows(scratchTable, rows)
	lt.insertNs += tr.end(sp)
	if err != nil {
		return 0, err
	}
	lt.docs += int64(len(docs))
	lt.userBytes += int64(len(batch))
	return res.Documents, nil
}

// reportLoad turns the replayed load into the ingest-side layer metrics.
func (lt *layerTrace) reportLoad(m *metrics, db *core.DB) {
	n := float64(lt.docs)
	m.set("jsonx.parse_ns_per_doc", float64(lt.parseNs)/n)
	m.set("jsonx.parse_mb_per_s", float64(lt.userBytes)/1e6/(float64(lt.parseNs)/1e9))
	m.set("jsonx.flatten_ns_per_doc", float64(lt.flattenNs)/n)
	m.set("serial.serialize_ns_per_doc", float64(lt.serialNs)/n)
	m.set("serial.bytes_per_user_byte", float64(lt.serialBytes)/float64(lt.userBytes))
	m.set("serial.dict_attrs", float64(db.Catalog().Dict().Len()))
	m.set("storage.insert_ns_per_row", float64(lt.insertNs)/n)
	m.set("core.load_self_ns_per_doc", float64(lt.loadNs-lt.parseNs-lt.flattenNs-lt.serialNs-lt.insertNs)/n)
	lt.scratch = nil
}

func (lt *layerTrace) reportOptimize(m *metrics, db *core.DB, tables []string) error {
	m.set("core.analyze_schema_ms", lt.tr.totalMs("core.analyze_schema"))
	m.set("core.materialize_ms", lt.tr.totalMs("core.materialize"))
	m.set("core.materialize_rows_moved", float64(lt.rowsMoved))
	m.set("storage.freeze_ms", lt.tr.totalMs("storage.analyze_freeze"))
	m.set("storage.frozen_pages", float64(db.RDBMS().FrozenPages()))
	var cols int
	var tableBytes int64
	for _, t := range tables {
		cols += len(db.MaterializedColumns(t))
		b, err := db.RDBMS().TableSizeBytes(t)
		if err != nil {
			return err
		}
		tableBytes += b
	}
	m.set("core.materialized_columns", float64(cols))
	m.set("storage.table_bytes", float64(tableBytes))
	return nil
}

// repeatNs times fn kernelRepeats times under spans of one name and
// returns the median length.
func (lt *layerTrace) repeatNs(name string, fn func() error) (int64, error) {
	durs := make([]int64, kernelRepeats)
	for i := range durs {
		sp := lt.tr.begin(name, 0, int32(i))
		err := fn()
		durs[i] = lt.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("benchmark: %s: %w", name, err)
		}
	}
	return medianNs(durs), nil
}

// kernels times the serial layer's read-side kernels over the first pages
// of records the load produced: what the executor pays per record for a
// virtual column, and what a frozen segment saves.
func (lt *layerTrace) kernels(m *metrics) error {
	recs, dict := lt.records, lt.shadowDict
	recs = recs[:len(recs)/pageRows*pageRows]
	if len(recs) == 0 {
		return fmt.Errorf("benchmark: fewer than %d records loaded, no page to run the kernels on", pageRows)
	}
	n := float64(len(recs))

	d, err := lt.repeatNs("serial.extract", func() error {
		for _, r := range recs {
			if _, _, err := serial.ExtractPath(r, "str1", serial.TypeString, dict); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("serial.extract_ns_per_record", float64(d)/n)

	pm := serial.PrepareMulti([]serial.MultiSpec{{Path: "str1", Want: serial.TypeString}, {Path: "num", Want: serial.TypeInt}}, dict)
	out, found := make([]jsonx.Value, 2), make([]bool, 2)
	var rec serial.Record
	if d, err = lt.repeatNs("serial.multiextract", func() error {
		for _, r := range recs {
			if err := rec.Reset(r); err != nil {
				return err
			}
			if err := rec.MultiExtract(pm, dict, out, found); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m.set("serial.multiextract_ns_per_record", float64(d)/n)

	var buf []byte
	if d, err = lt.repeatNs("serial.tojson", func() error {
		for _, r := range recs {
			var err error
			if buf, err = serial.AppendJSON(buf[:0], r, dict); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m.set("serial.tojson_ns_per_record", float64(d)/n)

	segs := make([][]byte, len(recs)/pageRows)
	if d, err = lt.repeatNs("serial.segment_encode", func() error {
		for i := range segs {
			var err error
			if segs[i], err = serial.EncodeSegment(recs[i*pageRows:(i+1)*pageRows], dict); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m.set("serial.segment_encode_ns_per_record", float64(d)/n)

	numID, ok1 := dict.IDOf("num", serial.TypeInt)
	strID, ok2 := dict.IDOf("str1", serial.TypeString)
	if !ok1 || !ok2 {
		return fmt.Errorf("benchmark: the loaded records have no str1/num attributes")
	}
	parsed := make([]*serial.Segment, len(segs))
	for i, enc := range segs {
		if parsed[i], err = serial.ParseSegment(enc); err != nil {
			return err
		}
	}
	var values int
	var sink int64
	if d, err = lt.repeatNs("serial.segment_scan", func() error {
		values = 0
		for _, seg := range parsed {
			nums, ok1 := seg.Column(numID)
			strs, ok2 := seg.Column(strID)
			if !ok1 || !ok2 {
				return fmt.Errorf("segment lacks the str1/num columns")
			}
			if err := nums.Ints(func(_ int, v int64) { sink += v; values++ }); err != nil {
				return err
			}
			if err := strs.Strings(func(_ int, b []byte) { sink += int64(len(b)); values++ }); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	flattenSink += int(sink)
	m.set("serial.segment_scan_ns_per_value", float64(d)/float64(values))
	return nil
}

func (lt *layerTrace) scan(m *metrics, db *core.DB) error {
	var rows int
	d, err := lt.repeatNs("storage.scan", func() error {
		rows = 0
		return db.RDBMS().ScanTable(nobenchTable, func(storage.RowID, storage.Row) bool { rows++; return true })
	})
	if err != nil {
		return err
	}
	m.set("storage.scan_ns_per_row", float64(d)/float64(rows))
	return nil
}

// statementPass is the single-client pass over the workload's statements:
// each whole (DB.Query, then over HTTP), then layer by layer. The order is
// fixed by the seed, so the product's counters repeat exactly.
type statementPass struct {
	queryP50, roundtripP50 int64 // ns
	t                      tally
	// cache0 and cache1 are the plan cache's counters around the
	// in-process pass.
	cache0, cache1 rdbms.PlanCacheStats
}

func (lt *layerTrace) statements(m *metrics, db *core.DB, d *daemon, stmts []stmt, sz sizes, seed int64) (statementPass, error) {
	var pass statementPass
	tr := lt.tr
	seq := make([]int, min(sz.traceStmts, 20*len(stmts)))
	ord := newOrder(len(stmts), seed)
	for i := range seq {
		seq[i] = ord.next()
	}
	rdb := db.RDBMS()

	// Each text once, so the passes below start from the plan cache a
	// running service has: full of whatever fits.
	in := &inproc{db: db}
	chk := newSessionCheck(stmts, 0, 0)
	for i := range stmts {
		r, err := in.query(stmts[i].text, false)
		chk.verify(i, r, false, err, &pass.t)
	}

	// Whole statements in-process, with the product's counters around them.
	rdb.Pager().Reset()
	pass.cache0 = rdb.PlanCacheStats()
	var all []int64
	var byClass [numClasses][]int64
	var resultRows int64
	tracedStart := time.Now()
	for n, i := range seq {
		sp := tr.begin("core.query", 0, int32(n))
		r, err := in.query(stmts[i].text, false)
		dur := tr.end(sp)
		chk.verify(i, r, false, err, &pass.t)
		resultRows += int64(r.rows)
		all = append(all, dur)
		byClass[stmts[i].class] = append(byClass[stmts[i].class], dur)
	}
	tracedWall := time.Since(tracedStart)
	pass.queryP50 = medianNs(all)
	for c, name := range classNames {
		m.set("query."+name+"_p50_ms", ms(medianNs(byClass[c])))
	}

	read, _ := rdb.Pager().Stats()
	pagesSkipped, workers := rdb.Pager().ExecStats()
	segScanned, _ := rdb.Pager().SegStats()
	zoneSkipped, selBatches, _ := rdb.Pager().SelStats()
	sortBatches, topn, _ := rdb.Pager().SortStats()
	m.set("exec.bytes_read_per_result_row", float64(read)/float64(max(resultRows, 1)))
	m.set("exec.pages_skipped", float64(pagesSkipped))
	m.set("exec.parallel_workers", float64(workers))
	m.set("exec.segments_scanned", float64(segScanned))
	m.set("exec.segments_skipped_zonemap", float64(zoneSkipped))
	m.set("exec.sel_vector_batches", float64(selBatches))
	m.set("exec.sort_batches", float64(sortBatches))
	m.set("exec.topn_short_circuits", float64(topn))
	pass.cache1 = rdb.PlanCacheStats()

	// The same pass without spans: the difference is what tracing costs.
	untracedStart := time.Now()
	for _, i := range seq {
		r, err := in.query(stmts[i].text, false)
		chk.verify(i, r, false, err, &pass.t)
	}
	untracedWall := time.Since(untracedStart)
	m.set("loadgen.trace_overhead_pct", 100*(tracedWall.Seconds()-untracedWall.Seconds())/untracedWall.Seconds())

	// Over loopback HTTP on one session.
	opens := make([]int64, 16)
	var sess *httpSession
	for i := range opens {
		sp := tr.begin("service.session_open", 0, int32(i))
		s, err := d.openSession()
		opens[i] = tr.end(sp)
		if err != nil {
			return pass, err
		}
		sess = s
	}
	m.set("service.session_open_us", float64(medianNs(opens))/1e3)
	hchk := newSessionCheck(stmts, 0, 0)
	var trips []int64
	var respBytes, respRows int64
	for n, i := range seq {
		sp := tr.begin("service.roundtrip", 0, int32(n))
		r, err := sess.query(stmts[i].text, false)
		trips = append(trips, tr.end(sp))
		hchk.verify(i, r, false, err, &pass.t)
		respBytes += int64(r.bytes)
		respRows += int64(r.rows)
	}
	pass.roundtripP50 = medianNs(trips)
	m.set("service.overhead_p50_us", float64(pass.roundtripP50-pass.queryP50)/1e3)
	m.set("service.response_bytes_per_row", float64(respBytes)/float64(max(respRows, 1)))

	// Layer by layer: what DB.Query does on a plan-cache miss, one public
	// call at a time.
	var parseNs, rewriteNs, planNs []int64
	var collectNs [numClasses][]int64
	plans := make([]*plan.SelectPlan, len(stmts))
	for n, i := range seq {
		s := &stmts[i]
		ref := int32(n)
		parent := tr.begin("stmt", 0, ref)

		sp := tr.begin("sqlparse.parse", parent, ref)
		parsed, err := sqlparse.Parse(s.text)
		parseNs = append(parseNs, tr.end(sp))
		sel, ok := parsed.(*sqlparse.SelectStmt)
		if err != nil || !ok {
			return pass, fmt.Errorf("benchmark: %s: not a SELECT the layers can replay: %v", s.text, err)
		}

		sp = tr.begin("core.rewrite", parent, ref)
		rewritten, cleanup, err := db.RewriteStmt(sel)
		rewriteNs = append(rewriteNs, tr.end(sp))
		if err != nil {
			return pass, err
		}
		cleanup()

		sp = tr.begin("plan.plan", parent, ref)
		p, err := rdb.PlanSelect(rewritten.(*sqlparse.SelectStmt))
		planNs = append(planNs, tr.end(sp))
		if err != nil {
			return pass, err
		}
		plans[i] = p

		sp = tr.begin("exec.collect", parent, ref)
		ec := exec.NewExecCtx()
		rows, err := p.CollectCtx(ec)
		ec.Release()
		collectNs[s.class] = append(collectNs[s.class], tr.end(sp))
		tr.end(parent)
		pass.t.attempted++
		if err != nil {
			pass.t.fail("%s: collect: %v", s.text, err)
		} else if s.check == checkFixed && len(rows) != s.rows {
			pass.t.fail("%s: replayed plan returned %d rows, oracle says %d", s.text, len(rows), s.rows)
		}
	}
	m.set("sqlparse.parse_us_per_stmt", float64(medianNs(parseNs))/1e3)
	m.set("core.rewrite_us_per_stmt", float64(medianNs(rewriteNs))/1e3)
	m.set("plan.plan_us_per_stmt", float64(medianNs(planNs))/1e3)
	for c, name := range classNames {
		m.set("exec.collect_ms."+name, ms(medianNs(collectNs[c])))
	}

	// Executor allocations, with nothing else running.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, i := range seq {
		ec := exec.NewExecCtx()
		if _, err := plans[i].CollectCtx(ec); err != nil {
			return pass, err
		}
		ec.Release()
	}
	runtime.ReadMemStats(&ms1)
	m.set("exec.allocs_per_stmt", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(seq)))
	return pass, nil
}

// reportPlanCache explains a pass by the plan cache: capacity misses on
// sinewd_point, ~all hits on nobench_analytic. end is the
// cache at the end of the run: invalidations come from sinewd_point's
// writer, each load batch being one.
func reportPlanCache(m *metrics, before, after, end rdbms.PlanCacheStats, stmts []stmt) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	m.set("plancache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	m.set("plancache.invalidations", float64(end.Invalidations-before.Invalidations))
	m.set("plancache.entries", float64(after.Entries))
	fmt.Fprintf(os.Stderr, "plan cache: %d hits, %d misses over %d distinct texts; %d invalidations by the end of the run\n",
		hits, misses, len(stmts), end.Invalidations-before.Invalidations)
}

// runTraced is the -trace 1 run of any workload: set up once under spans,
// profile the layers on the workload's own data and statements with one
// client, then, on sinewd_point, the service's two concurrent phases: the
// open loop, and reads beside a writer.
func runTraced(w workload, sz sizes, seed int64, dir string, h runHeader) (*result, error) {
	lt, err := newLayerTrace()
	if err != nil {
		return nil, err
	}
	m := newMetrics(perLayer)

	in := w.inputs(sz)
	var pending [][]byte
	if w.http {
		// The writer continues the generator the fixture came from, so its
		// documents match none of the reader's constants.
		all := noBenchDocs(sz.fixtureDocs+sz.busyDocs, dataSeed)
		in[0].docs = all.first(sz.fixtureDocs / batchDocs)
		pending = all.batches[sz.fixtureDocs/batchDocs:]
	}
	f, err := buildFixture(in, w.pinned, lt)
	if err != nil {
		return nil, err
	}
	db := f.db
	stmts := w.stmts(sz, seed)
	tables := make([]string, len(in))
	for i, c := range in {
		tables[i] = c.table
	}
	in = nil
	lt.reportLoad(m, db)
	if err := lt.reportOptimize(m, db, tables); err != nil {
		return nil, err
	}
	if err := lt.kernels(m); err != nil {
		return nil, err
	}
	if err := lt.scan(m, db); err != nil {
		return nil, err
	}
	if err := fillOracle(&inproc{db: db}, stmts, w.oracleEvery); err != nil {
		return nil, err
	}

	d, err := startDaemon(db)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, epoch0, cow0 := db.RDBMS().SnapshotStats()
	t0 := time.Now()
	pass, err := lt.statements(m, db, d, stmts, sz, seed)
	idleP50 := pass.roundtripP50
	if err == nil && w.http {
		if err = lt.openLoopPhase(m, d, stmts, sz, seed, &pass.t); err == nil {
			idleP50, err = lt.busyPhase(m, db, sz.fixtureDocs, pending, d, sz, seed, &pass.t)
		}
	}
	wall := time.Since(t0)
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	m.set("service.idle_p50_ms", ms(idleP50))
	reportPlanCache(m, pass.cache0, pass.cache1, db.RDBMS().PlanCacheStats(), stmts)

	runtime.ReadMemStats(&ms1)
	m.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	m.set("runtime.gc_pause_total_ms", ms(int64(ms1.PauseTotalNs-ms0.PauseTotalNs)))
	m.set("runtime.alloc_mb_per_s", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/wall.Seconds())
	_, epoch1, cow1 := db.RDBMS().SnapshotStats()
	_, unfrozen := db.RDBMS().Pager().SegStats()
	m.set("storage.pages_cow", float64(cow1-cow0))
	m.set("storage.snapshot_epochs", float64(epoch1-epoch0))
	m.set("storage.segment_pages_unfrozen", float64(unfrozen))
	m.set("loadgen.failed_ops_share", float64(pass.t.failed)/float64(max(pass.t.attempted, 1)))

	if err := lt.tr.write(dir, w.name, h); err != nil {
		return nil, err
	}
	return finish(m, pass.t, true)
}

// openLoopPhase is sinewd_point's arrival-driven phase: a fixed rate below
// capacity, every request timed from when it was due.
func (lt *layerTrace) openLoopPhase(m *metrics, d *daemon, stmts []stmt, sz sizes, seed int64, t *tally) error {
	sp := lt.tr.begin("loadgen.open_loop", 0, 0)
	latency, lateness, ot, err := openLoop(d, stmts, seed, sz.openRate, sz.openWindow)
	lt.tr.end(sp)
	if err != nil {
		return err
	}
	t.add(ot)
	m.set("service.open_p99_ms", ms(percentile(sortedCopy(latency), 0.99)))
	m.set("loadgen.open_lateness_p99_ms", ms(percentile(sortedCopy(lateness), 0.99)))
	return nil
}

// busyPhase runs a writer beside a sinewd reader under spans and reports
// how much the reader slows: its median before the writer starts against
// its median while the writer runs. It comes last, because the writer
// leaves the materialized columns dirty.
func (lt *layerTrace) busyPhase(m *metrics, db *core.DB, preloaded int, pending [][]byte, d *daemon, sz sizes, seed int64, t *tally) (idleP50 int64, err error) {
	out, err := busyPhase(db, preloaded, pending, d, busyStmts(preloaded, seed), sz, seed, lt.tr)
	if err != nil {
		return 0, err
	}
	t.add(out.t)
	var idle, busy []int64
	for _, s := range out.samples {
		if s.at <= 0 {
			idle = append(idle, s.dur)
		} else {
			busy = append(busy, s.dur)
		}
	}
	idleP50 = medianNs(idle)
	m.set("service.busy_idle_ratio", float64(medianNs(busy))/float64(max(idleP50, 1)))
	return idleP50, nil
}
