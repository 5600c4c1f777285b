package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sinewdata/sinew/internal/core"
)

// startServer boots a sinewd instance on a loopback port and returns its
// base URL plus the database underneath. Shutdown runs in cleanup.
func startServer(t *testing.T) (string, *core.DB) {
	t.Helper()
	db := core.Open(core.DefaultConfig())
	srv := New(db)

	addrc := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- srv.Serve("127.0.0.1:0", func(a net.Addr) { addrc <- a })
	}()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a.String()
	case err := <-errc:
		t.Fatalf("serve: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server did not start listening")
	}
	t.Cleanup(func() {
		// The client may hold a connection it dialed but never sent a
		// request on; the server counts such a connection as active for its
		// first five seconds, which would run Shutdown into the deadline.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-errc; err != nil {
			t.Errorf("serve returned: %v", err)
		}
		if n := db.RDBMS().SessionsActive(); n != 0 {
			t.Errorf("sessions_active = %d after shutdown, want 0 (pool not drained)", n)
		}
	})
	return base, db
}

// tryPost sends one request and decodes the JSON reply.
func tryPost(method, url, body string) (int, map[string]any, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, nil, fmt.Errorf("decoding %s %s reply: %v", method, url, err)
	}
	return resp.StatusCode, out, nil
}

// post is tryPost for the test's own goroutine: any failure ends the test.
func post(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	code, out, err := tryPost(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// query runs one statement on the given session ("" = ephemeral) and
// fails the test on a non-200 reply.
func query(t *testing.T, base, session, sql string) map[string]any {
	t.Helper()
	url := base + "/query"
	if session != "" {
		url += "?session=" + session
	}
	code, out := post(t, http.MethodPost, url, sql)
	if code != http.StatusOK {
		t.Fatalf("%q: status %d (%v)", sql, code, out["error"])
	}
	return out
}

// metrics fetches /metrics and parses every line into a map keyed by the
// full metric name (labels included).
func metrics(t *testing.T, base string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestServerEndToEnd drives the whole HTTP surface: session pool, DDL and
// DML over /query, JSON result shapes, per-session and global counters,
// error accounting, and the drain on Shutdown (checked in cleanup).
func TestServerEndToEnd(t *testing.T) {
	base, _ := startServer(t)

	// Two pooled sessions: a writer and a reader.
	_, out := post(t, http.MethodPost, base+"/session", "")
	writer, _ := out["session"].(string)
	_, out = post(t, http.MethodPost, base+"/session", "")
	reader, _ := out["session"].(string)
	if writer == "" || reader == "" || writer == reader {
		t.Fatalf("session ids: writer=%q reader=%q", writer, reader)
	}

	query(t, base, writer, `CREATE TABLE kv (k TEXT, v INT)`)
	res := query(t, base, writer, `INSERT INTO kv VALUES ('a', 1), ('b', 2), ('c', 3)`)
	if ra, _ := res["rows_affected"].(float64); ra != 3 {
		t.Fatalf("rows_affected = %v, want 3", res["rows_affected"])
	}

	// A read on the other session sees the published data with full shape.
	res = query(t, base, reader, `SELECT k, v FROM kv ORDER BY k`)
	cols, _ := res["columns"].([]any)
	rows, _ := res["rows"].([]any)
	if len(cols) != 2 || len(rows) != 3 {
		t.Fatalf("result shape: %d columns, %d rows", len(cols), len(rows))
	}
	first, _ := rows[0].([]any)
	if len(first) != 2 || first[0] != "a" || first[1] != float64(1) {
		t.Fatalf("first row = %v, want [a 1]", first)
	}

	// An ephemeral query (no session) works too.
	query(t, base, "", `SELECT COUNT(*) FROM kv`)

	// A bad statement surfaces as 400 and lands in the error counters.
	code, out := post(t, http.MethodPost, base+"/query?session="+reader, `SELECT nope FROM missing`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad statement: status %d, want 400", code)
	}
	if msg, _ := out["error"].(string); msg == "" {
		t.Fatal("bad statement reply has no error text")
	}

	m := metrics(t, base)
	if got := m["sinew_sessions_active"]; got != 2 {
		t.Errorf("sinew_sessions_active = %d, want 2 pooled sessions", got)
	}
	if got := m["sinew_snapshot_epoch"]; got < 1 {
		t.Errorf("sinew_snapshot_epoch = %d, want >= 1 after writes published", got)
	}
	if got := m["sinew_snapshots_open"]; got != 0 {
		t.Errorf("sinew_snapshots_open = %d at rest, want 0", got)
	}
	if got := m["sinew_queries_total"]; got < 5 {
		t.Errorf("sinew_queries_total = %d, want >= 5", got)
	}
	if got := m["sinew_query_errors_total"]; got != 1 {
		t.Errorf("sinew_query_errors_total = %d, want 1", got)
	}
	// The two SELECTs that ran are cached; the failed one is not. CREATE
	// invalidated the cache; the INSERT, which cataloged nothing, did not.
	if got := m["sinew_plan_cache_entries"]; got != 2 {
		t.Errorf("sinew_plan_cache_entries = %d, want 2", got)
	}
	if got := m["sinew_plan_cache_invalidations"]; got != 1 {
		t.Errorf("sinew_plan_cache_invalidations = %d, want 1", got)
	}
	// The collector's gauges are read per scrape: present, describing the
	// last cycle, and the cycle count never goes back (a forced collection
	// moves it on).
	if _, ok := m["sinew_segment_bytes"]; !ok {
		t.Error("sinew_segment_bytes missing from /metrics")
	}
	gcNames := []string{"sinew_gc_cycles_total", "sinew_heap_objects", "sinew_heap_live_bytes"}
	for _, name := range gcNames {
		if _, ok := m[name]; !ok {
			t.Errorf("%s missing from /metrics", name)
		}
	}
	runtime.GC()
	after := metrics(t, base)
	for _, name := range gcNames {
		if after[name] <= 0 {
			t.Errorf("%s = %d after a collection, want a positive value", name, after[name])
		}
	}
	if before, now := m["sinew_gc_cycles_total"], after["sinew_gc_cycles_total"]; now <= before {
		t.Errorf("sinew_gc_cycles_total went from %d to %d across a collection", before, now)
	}
	wkey := fmt.Sprintf("sinew_session_queries{session=%q}", writer)
	if got := m[wkey]; got != 2 {
		t.Errorf("%s = %d, want 2", wkey, got)
	}
	ekey := fmt.Sprintf("sinew_session_errors{session=%q}", reader)
	if got := m[ekey]; got != 1 {
		t.Errorf("%s = %d, want 1", ekey, got)
	}

	// Closing a session shrinks the gauge; closing it twice is a 404.
	if code, _ := post(t, http.MethodDelete, base+"/session?id="+writer, ""); code != http.StatusOK {
		t.Fatalf("closing %s: status %d", writer, code)
	}
	if got := metrics(t, base)["sinew_sessions_active"]; got != 1 {
		t.Errorf("sinew_sessions_active = %d after close, want 1", got)
	}
	if code, _ := post(t, http.MethodDelete, base+"/session?id="+writer, ""); code != http.StatusNotFound {
		t.Errorf("double close: status %d, want 404", code)
	}
}

// TestReaderLatencyUnderLoad is the service-level liveness check for the
// snapshot read path: while one session bulk-loads, other sessions'
// reads must not queue behind the writer's table lock. The bound is
// deliberately loose (an order of magnitude above the benchmark's 2×
// acceptance bar) so the test stays robust on loaded CI machines; the
// precise number lives in BenchmarkQueryUnderIngest.
func TestReaderLatencyUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement under -short")
	}
	base, _ := startServer(t)

	query(t, base, "", `CREATE TABLE ld (id INT, v INT)`)
	var seed strings.Builder
	seed.WriteString(`INSERT INTO ld VALUES `)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			seed.WriteString(", ")
		}
		fmt.Fprintf(&seed, "(%d, %d)", i, i%97)
	}
	query(t, base, "", seed.String())

	const readSQL = `SELECT COUNT(*), SUM(v) FROM ld WHERE v < 50`
	p50 := func(samples int) time.Duration {
		ds := make([]time.Duration, samples)
		for i := range ds {
			start := time.Now()
			query(t, base, "", readSQL)
			ds[i] = time.Since(start)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	idle := p50(30)

	// Bulk load: a writer hammers insert+delete chunks so the table churns
	// at a steady size for the whole measurement window.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var chunk strings.Builder
		chunk.WriteString(`INSERT INTO ld VALUES `)
		for i := 0; i < 200; i++ {
			if i > 0 {
				chunk.WriteString(", ")
			}
			fmt.Fprintf(&chunk, "(%d, %d)", 100000+i, i)
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			query(t, base, "", chunk.String())
			query(t, base, "", `DELETE FROM ld WHERE id >= 100000`)
		}
	}()
	busy := p50(30)
	close(stop)
	wg.Wait()

	bound := 50 * idle
	if floor := 250 * time.Millisecond; bound < floor {
		bound = floor
	}
	if busy > bound {
		t.Errorf("reader p50 under load = %v, idle = %v: exceeds bound %v (readers appear to block behind the bulk load)",
			busy, idle, bound)
	}
	t.Logf("reader p50: idle %v, under load %v", idle, busy)
}

// ndjson renders n documents {"seq":first..first+n-1,"tag":tag}.
func ndjson(first, n int, tag string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "{\"seq\":%d,\"tag\":%q,\"nested\":{\"even\":%t}}\n", first+i, tag, (first+i)%2 == 0)
	}
	return b.String()
}

// TestLoadEndpoint drives /load: the collection appears on first use, the
// reply counts documents and new attributes, a malformed line is a 400
// naming the line with nothing inserted, and /metrics counts all of it.
func TestLoadEndpoint(t *testing.T) {
	base, _ := startServer(t)
	_, out := post(t, http.MethodPost, base+"/session", "")
	sess, _ := out["session"].(string)

	code, out := post(t, http.MethodPost, base+"/load?collection=Docs&session="+sess, ndjson(0, 10, "a"))
	if code != http.StatusOK || out["documents"] != float64(10) || out["new_attributes"] != float64(5) {
		t.Fatalf("first load: status %d, reply %v", code, out)
	}
	code, out = post(t, http.MethodPost, base+"/load?collection=docs", ndjson(10, 5, "b"))
	if code != http.StatusOK || out["documents"] != float64(5) || out["new_attributes"] != float64(0) {
		t.Fatalf("second load: status %d, reply %v", code, out)
	}
	res := query(t, base, sess, `SELECT COUNT(*), MAX(seq) FROM docs WHERE "nested.even" = true`)
	if row := res["rows"].([]any)[0].([]any); row[0] != float64(8) || row[1] != float64(14) {
		t.Fatalf("loaded documents not queryable: %v", row)
	}

	// Line 3 of 4 is malformed: nothing of the body is loaded.
	code, out = post(t, http.MethodPost, base+"/load?collection=docs&session="+sess,
		ndjson(100, 2, "c")+"{\"seq\":102,\n"+ndjson(103, 1, "c"))
	if code != http.StatusBadRequest || out["line"] != float64(3) || !strings.Contains(fmt.Sprint(out["error"]), "line 3") {
		t.Fatalf("malformed line: status %d, reply %v", code, out)
	}
	res = query(t, base, "", `SELECT COUNT(*) FROM docs`)
	if n := res["rows"].([]any)[0].([]any)[0]; n != float64(15) {
		t.Fatalf("%v documents after a rejected load, want 15", n)
	}

	for _, bad := range []struct {
		method, url string
		want        int
	}{
		{http.MethodGet, "/load?collection=docs", http.StatusMethodNotAllowed},
		{http.MethodPost, "/load", http.StatusBadRequest},
		{http.MethodPost, "/load?collection=no%20such%20name", http.StatusBadRequest},
		{http.MethodPost, "/load?collection=docs&session=nope", http.StatusNotFound},
	} {
		if code, out := post(t, bad.method, base+bad.url, ndjson(0, 1, "x")); code != bad.want {
			t.Errorf("%s %s: status %d (%v), want %d", bad.method, bad.url, code, out, bad.want)
		}
	}

	m := metrics(t, base)
	for name, want := range map[string]int64{
		"sinew_loads_total":            4, // two good, one malformed, one bad collection name
		"sinew_load_errors_total":      2,
		"sinew_documents_loaded_total": 15,
		"sinew_sessions_active":        1,
	} {
		if m[name] != want {
			t.Errorf("%s = %d, want %d", name, m[name], want)
		}
	}
	if got := m[fmt.Sprintf("sinew_session_errors{session=%q}", sess)]; got != 1 {
		t.Errorf("session errors = %d, want 1", got)
	}
}

// TestLoadBesideReaders: while one client streams batches through /load,
// readers on other sessions see document counts that never shrink and are
// always whole batches — a body is published at once or not at all.
func TestLoadBesideReaders(t *testing.T) {
	base, _ := startServer(t)
	const batch, batches, readers = 40, 25, 3
	if code, out := post(t, http.MethodPost, base+"/load?collection=feed", ndjson(0, batch, "w")); code != http.StatusOK {
		t.Fatalf("first load: status %d (%v)", code, out)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0.0
			for {
				select {
				case <-done:
					return
				default:
				}
				code, out, err := tryPost(http.MethodPost, base+"/query", `SELECT COUNT(*), COUNT(tag) FROM feed`)
				if err != nil || code != http.StatusOK {
					t.Errorf("reader: status %d (%v, %v)", code, out, err)
					return
				}
				row := out["rows"].([]any)[0].([]any)
				n, tagged := row[0].(float64), row[1].(float64)
				if n < last || int(n)%batch != 0 || tagged != n {
					t.Errorf("reader saw %v documents (%v tagged) after %v: not a whole number of %d-document batches", n, tagged, last, batch)
					return
				}
				last = n
			}
		}()
	}
	for b := 1; b < batches; b++ {
		body := ndjson(b*batch, batch, "w")
		if b%5 == 0 {
			// A rejected body in between must leave no trace.
			if code, _ := post(t, http.MethodPost, base+"/load?collection=feed", body+"{broken\n"); code != http.StatusBadRequest {
				t.Errorf("malformed body: status %d, want 400", code)
			}
		}
		if code, out := post(t, http.MethodPost, base+"/load?collection=feed", body); code != http.StatusOK {
			t.Errorf("load %d: status %d (%v)", b, code, out)
		}
	}
	close(done)
	wg.Wait()
	res := query(t, base, "", `SELECT COUNT(*) FROM feed`)
	if n := res["rows"].([]any)[0].([]any)[0]; n != float64(batch*batches) {
		t.Errorf("%v documents at the end, want %d", n, batch*batches)
	}
}
