package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/service"
)

// reply is what a client learns from one statement.
type reply struct {
	rows int
	// sum is an order-independent checksum of the rows (only when asked
	// for): the wrapping sum of one FNV-1a hash per row.
	sum uint64
	// first is the first column of the first row when it is an integer
	// (COUNT(*) results).
	first int64
	// bytes is the response body size (HTTP only).
	bytes int
}

// querier runs one statement and waits for its result: the embedded
// library user calls DB.Query in-process, the sinewd user holds a session
// over loopback HTTP.
type querier interface {
	query(text string, withSum bool) (reply, error)
}

// inproc is the embedded-library client.
type inproc struct {
	db  *core.DB
	buf []byte
}

func (c *inproc) query(text string, withSum bool) (reply, error) {
	res, err := c.db.Query(text)
	if err != nil {
		return reply{}, err
	}
	r := reply{rows: len(res.Rows)}
	if len(res.Rows) > 0 && len(res.Rows[0]) > 0 {
		if d := res.Rows[0][0]; !d.IsNull() && d.Typ == types.Int {
			r.first = d.I
		}
	}
	if withSum {
		for _, row := range res.Rows {
			c.buf = c.buf[:0]
			for _, d := range row {
				c.buf = d.HashKey(c.buf)
			}
			r.sum += hashBytes(c.buf)
		}
	}
	return r, nil
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// daemon is a sinewd front end on a loopback port.
type daemon struct {
	srv    *service.Server
	url    string
	hc     *http.Client
	served chan error
}

func startDaemon(db *core.DB) (*daemon, error) {
	d := &daemon{srv: service.New(db), served: make(chan error, 1)}
	addr := make(chan net.Addr, 1)
	go func() {
		d.served <- d.srv.Serve("127.0.0.1:0", func(a net.Addr) { addr <- a })
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a.String()
	case err := <-d.served:
		return nil, fmt.Errorf("benchmark: sinewd did not start: %w", err)
	}
	// One keep-alive connection per session; the open-loop phase holds the
	// most sessions at once.
	d.hc = &http.Client{Transport: &http.Transport{MaxIdleConns: openLoopSessions * 2, MaxIdleConnsPerHost: openLoopSessions * 2}}
	return d, nil
}

// stop drains the server and waits for its accept loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.hc.CloseIdleConnections()
	if serr := <-d.served; err == nil {
		err = serr
	}
	return err
}

// httpSession is one pooled sinewd session: it holds one statement at a
// time and waits for the reply.
type httpSession struct {
	d  *daemon
	id string
}

func (d *daemon) openSession() (*httpSession, error) {
	resp, err := d.hc.Post(d.url+"/session", "text/plain", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || out.Session == "" {
		return nil, fmt.Errorf("benchmark: open session: HTTP %d", resp.StatusCode)
	}
	return &httpSession{d: d, id: out.Session}, nil
}

func (d *daemon) openSessions(n int) ([]*httpSession, error) {
	out := make([]*httpSession, n)
	for i := range out {
		s, err := d.openSession()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

type queryResponse struct {
	Rows  []json.RawMessage `json:"rows"`
	Error string            `json:"error"`
}

func (s *httpSession) query(text string, withSum bool) (reply, error) {
	resp, err := s.d.hc.Post(s.d.url+"/query?session="+s.id, "text/plain", strings.NewReader(text))
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	var out queryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return reply{}, fmt.Errorf("benchmark: HTTP %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("benchmark: HTTP %d: %s", resp.StatusCode, out.Error)
	}
	r := reply{rows: len(out.Rows), bytes: len(body)}
	if len(out.Rows) > 0 {
		// A row is a JSON array; COUNT(*) comes back as "[250000]".
		cell := bytes.TrimPrefix(out.Rows[0], []byte("["))
		if i := bytes.IndexAny(cell, ",]"); i > 0 {
			if v, err := strconv.ParseInt(string(cell[:i]), 10, 64); err == nil {
				r.first = v
			}
		}
	}
	if withSum {
		for _, row := range out.Rows {
			r.sum += hashBytes(row)
		}
	}
	return r, nil
}

// execStmt runs a statement whose result does not matter (SET, UPDATE).
func execStmt(q querier, text string) error {
	_, err := q.query(text, false)
	return err
}

// ---------- closed loop ----------

// sample is one completed statement.
type sample struct {
	timed
	stmt int32
	at   int64 // completion, ns after the window opened
	dur  int64 // ns
}

// tally counts operations attempted and failed (errors, non-200 replies and
// oracle mismatches alike).
type tally struct {
	attempted, failed int64
	firstFailure      string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

// sessionCheck verifies one client's replies against the oracle; it keeps
// the per-session state the growing checks need.
type sessionCheck struct {
	stmts    []stmt
	lastRows []int // per statement, for checkGrowing
	lastN    int64 // last COUNT(*) seen
	batch    int64 // visibility unit of COUNT(*)
	base     int64 // COUNT(*) modulo batch
	sumEvery int   // verify the checksum on every sumEvery-th statement (0: never)
	n        int
}

func newSessionCheck(stmts []stmt, sumEvery int, base int64) *sessionCheck {
	return &sessionCheck{stmts: stmts, lastRows: make([]int, len(stmts)), sumEvery: sumEvery, base: base % batchDocs}
}

func (c *sessionCheck) wantSum(i int) bool {
	c.n++
	return c.stmts[i].hasSum && c.sumEvery > 0 && c.n%c.sumEvery == 0
}

func (c *sessionCheck) verify(i int, r reply, withSum bool, err error, t *tally) {
	t.attempted++
	s := &c.stmts[i]
	switch {
	case err != nil:
		t.fail("%s: %v", s.text, err)
	case s.check == checkFixed && r.rows != s.rows:
		t.fail("%s: %d rows, oracle says %d", s.text, r.rows, s.rows)
	case s.check == checkFixed && withSum && r.sum != s.sum:
		t.fail("%s: checksum %x, oracle says %x", s.text, r.sum, s.sum)
	case s.check == checkGrowing && r.rows < c.lastRows[i]:
		t.fail("%s: rows went from %d to %d within a session", s.text, c.lastRows[i], r.rows)
	case s.check == checkCount && (r.rows != 1 || r.first < c.lastN || r.first%batchDocs != c.base):
		t.fail("%s: count %d after %d (batches of %d must appear whole)", s.text, r.first, c.lastN, batchDocs)
	}
	if s.check == checkGrowing {
		c.lastRows[i] = r.rows
	}
	if s.check == checkCount && err == nil {
		c.lastN = r.first
	}
}

// closedLoop is one client: it sends its next statement only after the
// previous reply. The window opens after warm: a sample's at is negative
// for a statement completed during warm-up (callers discard those, or read
// an idle baseline from them). stop, when non-nil, ends the loop early (a
// reader beside a writer ends with the writer). The host probe runs between
// statements, so every sample carries the probe before and after it.
func closedLoop(q querier, chk *sessionCheck, seed int64, warm, window time.Duration, stop <-chan struct{}) ([]sample, tally) {
	open := time.Now().Add(warm)
	deadline := open.Add(window)
	ord := newOrder(len(chk.stmts), seed)
	samples := make([]sample, 0, 1<<14)
	var t tally
	for {
		pr := probe()
		if n := len(samples); n > 0 {
			samples[n-1].after = pr
		}
		select {
		case <-stop:
			return samples, t
		default:
		}
		i := ord.next()
		withSum := chk.wantSum(i)
		t0 := time.Now()
		if !t0.Before(deadline) {
			return samples, t
		}
		r, err := q.query(chk.stmts[i].text, withSum)
		t1 := time.Now()
		chk.verify(i, r, withSum, err, &t)
		samples = append(samples, sample{stmt: int32(i), at: int64(t1.Sub(open)), dur: int64(t1.Sub(t0)), timed: timed{before: pr}})
	}
}

// ---------- open loop ----------

// openLoopSessions bounds the sessions (and so the statements in flight)
// of the open-loop phase; a request that finds none free waits, and the
// wait counts in its latency.
const openLoopSessions = 32

// openLoop sends statements on a fixed schedule of rate per second whether
// or not earlier ones have completed, as independent users would. Each
// request is timed from the instant it was due, so a stall charges the
// requests queued behind it. It returns those latencies, how late the
// generator itself sent each request, and the tally.
func openLoop(d *daemon, stmts []stmt, seed int64, rate float64, dur time.Duration) (latency, lateness []int64, t tally, err error) {
	sessions, err := d.openSessions(openLoopSessions)
	if err != nil {
		return nil, nil, t, err
	}
	n := int(rate * dur.Seconds())
	latency = make([]int64, n)
	lateness = make([]int64, n)
	failed := make([]string, n)
	type job struct {
		i   int
		due time.Time
		s   *stmt
	}
	jobs := make(chan job, n) // holds the whole schedule, so the generator never waits for the system under test
	var wg sync.WaitGroup
	for _, sess := range sessions {
		wg.Add(1)
		go func(sess *httpSession) {
			defer wg.Done()
			for j := range jobs {
				r, qerr := sess.query(j.s.text, false)
				latency[j.i] = int64(time.Since(j.due))
				if qerr != nil {
					failed[j.i] = qerr.Error()
				} else if r.rows != j.s.rows {
					failed[j.i] = fmt.Sprintf("%s: %d rows, oracle says %d", j.s.text, r.rows, j.s.rows)
				}
			}
		}(sess)
	}
	ord := newOrder(len(stmts), seed)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		lateness[i] = int64(time.Since(due))
		jobs <- job{i, due, &stmts[ord.next()]}
	}
	close(jobs)
	wg.Wait()
	t.attempted = int64(n)
	for i, f := range failed {
		if f != "" {
			t.fail("%s", f)
			// An unanswered or failed request counts as over any limit.
			latency[i] = int64(time.Hour)
		}
	}
	return latency, lateness, t, nil
}
