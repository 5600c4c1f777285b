// Package service implements sinewd's HTTP line protocol: a thin,
// session-pooled front end over a Sinew database (DESIGN.md §10).
//
// The protocol is deliberately minimal — one statement per request, JSON
// results — because the interesting machinery lives below it: every
// /query runs against an epoch-pinned heap snapshot, so readers on one
// session never block behind loads, UPDATEs, or ANALYZE issued on
// another.
//
//	POST   /session             open a session       -> {"session":"s1"}
//	DELETE /session?id=s1       close it
//	POST   /query?session=s1    body = one SQL stmt  -> {"columns":..,"rows":..}
//	POST   /load?collection=c   body = NDJSON        -> {"documents":N,"new_attributes":M}
//	GET    /metrics             plaintext counters (global + per-session)
//	GET    /healthz             liveness probe
//
// A /query or /load without a session parameter runs on an ephemeral
// session that exists only for the request; sessions_active still counts
// it, so the gauge reflects true concurrency.
//
// /load feeds its body, one JSON document per line, to DB.LoadJSONLines.
// sinewd opens an empty database and SQL has no statement that creates a
// collection, so the first /load naming one creates it: that is the only
// way the service gets a collection at all. A body loads whole or not at
// all: a malformed line is a 400 naming the line, and nothing was inserted.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	runtimemetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sinewdata/sinew/internal/core"
)

// maxStatementBytes bounds a /query request body; one statement should
// never approach it (bulk loads go through /load, not SQL text).
const maxStatementBytes = 4 << 20

// maxLoadBytes bounds a /load request body. The load is all-or-nothing, so
// its records are held until the last line has been read: the bound is
// also what one request can pin in memory.
const maxLoadBytes = 64 << 20

// session is one pooled client session and its counters.
type session struct {
	id      string
	opened  time.Time
	queries atomic.Int64
	errors  atomic.Int64
	rows    atomic.Int64
}

// Server is the sinewd HTTP front end. Create with New, start with
// Serve (or ServeListener for a caller-owned listener), stop with
// Shutdown.
type Server struct {
	db *core.DB
	hs *http.Server

	mu       sync.Mutex // guards sessions and nextID
	sessions map[string]*session
	nextID   uint64

	queriesTotal atomic.Int64
	errorsTotal  atomic.Int64
	loadsTotal   atomic.Int64
	loadErrors   atomic.Int64
	docsLoaded   atomic.Int64
}

// New builds a server over an opened database. It does not listen yet.
func New(db *core.DB) *Server {
	s := &Server{db: db, sessions: make(map[string]*session)}
	mux := http.NewServeMux()
	mux.HandleFunc("/session", s.handleSession)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/load", s.handleLoad)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	s.hs = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Serve listens on addr ("host:port"; port 0 picks a free one) and
// serves until Shutdown. The listener is bound before Serve returns
// control to the accept loop, so Addr is valid as soon as the listener
// callback fires.
func (s *Server) Serve(addr string, onListen func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	err = s.hs.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains in-flight requests (graceful), then closes every
// pooled session so the sessions_active gauge returns to zero.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	s.mu.Lock()
	for id := range s.sessions {
		delete(s.sessions, id)
		s.db.RDBMS().SessionExit()
	}
	s.mu.Unlock()
	return err
}

// handleSession opens (POST) or closes (DELETE ?id=) a pooled session.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.mu.Lock()
		s.nextID++
		sess := &session{id: fmt.Sprintf("s%d", s.nextID), opened: time.Now()}
		s.sessions[sess.id] = sess
		s.mu.Unlock()
		s.db.RDBMS().SessionEnter()
		writeJSON(w, http.StatusOK, map[string]any{"session": sess.id})
	case http.MethodDelete:
		id := r.URL.Query().Get("id")
		s.mu.Lock()
		_, ok := s.sessions[id]
		if ok {
			delete(s.sessions, id)
		}
		s.mu.Unlock()
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("unknown session %q", id)})
			return
		}
		s.db.RDBMS().SessionExit()
		writeJSON(w, http.StatusOK, map[string]any{"closed": id})
	default:
		w.Header().Set("Allow", "POST, DELETE")
		writeJSON(w, http.StatusMethodNotAllowed, map[string]any{"error": "use POST to open, DELETE ?id= to close"})
	}
}

// handleQuery runs the request body as one SQL statement on the named
// (or an ephemeral) session.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, map[string]any{"error": "POST one SQL statement as the request body"})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxStatementBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}
	if len(body) > maxStatementBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{"error": "statement exceeds 4 MiB"})
		return
	}
	sql := strings.TrimSpace(string(body))
	if sql == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "empty statement"})
		return
	}

	sess, ok := s.enterSession(w, r)
	if !ok {
		return
	}
	if sess == nil {
		defer s.db.RDBMS().SessionExit()
	}

	s.queriesTotal.Add(1)
	if sess != nil {
		sess.queries.Add(1)
	}
	fail := func(status int, err error) {
		s.errorsTotal.Add(1)
		if sess != nil {
			sess.errors.Add(1)
		}
		writeJSON(w, status, map[string]any{"error": err.Error()})
	}
	res, err := s.db.Query(sql)
	if err != nil {
		fail(http.StatusBadRequest, err)
		return
	}
	if sess != nil {
		sess.rows.Add(int64(len(res.Rows)))
	}

	bp := replyPool.Get().(*[]byte)
	reply, err := appendQueryReply((*bp)[:0], res)
	if err != nil {
		fail(http.StatusInternalServerError, err)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(reply)
	}
	if cap(reply) <= maxPooledReply {
		*bp = reply
		replyPool.Put(bp)
	}
}

// enterSession resolves the request's session parameter. Without one the
// request runs on an ephemeral session: sess is nil and the caller owes a
// SessionExit. An unknown session has been answered with a 404 (ok false).
func (s *Server) enterSession(w http.ResponseWriter, r *http.Request) (sess *session, ok bool) {
	id := r.URL.Query().Get("session")
	if id == "" {
		s.db.RDBMS().SessionEnter()
		return nil, true
	}
	s.mu.Lock()
	sess = s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": fmt.Sprintf("unknown session %q", id)})
		return nil, false
	}
	return sess, true
}

// handleLoad bulk-loads the request body, newline-delimited JSON, into the
// named collection.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, map[string]any{"error": "POST newline-delimited JSON documents as the request body"})
		return
	}
	collection := strings.ToLower(r.URL.Query().Get("collection"))
	if collection == "" {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "missing collection parameter"})
		return
	}
	sess, ok := s.enterSession(w, r)
	if !ok {
		return
	}
	if sess == nil {
		defer s.db.RDBMS().SessionExit()
	}

	s.loadsTotal.Add(1)
	fail := func(status int, reply map[string]any) {
		s.loadErrors.Add(1)
		if sess != nil {
			sess.errors.Add(1)
		}
		writeJSON(w, status, reply)
	}
	if _, ok := s.db.Catalog().Lookup(collection); !ok {
		// The service's only way to a new collection (see the package doc).
		// Two first loads may race to create it; the loser finds it there.
		if err := s.db.CreateCollection(collection); err != nil {
			if _, ok := s.db.Catalog().Lookup(collection); !ok {
				fail(http.StatusBadRequest, map[string]any{"error": err.Error()})
				return
			}
		}
	}
	res, err := s.db.LoadJSONLines(collection, http.MaxBytesReader(w, r.Body, maxLoadBytes))
	var tooLarge *http.MaxBytesError
	var bad *core.LoadError
	switch {
	case errors.As(err, &tooLarge):
		fail(http.StatusRequestEntityTooLarge, map[string]any{"error": fmt.Sprintf("body exceeds %d MiB", maxLoadBytes>>20)})
	case errors.As(err, &bad):
		fail(http.StatusBadRequest, map[string]any{"error": err.Error(), "line": bad.Line})
	case err != nil:
		fail(http.StatusInternalServerError, map[string]any{"error": err.Error()})
	default:
		s.docsLoaded.Add(res.Documents)
		writeJSON(w, http.StatusOK, map[string]any{"documents": res.Documents, "new_attributes": res.NewAttributes})
	}
}

// handleMetrics renders the global and per-session counters as plain
// text, one `name value` (or `name{session="sN"} value`) pair per line.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	rdb := s.db.RDBMS()
	open, epoch, cow := rdb.SnapshotStats()
	pc := rdb.PlanCacheStats()

	var b strings.Builder
	global := func(name string, v int64) {
		fmt.Fprintf(&b, "sinew_%s %d\n", name, v)
	}
	global("sessions_active", rdb.SessionsActive())
	global("snapshots_open", open)
	global("snapshot_epoch", epoch)
	global("pages_cow", cow)
	global("queries_total", s.queriesTotal.Load())
	global("query_errors_total", s.errorsTotal.Load())
	global("loads_total", s.loadsTotal.Load())
	global("load_errors_total", s.loadErrors.Load())
	global("documents_loaded_total", s.docsLoaded.Load())
	global("plan_cache_hits", int64(pc.Hits))
	global("plan_cache_misses", int64(pc.Misses))
	global("plan_cache_entries", int64(pc.Entries))
	global("plan_cache_invalidations", int64(pc.Invalidations))
	global("catalog_epoch", int64(pc.Epoch))
	global("segment_bytes", rdb.SegmentBytes())
	// The collector, read per scrape: how often it ran, and what it must
	// mark (objects) and keep (bytes) after the last cycle.
	gc := []runtimemetrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/objects:objects"},
		{Name: "/gc/heap/live:bytes"},
	}
	runtimemetrics.Read(gc)
	global("gc_cycles_total", int64(gc[0].Value.Uint64()))
	global("heap_objects", int64(gc[1].Value.Uint64()))
	global("heap_live_bytes", int64(gc[2].Value.Uint64()))

	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sess := s.sessions[id]
		fmt.Fprintf(&b, "sinew_session_queries{session=%q} %d\n", id, sess.queries.Load())
		fmt.Fprintf(&b, "sinew_session_rows{session=%q} %d\n", id, sess.rows.Load())
		fmt.Fprintf(&b, "sinew_session_errors{session=%q} %d\n", id, sess.errors.Load())
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, b.String())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
