package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/sinewdata/sinew/internal/core"
)

// sizes fixes how much work a run does. The smoke test runs the same code
// with smaller ones.
type sizes struct {
	// window is the measured query time of a run (-seconds), shared evenly
	// among its segments; warm precedes each segment's share and is
	// discarded.
	window, warm time.Duration
	// segments is how many times a run sets up (builds its database) and
	// queries the result.
	segments int
	// fixtureDocs is the NoBench collection every set-up loads and the
	// statements read; tweets is the second collection of sinewd_point's.
	fixtureDocs, tweets int
	// textsPerShape sizes sinewd_point's statement set (3 shapes).
	textsPerShape int
	// busyDocs is what the traced sinewd_point run's writer loads beside
	// the reader, over busyWindow.
	busyDocs   int
	busyWindow time.Duration
	// traceStmts is the length of the traced single-client statement pass.
	traceStmts int
	// openRate and openWindow fix the traced open-loop phase.
	openRate   float64
	openWindow time.Duration
}

func defaultSizes(seconds int) sizes {
	return sizes{
		window:        time.Duration(seconds) * time.Second,
		warm:          500 * time.Millisecond,
		segments:      5,
		fixtureDocs:   20000,
		tweets:        5000,
		textsPerShape: 1024,
		busyDocs:      10000,
		busyWindow:    5 * time.Second,
		traceStmts:    2048,
		openRate:      1500,
		openWindow:    3 * time.Second,
	}
}

// collection is one table's generated input.
type collection struct {
	table string
	docs  docSet
}

// fixture is a loaded, optimized database plus what building it cost.
type fixture struct {
	db        *core.DB
	docs      int
	userBytes int64 // raw JSON bytes loaded

	// pieces times the build piece by piece, in a fixed order: every
	// LoadJSONLines batch, then every optimize step. loadPieces of them are
	// batches.
	pieces     []piece
	loadPieces int
}

// piece is one timed step of a build, between two host probes.
type piece struct {
	timed
	ns int64
}

// pieceTimer times consecutive pieces; the probe after one is the probe
// before the next.
type pieceTimer struct {
	pieces []piece
	last   int64
}

func newPieceTimer() *pieceTimer { return &pieceTimer{last: probe()} }

func (pt *pieceTimer) time(fn func() error) error {
	t0 := time.Now()
	err := fn()
	ns := int64(time.Since(t0))
	after := probe()
	pt.pieces = append(pt.pieces, piece{timed{pt.last, after}, ns})
	pt.last = after
	return err
}

func (f *fixture) storedBytesPerUserByte() float64 {
	return float64(f.db.DatabaseSizeBytes()) / float64(f.userBytes)
}

// loadBatches feeds batches through DB.LoadJSONLines, checking each
// acknowledgement, and times each. With a layer trace it also replays each
// batch through the layers below the loader (and the times include the
// replay).
func loadBatches(db *core.DB, table string, batches [][]byte, lt *layerTrace, pt *pieceTimer) error {
	for i, b := range batches {
		want := int64(bytes.Count(b, []byte{'\n'}))
		var got int64
		err := pt.time(func() (err error) {
			if lt != nil {
				got, err = lt.loadBatch(db, table, b, int32(i))
				return err
			}
			res, err := db.LoadJSONLines(table, bytes.NewReader(b))
			if err == nil {
				got = res.Documents
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("benchmark: load %s batch %d: %w", table, i, err)
		}
		if got != want {
			return fmt.Errorf("benchmark: load %s batch %d: %d documents acknowledged, %d sent", table, i, got, want)
		}
	}
	return nil
}

// optimize brings a collection to its read layout in three timed steps:
// choose what to materialize (the paper's keys when pinned, else the schema
// analyzer's policy), run the materializer to completion, then ANALYZE,
// which also freezes cold pages into column segments.
func optimize(db *core.DB, table string, pinned bool, lt *layerTrace, pt *pieceTimer) error {
	tr := lt.tracer()
	err := pt.time(func() error {
		sp := tr.begin("core.analyze_schema", 0, 0)
		defer tr.end(sp)
		if !pinned {
			_, err := db.AnalyzeSchema(table)
			return err
		}
		for _, key := range paperMaterializedKeys {
			if err := db.SetMaterialized(table, key, true); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = pt.time(func() error {
		sp := tr.begin("core.materialize", 0, 0)
		moved, err := core.NewMaterializer(db).RunOnce(table)
		tr.end(sp)
		if lt != nil {
			lt.rowsMoved += moved
		}
		return err
	})
	if err != nil {
		return err
	}
	return pt.time(func() error {
		sp := tr.begin("storage.analyze_freeze", 0, 0)
		defer tr.end(sp)
		return db.RDBMS().Analyze(table)
	})
}

// buildFixture loads the collections into a fresh database and optimizes
// them: with the paper's keys pinned, or as the schema analyzer's policy
// decides.
func buildFixture(in []collection, pinned bool, lt *layerTrace) (*fixture, error) {
	f := &fixture{db: core.Open(core.DefaultConfig())}
	for _, c := range in {
		if err := f.db.CreateCollection(c.table); err != nil {
			return nil, err
		}
	}
	pt := newPieceTimer()
	for _, c := range in {
		if err := loadBatches(f.db, c.table, c.docs.batches, lt, pt); err != nil {
			return nil, err
		}
		f.docs += c.docs.docs
		f.userBytes += c.docs.bytes
	}
	f.loadPieces = len(pt.pieces)
	for _, c := range in {
		if err := optimize(f.db, c.table, pinned, lt, pt); err != nil {
			return nil, err
		}
	}
	f.pieces = pt.pieces
	return f, nil
}

// liveHeapMB is the heap in use after a forced collection. Callers drop
// their own large buffers first, so this is the database's footprint.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// ---------- oracle ----------

// serialSettings force a row-at-a-time serial plan; defaultSettings restore
// the product defaults (plan.DefaultConfig).
var (
	serialSettings  = []string{"SET enable_batch = off", "SET max_parallel_workers = 1"}
	defaultSettings = []string{"SET enable_batch = on", "SET max_parallel_workers = 0"}
)

// fillOracle computes each statement's expected row count and checksum by
// running it once through q under a row-at-a-time serial plan - a different
// executor from the batch/parallel one the timed run uses - and cross-checks
// the count against what the generator predicts. every selects which
// statements get a checksum (each every-th; counts come from the
// prediction where there is one, so the rest need not run at all).
func fillOracle(q querier, stmts []stmt, every int) error {
	for _, s := range serialSettings {
		if err := execStmt(q, s); err != nil {
			return err
		}
	}
	var firstErr error
	for i := range stmts {
		s := &stmts[i]
		s.rows = s.predicted
		if i%every != 0 && s.predicted >= 0 {
			continue
		}
		r, err := q.query(s.text, true)
		if err != nil {
			firstErr = fmt.Errorf("benchmark: oracle: %s: %w", s.text, err)
			break
		}
		if s.predicted >= 0 && r.rows != s.predicted {
			firstErr = fmt.Errorf("benchmark: oracle: %s: serial plan returned %d rows, the generator implies %d", s.text, r.rows, s.predicted)
			break
		}
		s.rows = r.rows
		if s.check == checkFixed {
			s.sum, s.hasSum = r.sum, true
		}
	}
	for _, s := range defaultSettings {
		if err := execStmt(q, s); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
