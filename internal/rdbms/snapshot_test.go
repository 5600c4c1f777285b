package rdbms

// Concurrent-session tests for the snapshot read path (DESIGN.md §10):
// readers pin epoch-published heap snapshots and never block behind
// writers, so every read must be internally consistent — no torn rows,
// and aggregates that match *some* committed statement boundary. The
// Makefile's race-sessions leg runs these under -race at GOMAXPROCS
// 1, 2, and 8.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/plan"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// TestSnapshotStressMixed races writer goroutines — paired inserts,
// sign-flip updates, ANALYZE/freeze passes — against readers on live
// snapshots. Every committed state satisfies SUM(v) = 0 and an even
// COUNT(*), so any reader observing a torn statement (half an insert
// pair, a partially applied update, a mid-rebuild page) fails loudly.
func TestSnapshotStressMixed(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE s (v integer)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO s VALUES `)
	for i := 1; i <= 128; i++ {
		if i > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d), (%d)", i, -i)
	}
	mustExec(t, db, sb.String())

	const (
		inserters  = 2
		writerIter = 40
		readers    = 6
		readerIter = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, inserters+readers+2)

	for g := 0; g < inserters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < writerIter; i++ {
				v := g*writerIter + i + 1000
				if _, err := db.Exec(fmt.Sprintf(`INSERT INTO s VALUES (%d), (%d)`, v, -v)); err != nil {
					errs <- fmt.Errorf("inserter %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // sign-flip updater: preserves both invariants
		defer wg.Done()
		for i := 0; i < writerIter; i++ {
			if _, err := db.Exec(`UPDATE s SET v = 0 - v`); err != nil {
				errs <- fmt.Errorf("updater: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // ANALYZE rebuilds summaries and freezes cold pages in place
		defer wg.Done()
		for i := 0; i < writerIter/2; i++ {
			if err := db.Analyze("s"); err != nil {
				errs <- fmt.Errorf("analyze: %w", err)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < readerIter; i++ {
				res, err := db.Query(`SELECT COUNT(*), SUM(v) FROM s`)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
				count, sum := res.Rows[0][0].I, res.Rows[0][1]
				if count%2 != 0 {
					errs <- fmt.Errorf("reader %d: odd count %d — torn insert pair", g, count)
					return
				}
				if sum.IsNull() || sum.I != 0 {
					errs <- fmt.Errorf("reader %d: sum = %v with count %d — torn statement", g, sum, count)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if open, _, _ := db.SnapshotStats(); open != 0 {
		t.Errorf("snapshots_open = %d after all statements finished; pins leaked", open)
	}
}

// TestSnapshotCountMonotonic runs an insert-only writer against readers
// that assert COUNT(*) never moves backwards across their own sequential
// reads: snapshots may lag the writer but publication is ordered.
func TestSnapshotCountMonotonic(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE m (v integer)`)
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	errs := make(chan error, 9)
	writer.Add(1)
	go func() { // insert-only writer, runs until the readers are done
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(fmt.Sprintf(`INSERT INTO m VALUES (%d)`, i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			last := int64(-1)
			for i := 0; i < 50; i++ {
				res, err := db.Query(`SELECT COUNT(*) FROM m`)
				if err != nil {
					errs <- err
					return
				}
				n := res.Rows[0][0].I
				if n < last {
					errs <- fmt.Errorf("reader %d: count went backwards %d -> %d", g, last, n)
					return
				}
				last = n
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// snapshotReadState is the expected table contents at one heap epoch.
type snapshotReadState struct {
	rowsKey string // sorted "id:v" lines
	count   int64
	sum     int64
}

// readerPlanConfigs returns one private planner configuration per plan
// kind, so the differential readers cover the reference and the default
// plan without racing on session SETs (the batch scan meets frozen and
// row-form pages, skipped or not, as the writer leaves them).
func readerPlanConfigs() map[string]*plan.Config {
	mk := func(mut func(*plan.Config)) *plan.Config {
		c := *plan.DefaultConfig()
		mut(&c)
		return &c
	}
	return map[string]*plan.Config{
		"reference": mk(func(c *plan.Config) { c.EnableBatch = false }),
		"batch":     mk(func(c *plan.Config) { c.EnableBatch = true }),
	}
}

// readAtSnapshot plans and runs one SELECT against the snapshot pinned
// by ec, under a private planner config. It returns the rows and the
// epoch the read was served at.
func readAtSnapshot(db *DB, ec *exec.ExecCtx, cfg *plan.Config, h *storage.Heap, sql string) ([]storage.Row, uint64, error) {
	epoch := ec.View(h).Epoch()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, 0, err
	}
	p := plan.NewPlanner(snapshotCatalog{db: db, ec: ec}, db.funcs, cfg)
	sp, err := p.PlanSelect(stmt.(*sqlparse.SelectStmt))
	if err != nil {
		return nil, 0, err
	}
	rows, err := sp.CollectCtx(ec)
	return rows, epoch, err
}

// TestSnapshotIsolationDifferential replays a randomized single-writer
// workload while concurrent readers pin snapshots and check that what
// they saw equals the serially computed table state at exactly their
// pinned epoch — across the reference and the batch plans. The
// writer records each statement's expected outcome under its predicted
// epoch *before* executing it, so any published state is accounted for
// by the time a reader can pin it. Its range UPDATEs and DELETEs skip
// pages by the id column's per-page min/max while the readers run.
func TestSnapshotIsolationDifferential(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE diffy (id integer, v integer)`)

	h, _, err := db.Table("diffy")
	if err != nil {
		t.Fatal(err)
	}

	mirror := make(map[int64]int64) // id -> v, the serial model
	model := make(map[uint64]snapshotReadState)
	var modelMu sync.Mutex

	render := func() snapshotReadState {
		lines := make([]string, 0, len(mirror))
		var sum int64
		for id, v := range mirror {
			lines = append(lines, fmt.Sprintf("%d:%d\n", id, v))
			sum += v
		}
		sort.Strings(lines) // readers canonicalize the same way
		return snapshotReadState{rowsKey: strings.Join(lines, ""), count: int64(len(lines)), sum: sum}
	}
	record := func(epoch uint64) {
		st := render()
		modelMu.Lock()
		model[epoch] = st
		modelMu.Unlock()
	}

	// Seed rows, then record the published state.
	var sb strings.Builder
	sb.WriteString(`INSERT INTO diffy VALUES `)
	for i := int64(0); i < 512; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i*3)
		mirror[i] = i * 3
	}
	mustExec(t, db, sb.String())
	record(h.Epoch())

	const writerOps = 120
	nextID := int64(512)
	rng := rand.New(rand.NewSource(42))

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() { // the single writer: serial randomized workload
		defer wg.Done()
		for i := 0; i < writerOps; i++ {
			var op string
			var analyze bool
			switch rng.Intn(6) {
			case 0: // insert a small batch
				var b strings.Builder
				b.WriteString(`INSERT INTO diffy VALUES `)
				n := 1 + rng.Intn(8)
				for k := 0; k < n; k++ {
					if k > 0 {
						b.WriteString(", ")
					}
					v := rng.Int63n(1000)
					fmt.Fprintf(&b, "(%d, %d)", nextID, v)
					mirror[nextID] = v
					nextID++
				}
				op = b.String()
			case 1: // shift a residue class
				m, r, d := int64(2+rng.Intn(5)), int64(rng.Intn(2)), rng.Int63n(50)+1
				op = fmt.Sprintf(`UPDATE diffy SET v = v + %d WHERE id %% %d = %d`, d, m, r)
				for id := range mirror {
					if id%m == r {
						mirror[id] += d
					}
				}
			case 2: // delete a thin slice
				m, r := int64(13+rng.Intn(7)), int64(rng.Intn(13))
				op = fmt.Sprintf(`DELETE FROM diffy WHERE id %% %d = %d`, m, r)
				for id := range mirror {
					if id%m == r {
						delete(mirror, id)
					}
				}
			case 3: // ANALYZE: publishes without changing contents
				analyze = true
			case 4: // shift a range of ids
				a, d := rng.Int63n(nextID), rng.Int63n(50)+1
				b := a + rng.Int63n(40)
				op = fmt.Sprintf(`UPDATE diffy SET v = v - %d WHERE id BETWEEN %d AND %d`, d, a, b)
				for id := range mirror {
					if id >= a && id <= b {
						mirror[id] -= d
					}
				}
			case 5: // delete a range of ids
				a := rng.Int63n(nextID)
				b := a + rng.Int63n(8)
				op = fmt.Sprintf(`DELETE FROM diffy WHERE id BETWEEN %d AND %d`, a, b)
				for id := range mirror {
					if id >= a && id <= b {
						delete(mirror, id)
					}
				}
			}
			// Each statement publishes exactly once, so its epoch is the
			// current one plus one. Record the outcome first: publication
			// happens-after this map write, so a reader that pins the new
			// snapshot always finds its state recorded.
			record(h.Epoch() + 1)
			if analyze {
				if err := db.Analyze("diffy"); err != nil {
					errs <- fmt.Errorf("writer analyze: %w", err)
					return
				}
			} else if _, err := db.Exec(op); err != nil {
				errs <- fmt.Errorf("writer %q: %w", op, err)
				return
			}
		}
	}()

	for name, cfg := range readerPlanConfigs() {
		wg.Add(1)
		go func(name string, cfg *plan.Config) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				ec := exec.NewExecCtx()
				rows, epoch, err := readAtSnapshot(db, ec, cfg, h, `SELECT id, v FROM diffy`)
				if err != nil {
					ec.Release()
					errs <- fmt.Errorf("%s reader: %w", name, err)
					return
				}
				// Same ec: the aggregate must see the identical snapshot.
				aggRows, aggEpoch, err := readAtSnapshot(db, ec, cfg, h, `SELECT COUNT(*), SUM(v) FROM diffy`)
				ec.Release()
				if err != nil {
					errs <- fmt.Errorf("%s reader agg: %w", name, err)
					return
				}
				if aggEpoch != epoch {
					errs <- fmt.Errorf("%s reader: epoch drifted %d -> %d within one ExecCtx", name, epoch, aggEpoch)
					return
				}
				modelMu.Lock()
				want, ok := model[epoch]
				modelMu.Unlock()
				if !ok {
					errs <- fmt.Errorf("%s reader: pinned epoch %d has no recorded state", name, epoch)
					return
				}
				lines := make([]string, len(rows))
				for j, r := range rows {
					lines[j] = fmt.Sprintf("%d:%d\n", r[0].I, r[1].I)
				}
				sort.Strings(lines)
				if got := strings.Join(lines, ""); got != want.rowsKey {
					errs <- fmt.Errorf("%s reader: epoch %d rows diverge from serial replay\ngot:\n%s\nwant:\n%s",
						name, epoch, got, want.rowsKey)
					return
				}
				count, sum := aggRows[0][0].I, aggRows[0][1]
				if count != want.count || (count > 0 && sum.I != want.sum) {
					errs <- fmt.Errorf("%s reader: epoch %d aggregates (%d, %v) != serial (%d, %d)",
						name, epoch, count, sum, want.count, want.sum)
					return
				}
			}
		}(name, cfg)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The readers have no WHERE: only the writer's scans skip.
	if skipped, _ := db.Pager().ExecStats(); skipped == 0 {
		t.Error("no range UPDATE or DELETE skipped a page")
	}
}

// BenchmarkQueryUnderIngest measures reader latency while a bulk load
// runs. The acceptance bar for the snapshot read path is a p50 within 2x
// of the idle-reader p50: readers pin a snapshot and never wait for the
// writer's table lock. Reported metrics: idle-p50-ns, busy-p50-ns, and
// their ratio.
func BenchmarkQueryUnderIngest(b *testing.B) {
	db := Open()
	if _, err := db.Exec(`CREATE TABLE ing (id integer, v integer)`); err != nil {
		b.Fatal(err)
	}
	rows := make([]storage.Row, 0, 20000)
	for i := 0; i < 20000; i++ {
		rows = append(rows, storage.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 97))})
	}
	if err := db.InsertRows("ing", rows); err != nil {
		b.Fatal(err)
	}
	const q = `SELECT COUNT(*), SUM(v) FROM ing WHERE v < 50`

	measure := func(n int) []time.Duration {
		lat := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
		}
		return lat
	}
	p50 := func(lat []time.Duration) time.Duration {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)/2]
	}

	idle := p50(measure(100))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the ingest: continuous bulk insert + churn until readers finish
		defer wg.Done()
		chunk := make([]storage.Row, 256)
		n := int64(20000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range chunk {
				chunk[i] = storage.Row{types.NewInt(n), types.NewInt(n % 97)}
				n++
			}
			if err := db.InsertRows("ing", chunk); err != nil {
				return
			}
			// Drop the chunk again so the table holds steady at ~20k rows:
			// the readers' work stays constant and the ratio isolates lock
			// contention (what the snapshot path removes) from data growth.
			if _, err := db.Exec(`DELETE FROM ing WHERE id >= 20000`); err != nil {
				return
			}
		}
	}()

	b.ResetTimer()
	busy := p50(measure(max(b.N, 50)))
	b.StopTimer()
	close(stop)
	wg.Wait()

	b.ReportMetric(float64(idle.Nanoseconds()), "idle-p50-ns")
	b.ReportMetric(float64(busy.Nanoseconds()), "busy-p50-ns")
	b.ReportMetric(float64(busy)/float64(idle), "p50-ratio")
}
