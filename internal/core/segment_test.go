package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
)

// segmentDB loads enough random documents that ANALYZE freezes several
// full pages into column-striped segments (rowsPerPage = 128, so 400
// documents give three freezable pages plus a row-form tail).
func segmentDB(t *testing.T) (*DB, int) {
	t.Helper()
	db := Open(DefaultConfig())
	if err := db.CreateCollection("d"); err != nil {
		t.Fatal(err)
	}
	docs := randomDocs(rand.New(rand.NewSource(7)), 400)
	if _, err := db.LoadDocuments("d", docs); err != nil {
		t.Fatal(err)
	}
	if err := db.RDBMS().Analyze("d"); err != nil {
		t.Fatal(err)
	}
	heap, _, err := db.RDBMS().Table("d")
	if err != nil {
		t.Fatal(err)
	}
	frozen := heap.NumFrozenPages()
	if frozen == 0 {
		t.Fatal("ANALYZE froze no pages; frozen-page scans untested")
	}
	return db, frozen
}

func frozenPages(t *testing.T, db *DB) int {
	t.Helper()
	heap, _, err := db.RDBMS().Table("d")
	if err != nil {
		t.Fatal(err)
	}
	return heap.NumFrozenPages()
}

func mustSet(t *testing.T, db *DB, stmts ...string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := db.RDBMS().Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

// sortedResultKey flattens a result to an order-insensitive comparable
// string, for statements without an ORDER BY, whose row order no plan
// promises.
func sortedResultKey(res *QueryResult) string {
	lines := strings.Split(resultKey(res), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// segmentLegs are the executor configurations every query must agree
// across: the reference plan (enable_batch off: no shortcut) and the
// default plan (its scan aliasing frozen pages and transposing row-form
// ones as it meets them).
var segmentLegs = []struct {
	name  string
	stmts []string
}{
	{"reference", []string{`SET enable_batch = off`}},
	{"batch", []string{`SET enable_batch = on`}},
}

// runSegmentLegs runs every query under every leg and fails on any
// divergence from the reference plan.
func runSegmentLegs(t *testing.T, db *DB, phase string, queries []string) {
	t.Helper()
	for _, q := range queries {
		var ref string
		for _, leg := range segmentLegs {
			mustSet(t, db, leg.stmts...)
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s/%s: %s: %v", phase, leg.name, q, err)
			}
			key := sortedResultKey(res)
			if leg.name == "reference" {
				ref = key
				continue
			}
			if key != ref {
				t.Errorf("%s/%s: %s diverges from the reference\nreference:\n%s\n%s:\n%s",
					phase, leg.name, q, ref, leg.name, key)
			}
		}
	}
	mustSet(t, db, segmentLegs[0].stmts...) // leave in a known state
}

// TestStripedSegmentDifferential pins the tentpole's correctness
// contract: with cold pages frozen into per-attribute segments, every
// executor leg returns the same rows — including after an UPDATE
// un-freezes pages mid-table, leaving a frozen/row-form mix.
func TestStripedSegmentDifferential(t *testing.T) {
	db, frozen := segmentDB(t)
	queries := []string{
		`SELECT name FROM d`,
		`SELECT name, num, score, flag FROM d`,
		`SELECT "user.lang", name FROM d`,
		`SELECT dyn, num FROM d`,
		`SELECT name, num FROM d WHERE num >= 10`,
		`SELECT COUNT(*) FROM d WHERE score IS NOT NULL`,
		// In-scan selection: striped scans compile these predicates into
		// selection-vector kernels over the page's attribute vectors,
		// including string matches over extracted virtual keys.
		`SELECT * FROM d WHERE name = 'frosty' OR num < 5`,
		`SELECT num FROM d WHERE "user.lang" = 'en' AND num >= 0`,
		// Cardinality-changing consumers above selection-carrying batches.
		// Unique ordered groups keep the LIMIT prefix deterministic across
		// the legs.
		`SELECT num, COUNT(*) FROM d WHERE num >= 5 GROUP BY num ORDER BY num LIMIT 7`,
		`SELECT name, num FROM d WHERE num < 15 ORDER BY num, name LIMIT 9`,
	}
	runSegmentLegs(t, db, "frozen", queries)

	// UPDATE rows scattered across the table: the touched pages un-freeze
	// back to row form, so scans now cross a frozen/row-form mix.
	mustSet(t, db, `SET enable_batch = on`)
	if _, err := db.Query(`UPDATE d SET name = 'frosty' WHERE num = 7`); err != nil {
		t.Fatal(err)
	}
	after := frozenPages(t, db)
	if after >= frozen {
		t.Fatalf("UPDATE left frozen pages at %d (was %d); expected un-freeze", after, frozen)
	}
	runSegmentLegs(t, db, "mixed", queries)

	// Re-ANALYZE re-freezes the cooled pages and the legs still agree.
	if err := db.RDBMS().Analyze("d"); err != nil {
		t.Fatal(err)
	}
	if got := frozenPages(t, db); got <= after {
		t.Fatalf("re-ANALYZE refroze nothing: %d pages (was %d)", got, after)
	}
	runSegmentLegs(t, db, "refrozen", queries)
}

// TestSegmentedExplain pins the EXPLAIN surface over a segmented heap: the
// scan has no mode to advertise, the fused extraction above it says when
// it reads segment vectors, and the switch that used to turn the
// frozen-page path off is an unknown name.
func TestSegmentedExplain(t *testing.T) {
	db, _ := segmentDB(t)
	text, err := db.Explain(`SELECT name, num FROM d`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "(fused extract: 2 keys, striped)") ||
		!strings.Contains(text, "Seq Scan on d (batch)") {
		t.Errorf("EXPLAIN over a segmented heap:\n%s", text)
	}
	if _, err := db.RDBMS().Exec(`SET enable_striped = off`); err == nil ||
		!strings.Contains(err.Error(), "unrecognized configuration parameter") {
		t.Errorf("SET enable_striped = off: %v", err)
	}
}

// statCounter pulls one counter out of sinew_stats()'s one-line summary.
func statCounter(t *testing.T, db *DB, key string) int64 {
	t.Helper()
	res, err := db.Query(`SELECT sinew_stats()`)
	if err != nil {
		t.Fatal(err)
	}
	text := res.Rows[0][0].Text()
	for _, field := range strings.Fields(text) {
		if rest, ok := strings.CutPrefix(field, key+"="); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("sinew_stats %s: %v in %q", key, err, text)
			}
			return v
		}
	}
	t.Fatalf("sinew_stats output lacks %s: %q", key, text)
	return 0
}

// eachFrozenSegment calls fn with every segment of table's frozen pages.
func eachFrozenSegment(t *testing.T, db *DB, table string, fn func(storage.ColumnSegment)) {
	t.Helper()
	heap, _, err := db.RDBMS().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	snap := heap.CurrentSnapshot()
	it := snap.IterateChunks()
	for {
		pv, ok := it.ReadPage(storage.PageCapacity)
		if !ok {
			return
		}
		for j := 0; pv.Frozen != nil && j < pv.Frozen.NumCols(); j++ {
			if _, _, seg := pv.Frozen.Col(j); seg != nil {
				fn(seg)
			}
		}
	}
}

// frozenSegmentBytes sums the SizeBytes of every segment of table's
// frozen pages.
func frozenSegmentBytes(t *testing.T, db *DB, table string) int64 {
	t.Helper()
	var total int64
	eachFrozenSegment(t, db, table, func(seg storage.ColumnSegment) { total += seg.SizeBytes() })
	return total
}

// checkSegmentsMatchRecords holds every attribute of every record segment
// of table's frozen pages, whichever form the segment gives it, to the
// per-record header lookup over the page's records: the attribute set,
// the column's value stream in row order, and the zone map AttrZone
// answers with. It returns how many attributes it checked.
func checkSegmentsMatchRecords(t *testing.T, db *DB, table string) int {
	t.Helper()
	checked := 0
	eachFrozenSegment(t, db, table, func(cs storage.ColumnSegment) {
		rs, ok := cs.(*recordSegment)
		if !ok {
			return
		}
		seg := rs.seg
		var records [][]byte
		union := map[uint32]bool{}
		for i := 0; i < seg.NumRecords(); i++ {
			if seg.RecordNull(i) {
				records = append(records, nil)
				continue
			}
			rec := seg.AppendRecord(nil, i, nil)
			records = append(records, rec)
			ids, err := serial.AttrIDs(rec)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				union[id] = true
			}
		}
		ids := rs.AttrIDs()
		if len(ids) != len(union) {
			t.Fatalf("%s: a segment holds %d attributes, its records %d", table, len(ids), len(union))
		}
		for _, id := range ids {
			checked++
			col, ok := seg.Column(id)
			if !union[id] || !ok {
				t.Fatalf("%s: attribute %d is in the segment's set (%v) and in its records (%v)", table, id, ok, union[id])
			}
			var rows []int
			want := map[int][]byte{}
			var ints []int64
			var floats []float64
			for i, rec := range records {
				if rec == nil {
					continue
				}
				b, found, err := serial.ValueBytes(rec, id)
				if err != nil {
					t.Fatal(err)
				}
				if !found {
					continue
				}
				rows = append(rows, i)
				want[i] = b
				switch col.Encoding() {
				case serial.SegInt:
					ints = append(ints, int64(binary.LittleEndian.Uint64(b)))
				case serial.SegFloat:
					floats = append(floats, math.Float64frombits(binary.LittleEndian.Uint64(b)))
				}
			}

			k := 0
			next := func(row int, b []byte) {
				if k >= len(rows) || rows[k] != row || !bytes.Equal(b, want[row]) {
					t.Fatalf("%s attr %d: value %d streamed as row %d %x", table, id, k, row, b)
				}
				k++
			}
			var err error
			switch col.Encoding() {
			case serial.SegInt:
				err = col.Ints(func(row int, v int64) { next(row, binary.LittleEndian.AppendUint64(nil, uint64(v))) })
			case serial.SegFloat:
				err = col.Floats(func(row int, v float64) { next(row, binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) })
			case serial.SegBool:
				err = col.Bools(func(row int, v bool) {
					if b := want[row]; len(b) == 1 && v == (b[0] != 0) {
						next(row, b)
					} else {
						next(row, nil)
					}
				})
			case serial.SegString:
				err = col.Strings(next)
			default:
				err = col.Raws(next)
			}
			if err != nil || k != len(rows) {
				t.Fatalf("%s attr %d: streamed %d of %d values (%v)", table, id, k, len(rows), err)
			}

			wantZone := storage.AttrZone{ID: id, Present: len(rows)}
			for i, v := range ints {
				if i == 0 || v < wantZone.Min.I {
					wantZone.Min = types.NewInt(v)
				}
				if i == 0 || v > wantZone.Max.I {
					wantZone.Max = types.NewInt(v)
				}
				wantZone.HasRange = true
			}
			for i, v := range floats {
				if math.IsNaN(v) {
					wantZone = storage.AttrZone{ID: id, Present: len(rows)}
					break
				}
				if i == 0 || v < wantZone.Min.Float() {
					wantZone.Min = types.NewFloat(v)
				}
				if i == 0 || v > wantZone.Max.Float() {
					wantZone.Max = types.NewFloat(v)
				}
				wantZone.HasRange = true
			}
			z, ok := rs.AttrZone(id)
			same := func(a, b types.Datum) bool { return a.Typ == b.Typ && a.I == b.I }
			if !ok || z.ID != id || z.Present != wantZone.Present || z.HasRange != wantZone.HasRange ||
				z.HasRange && (!same(z.Min, wantZone.Min) || !same(z.Max, wantZone.Max)) {
				t.Fatalf("%s attr %d: AttrZone %+v, the records' %+v", table, id, z, wantZone)
			}
		}
	})
	return checked
}

// TestSinewStatsSegmentCounters checks the observability surface: the
// segment totals move as pages freeze, are scanned, and un-freeze, and
// segment_bytes is the bytes of the frozen pages' segments.
func TestSinewStatsSegmentCounters(t *testing.T) {
	db, frozen := segmentDB(t)
	if got := statCounter(t, db, "segments_total"); got != int64(frozen) {
		t.Errorf("segments_total = %d, want %d", got, frozen)
	}
	segBytes := statCounter(t, db, "segment_bytes")
	if want := frozenSegmentBytes(t, db, "d"); segBytes != want || want == 0 {
		t.Errorf("segment_bytes = %d, the frozen pages' segments hold %d", segBytes, want)
	}

	scanned := statCounter(t, db, "segments_scanned")
	if _, err := db.Query(`SELECT name, num FROM d`); err != nil {
		t.Fatal(err)
	}
	if got := statCounter(t, db, "segments_scanned"); got <= scanned {
		t.Errorf("segments_scanned stuck at %d after a scan of frozen pages", got)
	}

	unfrozen := statCounter(t, db, "segment_pages_unfrozen")
	if _, err := db.Query(`UPDATE d SET name = 'thaw' WHERE num = 3`); err != nil {
		t.Fatal(err)
	}
	if got := statCounter(t, db, "segment_pages_unfrozen"); got <= unfrozen {
		t.Errorf("segment_pages_unfrozen stuck at %d after UPDATE", got)
	}
	if got := statCounter(t, db, "segments_total"); got >= int64(frozen) {
		t.Errorf("segments_total = %d after un-freeze, want < %d", got, frozen)
	}
	if got, want := statCounter(t, db, "segment_bytes"), frozenSegmentBytes(t, db, "d"); got != want || got >= segBytes {
		t.Errorf("segment_bytes = %d after un-freeze (%d before), the frozen pages' segments hold %d", got, segBytes, want)
	}

	// A materializer pass that moves a key's values back into the
	// reservoir rewrites the frozen pages one at a time (RewritePage).
	if err := db.SetMaterialized("d", "num", true); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMaterializer(db).RunOnce("d"); err != nil {
		t.Fatal(err)
	}
	if err := db.RDBMS().Analyze("d"); err != nil {
		t.Fatal(err)
	}
	if err := db.SetMaterialized("d", "num", false); err != nil {
		t.Fatal(err)
	}
	segBytes = statCounter(t, db, "segment_bytes")
	m := NewMaterializer(db)
	m.pageDone = func(page int) {
		if got, want := statCounter(t, db, "segment_bytes"), frozenSegmentBytes(t, db, "d"); page == 0 && (got != want || got >= segBytes) {
			t.Errorf("segment_bytes = %d after the pass rewrote page 0 (%d before), the frozen pages' segments hold %d", got, segBytes, want)
		}
	}
	if _, err := m.RunOnce("d"); err != nil {
		t.Fatal(err)
	}
}

// TestSinewStatsSelCounters checks the selection-vector observability
// surface: filtered scans count the sel batches their frozen pages emit.
func TestSinewStatsSelCounters(t *testing.T) {
	db, _ := segmentDB(t)
	mustSet(t, db, `SET enable_batch = on`)
	selBefore := statCounter(t, db, "sel_vector_batches")
	if _, err := db.Query(`SELECT name, num FROM d WHERE num >= 10`); err != nil {
		t.Fatal(err)
	}
	if got := statCounter(t, db, "sel_vector_batches"); got <= selBefore {
		t.Errorf("sel_vector_batches stuck at %d after a filtered scan of frozen pages", got)
	}
}

// TestRecordSegmentZoneLookup holds the ZoneMapped lookup the page summary
// delegates to against the segment it reads: for every attribute ID the
// zone carries the column's presence count and range, also when the
// dictionary minted the IDs in another order than the keys sort, and
// every ID outside the segment misses.
func TestRecordSegmentZoneLookup(t *testing.T) {
	db := Open(DefaultConfig())
	for _, key := range []string{"zz", "user", "score", "dyn", "a"} {
		db.dict().IDFor(key, serial.TypeInt) // IDs minted against key order
	}
	docs := randomDocs(rand.New(rand.NewSource(3)), 128)
	vals := make([]types.Datum, len(docs))
	for i, d := range docs {
		data, err := serial.Serialize(d, db.dict())
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = types.NewBytes(data)
	}
	cs, err := db.reservoirSegmenter()(0, vals)
	if err != nil || cs == nil {
		t.Fatalf("segmenter: %v, %v", cs, err)
	}
	seg := cs.(*recordSegment).seg
	ids := seg.AttrIDs()
	if len(ids) < 5 {
		t.Fatalf("only %d attributes", len(ids))
	}
	zm := cs.(storage.ZoneMapped)
	ranged := 0
	for i, id := range ids {
		c, _ := seg.Column(id)
		z, ok := zm.AttrZone(id)
		if !ok || z.ID != id || z.Present != c.NumPresent() {
			t.Fatalf("AttrZone(%d) = %+v, %v; the column has %d values", id, z, ok, c.NumPresent())
		}
		var lo, hi types.Datum
		hasRange := false
		if ilo, ihi, ok := c.IntRange(); ok {
			lo, hi, hasRange = types.NewInt(ilo), types.NewInt(ihi), true
		} else if flo, fhi, ok := c.FloatRange(); ok {
			lo, hi, hasRange = types.NewFloat(flo), types.NewFloat(fhi), true
		}
		if z.HasRange != hasRange || hasRange && (!types.Equal(z.Min, lo) || !types.Equal(z.Max, hi)) {
			t.Fatalf("AttrZone(%d) range [%v, %v] %v; the column has [%v, %v] %v", id, z.Min, z.Max, z.HasRange, lo, hi, hasRange)
		}
		if hasRange {
			ranged++
		}
		// Every ID between this one and the next is absent.
		next := uint32(math.MaxUint32)
		if i+1 < len(ids) {
			next = ids[i+1]
		}
		for _, miss := range []uint32{id + 1, next - 1} {
			if miss > id && miss < next {
				if _, ok := zm.AttrZone(miss); ok {
					t.Fatalf("AttrZone(%d) hit an attribute the segment does not carry", miss)
				}
			}
		}
	}
	if ranged == 0 {
		t.Fatal("no attribute carried a range")
	}
	if ids[0] > 0 {
		if _, ok := zm.AttrZone(0); ok {
			t.Fatal("AttrZone(0) hit an attribute the segment does not carry")
		}
	}
}
