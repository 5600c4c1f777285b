package storage

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// fakeSegment is a trivial ColumnSegment for storage-level tests: it
// copies the column's datums and plays them back.
type fakeSegment struct {
	vals []types.Datum
}

func (f *fakeSegment) NumRows() int      { return len(f.vals) }
func (f *fakeSegment) AttrIDs() []uint32 { return nil }
func (f *fakeSegment) SizeBytes() int64  { return int64(len(f.vals)) * 24 }
func (f *fakeSegment) Values(dst []types.Datum, lo int, _ *ValueArena) error {
	copy(dst, f.vals[lo:])
	return nil
}

// stripeCol0 stripes only column 0.
func stripeCol0(col int, vals []types.Datum) (ColumnSegment, error) {
	if col != 0 {
		return nil, nil
	}
	return &fakeSegment{vals: append([]types.Datum(nil), vals...)}, nil
}

func freezeTestHeap(t *testing.T, nrows int) (*Heap, *Pager) {
	t.Helper()
	schema, err := NewSchema(
		Column{Name: "id", Typ: types.Int},
		Column{Name: "txt", Typ: types.Text},
	)
	if err != nil {
		t.Fatal(err)
	}
	pager := NewPager()
	h := NewHeap(schema, pager)
	for i := 0; i < nrows; i++ {
		row := Row{types.NewInt(int64(i)), types.NewText(fmt.Sprintf("row-%d", i))}
		if err := h.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return h, pager
}

// analyzeFreezes runs ANALYZE over h and returns how many pages it froze.
func analyzeFreezes(h *Heap) int {
	before := h.NumFrozenPages()
	Analyze(h)
	return h.NumFrozenPages() - before
}

func collectRows(h *Heap) []Row {
	var out []Row
	h.Scan(func(_ RowID, r Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

func TestFreezeColdPages(t *testing.T) {
	const nrows = 2*rowsPerPage + 44 // two full pages + a row tail
	h, pager := freezeTestHeap(t, nrows)
	before := collectRows(h)

	h.SetColumnSegmenter(stripeCol0)
	if got := analyzeFreezes(h); got != 2 {
		t.Fatalf("ANALYZE froze %d, want 2 (full pages only)", got)
	}
	if !h.Segmented() || h.NumFrozenPages() != 2 {
		t.Fatalf("Segmented=%v NumFrozenPages=%d", h.Segmented(), h.NumFrozenPages())
	}
	// Idempotent: already-frozen pages and the tail stay put.
	if got := analyzeFreezes(h); got != 0 {
		t.Fatalf("second ANALYZE froze %d, want 0", got)
	}

	// Row-path reads see identical content in identical order.
	after := collectRows(h)
	if len(after) != len(before) {
		t.Fatalf("scan returned %d rows, want %d", len(after), len(before))
	}
	for i := range before {
		for j := range before[i] {
			if got, want := after[i][j].String(), before[i][j].String(); got != want {
				t.Fatalf("row %d col %d: %q != %q after freeze", i, j, got, want)
			}
		}
	}

	// Point reads work on frozen pages without un-freezing.
	if r, ok, _ := h.Get(RowID{Page: 0, Slot: 7}); !ok || r[0].String() != "7" {
		t.Fatalf("Get on frozen page: ok=%v row=%v", ok, r)
	}
	if h.NumFrozenPages() != 2 {
		t.Fatal("Get must not un-freeze")
	}

	// ReadPage delivers frozen pages striped and the tail as rows.
	it := h.IterateChunks()
	var frozenSeen, rowPages int
	for {
		pv, ok := it.ReadPage(rowsPerPage)
		if !ok {
			break
		}
		if pv.Frozen != nil {
			frozenSeen++
			if pv.Frozen.NumRows() != rowsPerPage {
				t.Fatalf("frozen page NumRows = %d", pv.Frozen.NumRows())
			}
			_, _, seg := pv.Frozen.Col(0)
			vals := make([]types.Datum, rowsPerPage)
			if seg == nil || seg.Values(vals, 0, nil) != nil {
				t.Fatal("frozen page's column 0 is not a segment")
			}
			for _, d := range vals {
				if d.IsNull() {
					t.Fatal("unexpected NULLs in frozen int column")
				}
			}
			if plain, nulls, seg := pv.Frozen.Col(1); seg != nil || len(plain) != rowsPerPage || slices.ContainsFunc(nulls, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("frozen page's column 1: %d values, nulls %v, segment %v", len(plain), nulls, seg)
			}
		} else {
			rowPages++
			if len(pv.Rows) != 44 {
				t.Fatalf("tail page has %d rows, want 44", len(pv.Rows))
			}
		}
	}
	it.Close()
	if frozenSeen != 2 || rowPages != 1 {
		t.Fatalf("ReadPage saw %d frozen, %d row pages", frozenSeen, rowPages)
	}
	if scanned, _ := pager.SegStats(); scanned != 2 {
		t.Fatalf("segments scanned = %d, want 2", scanned)
	}

	// UPDATE un-freezes the touched page only.
	if _, err := h.Update(RowID{Page: 0, Slot: 3}, Row{types.NewInt(-3), types.NewText("upd")}); err != nil {
		t.Fatal(err)
	}
	if h.NumFrozenPages() != 1 {
		t.Fatalf("NumFrozenPages after update = %d, want 1", h.NumFrozenPages())
	}
	if _, unfrozen := pager.SegStats(); unfrozen != 1 {
		t.Fatalf("segments unfrozen = %d, want 1", unfrozen)
	}
	if r, ok, _ := h.Get(RowID{Page: 0, Slot: 3}); !ok || r[1].String() != "upd" {
		t.Fatalf("updated row not visible: ok=%v r=%v", ok, r)
	}

	// Schema changes un-freeze everything.
	if err := h.Schema().AddColumn(Column{Name: "extra", Typ: types.Int}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddColumnData(1); err != nil {
		t.Fatal(err)
	}
	if h.NumFrozenPages() != 0 {
		t.Fatalf("NumFrozenPages after ALTER = %d, want 0", h.NumFrozenPages())
	}
	if r, ok, _ := h.Get(RowID{Page: 1, Slot: 0}); !ok || len(r) != 3 || !r[2].IsNull() {
		t.Fatalf("widened row wrong: %v", r)
	}
}

func TestFreezeSkipsDirtyPages(t *testing.T) {
	h, _ := freezeTestHeap(t, 2*rowsPerPage)
	if _, err := h.Delete(RowID{Page: 0, Slot: 5}); err != nil {
		t.Fatal(err)
	}
	h.SetColumnSegmenter(stripeCol0)
	if got := analyzeFreezes(h); got != 1 {
		t.Fatalf("ANALYZE froze %d, want 1 (page 0 has a hole)", got)
	}
}

// TestMixedHeapScanOrder pins heap iteration order over a heap that
// ANALYZE's freeze left mixed: frozen pages around a row-form page with a
// hole, then a short row-form tail. Inserting never freezes a page.
func TestMixedHeapScanOrder(t *testing.T) {
	h, _ := freezeTestHeap(t, 0)
	h.SetColumnSegmenter(stripeCol0)
	for i := 0; i < 4*rowsPerPage+10; i++ {
		if err := h.Insert(Row{types.NewInt(int64(i)), types.NewText("r")}); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumFrozenPages() != 0 {
		t.Fatalf("NumFrozenPages = %d after inserts, want 0: only ANALYZE freezes", h.NumFrozenPages())
	}
	if _, err := h.Delete(RowID{Page: 2, Slot: 9}); err != nil {
		t.Fatal(err)
	}
	if got := analyzeFreezes(h); got != 3 {
		t.Fatalf("ANALYZE froze %d, want 3 (page 2 has a hole, page 4 is short)", got)
	}
	rows := collectRows(h)
	if len(rows) != 4*rowsPerPage+9 {
		t.Fatalf("scan returned %d rows", len(rows))
	}
	want := int64(0)
	for _, r := range rows {
		if want == 2*rowsPerPage+9 {
			want++ // the deleted row
		}
		if r[0].I != want {
			t.Fatalf("row %d out of order: %v", want, r)
		}
		want++
	}
}

// fakeZones is a ZoneMapped over a fixed zone list.
type fakeZones []AttrZone

func (f fakeZones) AttrZone(id uint32) (AttrZone, bool) {
	for _, z := range f {
		if z.ID == id {
			return z, true
		}
	}
	return AttrZone{}, false
}

// TestPageSummaryZoneLookup pins the zone lookup the summary delegates to
// a column's segment: present IDs hit with their count and range, absent
// IDs miss, a clone answers the same from the same segment, and a column
// without a segment misses.
func TestPageSummaryZoneLookup(t *testing.T) {
	zones := fakeZones{
		{ID: 2, Present: 5, Min: types.NewInt(-3), Max: types.NewInt(40), HasRange: true},
		{ID: 9, Present: 1},
		{ID: 700, Present: 2, Min: types.NewFloat(0.5), Max: types.NewFloat(1.5), HasRange: true},
	}
	s := newPageSummary()
	s.setZones(3, zones)
	for _, sum := range []*PageSummary{s, s.clone()} {
		for _, want := range zones {
			got, ok := sum.AttrZone(3, want.ID)
			if !ok || got.ID != want.ID || got.Present != want.Present || got.HasRange != want.HasRange {
				t.Fatalf("AttrZone(3, %d) = %+v, %v; want %+v", want.ID, got, ok, want)
			}
			if want.HasRange && (!types.Equal(got.Min, want.Min) || !types.Equal(got.Max, want.Max)) {
				t.Fatalf("AttrZone(3, %d) range = [%v, %v]", want.ID, got.Min, got.Max)
			}
		}
		for _, id := range []uint32{0, 1, 3, 10, 699, 701} {
			if _, ok := sum.AttrZone(3, id); ok {
				t.Fatalf("AttrZone(3, %d) found a zone the segment does not hold", id)
			}
		}
		if _, ok := sum.AttrZone(4, 2); ok {
			t.Fatal("a column without a segment answered a lookup")
		}
	}
	if c := s.clone(); &c.zones[3].(fakeZones)[0] != &zones[0] {
		t.Fatal("clone does not hold the same segment")
	}
}

// TestFrozenRowsOneArena pins the row-form view of a frozen page: a
// row-path read allocates a fixed handful of slices, not one per row, and
// every row is capped at its own width inside the one arena, so appending
// to one cannot write into its neighbour. The page keeps no copy of the
// rows nor of its decoded segment columns: each read builds its own, and
// a point read builds one row.
func TestFrozenRowsOneArena(t *testing.T) {
	h, _ := freezeTestHeap(t, rowsPerPage)
	h.SetColumnSegmenter(stripeCol0)
	if analyzeFreezes(h) != 1 {
		t.Fatal("the page did not freeze")
	}
	fp := h.pages[0].frozen
	// The arena, the row slice, the vector the striped column decodes into
	// and the arena of its values' bytes, for the whole page or one row.
	if allocs := testing.AllocsPerRun(20, func() { fp.materializeRows(0, fp.n) }); allocs > 4 {
		t.Fatalf("a row-path read of a %d-row frozen page allocates %v times, want 4", fp.n, allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { h.Get(RowID{Page: 0, Slot: 9}) }); allocs > 4 {
		t.Fatalf("a point read of a frozen page allocates %v times, want 4", allocs)
	}
	rows, err := fp.materializeRows(0, fp.n)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if len(r) != 2 || cap(r) != 2 {
			t.Fatalf("row %d has len %d cap %d, want 2 and 2", i, len(r), cap(r))
		}
		if r[0].String() != fmt.Sprint(i) || r[1].String() != fmt.Sprintf("row-%d", i) {
			t.Fatalf("row %d = %v", i, r)
		}
		if got, ok, _ := h.Get(RowID{Page: 0, Slot: i}); !ok || !slices.EqualFunc(got, r, types.Equal) {
			t.Fatalf("Get(0.%d) = %v, %v; Scan's row is %v", i, got, ok, r)
		}
	}
	if again, _ := fp.materializeRows(0, fp.n); &again[0][0] == &rows[0][0] {
		t.Fatal("two row-path reads of a frozen page share their rows")
	}
	grown := append(rows[0], types.NewInt(-1))
	if rows[1][0].String() != "1" || &grown[0] == &rows[0][0] {
		t.Fatal("appending to a frozen page's row wrote into the arena")
	}
}

// failingSegment is a ColumnSegment whose values cannot be decoded.
type failingSegment struct{ n int }

var errSegmentDecode = errors.New("segment decode failed")

func (f *failingSegment) NumRows() int      { return f.n }
func (f *failingSegment) AttrIDs() []uint32 { return nil }
func (f *failingSegment) SizeBytes() int64  { return int64(f.n) }
func (f *failingSegment) Values([]types.Datum, int, *ValueArena) error {
	return errSegmentDecode
}

// TestFrozenPageDecodeErrorSurfaces: a frozen page whose segment fails to
// decode is an error to a full scan and to a point read of its rows, on
// the live heap and on a snapshot alike — never an empty page or a
// missing row.
func TestFrozenPageDecodeErrorSurfaces(t *testing.T) {
	h, _ := freezeTestHeap(t, 2*rowsPerPage+5)
	h.SetColumnSegmenter(func(col int, vals []types.Datum) (ColumnSegment, error) {
		if col != 0 {
			return nil, nil
		}
		return &failingSegment{n: len(vals)}, nil
	})
	if got := analyzeFreezes(h); got != 2 {
		t.Fatalf("ANALYZE froze %d pages, want 2", got)
	}
	h.Publish()
	snap := h.CurrentSnapshot()
	for name, v := range map[string]interface {
		Scan(func(RowID, Row) bool) error
		Get(RowID) (Row, bool, error)
	}{"heap": h, "snapshot": snap} {
		seen := 0
		err := v.Scan(func(RowID, Row) bool { seen++; return true })
		if !errors.Is(err, errSegmentDecode) {
			t.Errorf("%s: Scan = %v after %d rows, want the decode error", name, err, seen)
		}
		if r, ok, err := v.Get(RowID{Page: 1, Slot: 3}); !errors.Is(err, errSegmentDecode) || ok || r != nil {
			t.Errorf("%s: Get on the broken page = %v, %v, %v, want the decode error", name, r, ok, err)
		}
		if r, ok, err := v.Get(RowID{Page: 2, Slot: 4}); err != nil || !ok || r[0].I != 2*rowsPerPage+4 {
			t.Errorf("%s: Get on the row-form tail = %v, %v, %v", name, r, ok, err)
		}
	}
}
