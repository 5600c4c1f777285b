package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// recAttrs is the attribute summarizer of the tests' record column: each
// byte of a value is an attribute ID, and 0xFF makes the value
// unsummarizable.
func recAttrs(d types.Datum) ([]uint32, bool) {
	var ids []uint32
	for _, b := range d.Bytes() {
		if b == 0xFF {
			return nil, false
		}
		ids = append(ids, uint32(b))
	}
	return ids, true
}

// attrSegment is a ColumnSegment of a record column: it plays the values
// back, knows the attributes they hold, and answers zone lookups with
// their presence counts.
type attrSegment struct {
	vals []types.Datum
}

func (s *attrSegment) NumRows() int     { return len(s.vals) }
func (s *attrSegment) SizeBytes() int64 { return int64(len(s.vals)) * 24 }
func (s *attrSegment) Values(dst []types.Datum, lo int, _ *ValueArena) error {
	copy(dst, s.vals[lo:])
	return nil
}

func (s *attrSegment) AttrIDs() []uint32 {
	var ids []uint32
	for _, d := range s.vals {
		if !d.IsNull() {
			got, _ := recAttrs(d)
			ids = append(ids, got...)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

func (s *attrSegment) AttrZone(id uint32) (AttrZone, bool) {
	z := AttrZone{ID: id}
	for _, d := range s.vals {
		if !d.IsNull() && slices.Contains(d.Bytes(), byte(id)) {
			z.Present++
		}
	}
	return z, z.Present > 0
}

// stripeRecords stripes column 2, the record column, and vetoes a page
// holding an unsummarizable record.
func stripeRecords(col int, vals []types.Datum) (ColumnSegment, error) {
	if col != 2 {
		return nil, nil
	}
	for _, d := range vals {
		if _, ok := recAttrs(d); !d.IsNull() && !ok {
			return nil, errors.New("unstripeable record")
		}
	}
	return &attrSegment{vals: slices.Clone(vals)}, nil
}

// summaryTestHeap builds a heap of six pages over (id, txt, rec): pages 0,
// 1 and 4 full and cold, page 2 full with a hole, page 3 full with one
// unsummarizable record, and page 5 a short tail. ids and texts mix types
// and NULLs so ranges meet nulls and incomparable values.
func summaryTestHeap(t *testing.T) *Heap {
	t.Helper()
	schema, err := NewSchema(
		Column{Name: "id", Typ: types.Int},
		Column{Name: "txt", Typ: types.Text},
		Column{Name: "rec", Typ: types.Bytes},
	)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHeap(schema, NewPager())
	r := rand.New(rand.NewSource(40))
	for i := 0; i < 5*rowsPerPage+37; i++ {
		page := i / rowsPerPage
		row := Row{types.NewInt(int64(page*1000 + r.Intn(500))), types.NewText(fmt.Sprintf("t%03d", r.Intn(300))), types.NewNull(types.Bytes)}
		switch {
		case page == 1 && i%3 == 0:
			row[0] = types.NewFloat(float64(page*1000) + 0.5)
		case page == 4 && i%7 == 0:
			row[1] = types.NewNull(types.Text)
		case page == 5 && i%11 == 0:
			row[1] = types.NewInt(7) // a text column holding an int: no range
		}
		// Attributes 1..8 on every page, 20+page only on its own, and 9
		// on a few records of each page: under a sixteenth of them, the
		// serial segment's cut for a sparse attribute.
		rec := []byte{byte(1 + r.Intn(8)), byte(20 + page)}
		if i%rowsPerPage%40 == 3 {
			rec = append(rec, 9)
		}
		switch {
		case page == 3 && i%rowsPerPage == 17:
			row[2] = types.NewBytes(append(rec, 0xFF))
		case r.Intn(5) > 0:
			row[2] = types.NewBytes(rec)
		}
		if err := h.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Delete(RowID{Page: 2, Slot: 40}); err != nil {
		t.Fatal(err)
	}
	h.SetAttrSummarizer(2, recAttrs)
	h.SetColumnSegmenter(stripeRecords)
	return h
}

// plainSegment hides a segment's zone maps: what a segmenter that is not
// ZoneMapped stripes.
type plainSegment struct{ ColumnSegment }

// stripeRecordsPlain stripes like stripeRecords, without zone maps.
func stripeRecordsPlain(col int, vals []types.Datum) (ColumnSegment, error) {
	seg, err := stripeRecords(col, vals)
	if seg == nil {
		return nil, err
	}
	return plainSegment{seg}, nil
}

// checkSummaries holds every page's summary, and a copy-on-write clone of
// it, to one built by noteRow over the page's live rows (rows[pi]):
// attribute sets and ranges (NULLs included) answer alike, and a frozen
// page's zone maps are those of its zone-mapped segments.
func checkSummaries(t *testing.T, label string, h *Heap, rows [][]Row) {
	t.Helper()
	for pi, p := range h.pages {
		want := newPageSummary()
		for _, r := range rows[pi] {
			if r != nil {
				h.noteRow(want, r)
			}
		}
		if !want.valid {
			want = nil
		}
		for _, got := range []*PageSummary{p.sum, p.sum.clone()} {
			if got.usable() != want.usable() {
				t.Fatalf("%s: page %d: summary usable %v, want %v", label, pi, got.usable(), want.usable())
			}
			for col := 0; col < 3; col++ {
				var zm ZoneMapped
				if p.frozen != nil && want.usable() {
					zm, _ = p.frozen.cols[col].Seg.(ZoneMapped)
				}
				for id := uint32(0); id < 30; id++ {
					for _, ids := range [][]uint32{{id}, {id, id + 1}} {
						if g, w := got.LacksAllAttrs(col, ids), want.LacksAllAttrs(col, ids); g != w {
							t.Fatalf("%s: page %d: LacksAllAttrs(%d, %v) = %v, want %v", label, pi, col, ids, g, w)
						}
					}
					gz, gok := got.AttrZone(col, id)
					var wz AttrZone
					var wok bool
					if zm != nil {
						wz, wok = zm.AttrZone(id)
					}
					if gok != wok || gz != wz {
						t.Fatalf("%s: page %d: AttrZone(%d, %d) = %+v %v, want %+v %v", label, pi, col, id, gz, gok, wz, wok)
					}
				}
				gmin, gmax, gok := got.ColRange(col)
				wmin, wmax, wok := want.ColRange(col)
				if gok != wok || gok && (types.CompareOrder(gmin, wmin) != 0 || types.CompareOrder(gmax, wmax) != 0) {
					t.Fatalf("%s: page %d: ColRange(%d) = [%v, %v] %v, want [%v, %v] %v", label, pi, col, gmin, gmax, gok, wmin, wmax, wok)
				}
				if g, w := got.usableRange(col), want.usableRange(col); g != nil && g.nulls != w.nulls {
					t.Fatalf("%s: page %d: column %d NULLs noted %v, want %v", label, pi, col, g.nulls, w.nulls)
				}
			}
		}
	}
}

// TestAnalyzeSummariesMatchRows is the summary differential of ANALYZE's
// one walk: whether a page froze in the walk (its attribute set answered
// by a zone-mapped segment, or copied from one without zone maps), stayed
// row-form (a hole, an unsummarizable record the segmenter vetoed, a
// short tail) or was frozen before with its summary invalidated, its
// summary and a copy-on-write clone of it answer what noteRow over its
// rows answers. The walk builds no row-form copy of any frozen page.
func TestAnalyzeSummariesMatchRows(t *testing.T) {
	for _, tc := range []struct {
		name string
		seg  ColumnSegmenter
	}{{"zone-mapped", stripeRecords}, {"not zone-mapped", stripeRecordsPlain}} {
		t.Run(tc.name, func(t *testing.T) {
			h := summaryTestHeap(t)
			h.SetColumnSegmenter(tc.seg)
			rows := make([][]Row, len(h.pages))
			for pi, p := range h.pages {
				rows[pi] = slices.Clone(p.rows)
			}
			before := collectRows(h)

			stats := Analyze(h)
			if h.NumFrozenPages() != 3 {
				t.Fatalf("ANALYZE froze %d pages, want 3 (pages 0, 1 and 4)", h.NumFrozenPages())
			}
			if stats.RowCount != int64(len(before)) {
				t.Fatalf("ANALYZE counted %d rows, want %d", stats.RowCount, len(before))
			}
			checkSummaries(t, "first ANALYZE", h, rows)

			// A summarizer change invalidates every summary; the next
			// ANALYZE rebuilds the frozen pages' from their column vectors
			// and segments.
			h.SetAttrSummarizer(2, recAttrs)
			again := Analyze(h)
			checkSummaries(t, "ANALYZE after invalidation", h, rows)
			for name, cs := range stats.Columns {
				a := again.Columns[name]
				if a.NDistinct != cs.NDistinct || a.NullCount != cs.NullCount || len(a.MCVs) != len(cs.MCVs) ||
					a.HasMinMax != cs.HasMinMax || a.HasMinMax && (!types.KeyEqual(a.Min, cs.Min) || !types.KeyEqual(a.Max, cs.Max)) {
					t.Fatalf("column %s: statistics over frozen pages %+v, over rows %+v", name, a, cs)
				}
			}
			if got := collectRows(h); len(got) != len(before) {
				t.Fatalf("rows after ANALYZE: %d, want %d", len(got), len(before))
			}
		})
	}
}

// identicalRow reports whether two rows hold the same datums: type, NULL
// flag, value and payload bytes alike.
func identicalRow(a, b Row) bool {
	return slices.EqualFunc(a, b, func(x, y types.Datum) bool {
		return x.Typ == y.Typ && x.Null == y.Null && x.String() == y.String() &&
			(x.Typ != types.Bytes || bytes.Equal(x.Bytes(), y.Bytes()))
	})
}

// TestUnfreezeGivesBackRows: every way a write un-freezes a page — an
// UPDATE, a DELETE, a page rewrite, an added column — gives back the
// page's rows as they were before it froze, and so do Scan and Get of the
// frozen page.
func TestUnfreezeGivesBackRows(t *testing.T) {
	ways := map[string]func(h *Heap, pi int) error{
		"update": func(h *Heap, pi int) error {
			r, _ := h.Get(RowID{Page: pi, Slot: 5})
			_, err := h.Update(RowID{Page: pi, Slot: 5}, r.Clone())
			return err
		},
		"delete": func(h *Heap, pi int) error {
			_, err := h.Delete(RowID{Page: pi, Slot: 5})
			return err
		},
		"rewrite": func(h *Heap, pi int) error {
			n := 0
			_, err := h.RewritePage(pi, func(r Row) (Row, error) {
				if n++; n == 6 {
					return r.Clone(), nil
				}
				return nil, nil
			})
			return err
		},
		"add column": func(h *Heap, pi int) error {
			if pi > 0 {
				return nil // the first call un-froze every page
			}
			if err := h.AlterAddColumn(Column{Name: "extra", Typ: types.Int}); err != nil {
				return err
			}
			return h.AddColumnData(1)
		},
	}
	for name, unfreeze := range ways {
		h := summaryTestHeap(t)
		before := make([][]Row, len(h.pages))
		for pi, p := range h.pages {
			for _, r := range p.rows {
				if r != nil {
					r = r.Clone()
				}
				before[pi] = append(before[pi], r)
			}
		}
		Analyze(h)
		frozen := []int{0, 1, 4}
		for _, pi := range frozen {
			if h.pages[pi].frozen == nil {
				t.Fatalf("%s: page %d did not freeze", name, pi)
			}
			for slot, want := range before[pi] {
				if got, ok := h.Get(RowID{Page: pi, Slot: slot}); !ok || !identicalRow(got, want) {
					t.Fatalf("%s: frozen Get(%d.%d) = %v, %v; want %v", name, pi, slot, got, ok, want)
				}
			}
		}
		var scanned []Row
		h.Scan(func(_ RowID, r Row) bool {
			scanned = append(scanned, r)
			return true
		})
		if want := slices.DeleteFunc(slices.Concat(before...), func(r Row) bool { return r == nil }); !slices.EqualFunc(scanned, want, identicalRow) {
			t.Fatalf("%s: Scan of the frozen heap differs from its rows before freezing", name)
		}
		for _, pi := range frozen {
			if err := unfreeze(h, pi); err != nil {
				t.Fatalf("%s: page %d: %v", name, pi, err)
			}
			p := h.pages[pi]
			if p.frozen != nil {
				t.Fatalf("%s: page %d is still frozen", name, pi)
			}
			for slot, want := range before[pi] {
				got := p.rows[slot]
				if name == "delete" && slot == 5 {
					if got != nil {
						t.Fatalf("%s: deleted row %d.%d is %v", name, pi, slot, got)
					}
					continue
				}
				if name == "add column" {
					got = got[:len(want)]
				}
				if !identicalRow(got, want) {
					t.Fatalf("%s: un-frozen row %d.%d = %v, want %v", name, pi, slot, got, want)
				}
			}
		}
	}
}
