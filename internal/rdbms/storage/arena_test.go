package storage

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// randomPayload returns a random value of type typ — NULL one time in six
// — drawn so that empty and nil bytea and arrays, and arrays holding NULLs,
// bytea and arrays, all come up within a page. Unknown picks a type.
func randomPayload(r *rand.Rand, typ types.Type, depth int) types.Datum {
	if typ == types.Unknown {
		typ = []types.Type{types.Int, types.Text, types.Bytes, types.Array}[r.Intn(4)]
	}
	if r.Intn(6) == 0 {
		return types.NewNull(typ)
	}
	switch typ {
	case types.Text:
		if r.Intn(4) == 0 {
			return types.NewText("")
		}
		return types.NewText(fmt.Sprintf("text-%d-%d", r.Intn(1000), r.Int63()))
	case types.Bytes:
		switch r.Intn(4) {
		case 0:
			return types.NewBytes(nil)
		case 1:
			return types.NewBytes([]byte{})
		}
		b := make([]byte, 1+r.Intn(12))
		r.Read(b)
		return types.NewBytes(b)
	case types.Array:
		switch {
		case r.Intn(6) == 0:
			return types.NewArray() // nil elements
		case depth > 2 || r.Intn(6) == 0:
			return types.NewArray([]types.Datum{}...)
		}
		elems := make([]types.Datum, 1+r.Intn(4))
		for i := range elems {
			elems[i] = randomPayload(r, types.Unknown, depth+1)
		}
		return types.NewArray(elems...)
	default:
		return types.NewInt(r.Int63n(100))
	}
}

// sameValue reports whether got is want: the same type, NULL-ness and
// nil-ness at every depth, and types.Equal at the leaves.
func sameValue(got, want types.Datum) bool {
	if got.Typ != want.Typ || got.Null != want.Null || got.IsNull() != want.IsNull() {
		return false
	}
	switch {
	case want.IsNull():
		return true
	case want.Typ == types.Bytes:
		return (got.Bytes() == nil) == (want.Bytes() == nil) && types.Equal(got, want)
	case want.Typ == types.Array:
		ga, wa := got.Array(), want.Array()
		if (ga == nil) != (wa == nil) || len(ga) != len(wa) {
			return false
		}
		for i := range wa {
			if !sameValue(ga[i], wa[i]) {
				return false
			}
		}
		return true
	default:
		return types.Equal(got, want)
	}
}

// payloadRanges lists the address range of every non-empty text or bytea
// payload and every non-empty element slice in d, at every depth.
func payloadRanges(d types.Datum, out [][2]uintptr) [][2]uintptr {
	add := func(p unsafe.Pointer, n uintptr) {
		if n > 0 {
			out = append(out, [2]uintptr{uintptr(p), uintptr(p) + n})
		}
	}
	switch {
	case d.IsNull():
	case d.Typ == types.Text:
		s := d.Text()
		add(unsafe.Pointer(unsafe.StringData(s)), uintptr(len(s)))
	case d.Typ == types.Bytes:
		b := d.Bytes()
		add(unsafe.Pointer(unsafe.SliceData(b)), uintptr(len(b)))
	case d.Typ == types.Array:
		elems := d.Array()
		add(unsafe.Pointer(unsafe.SliceData(elems)), uintptr(len(elems))*unsafe.Sizeof(types.Datum{}))
		for _, e := range elems {
			out = payloadRanges(e, out)
		}
	}
	return out
}

// sharesMemory reports whether any payload of d overlaps one of srcs.
func sharesMemory(d types.Datum, srcs [][2]uintptr) bool {
	for _, pr := range payloadRanges(d, nil) {
		for _, src := range srcs {
			if pr[0] < src[1] && src[0] < pr[1] {
				return true
			}
		}
	}
	return false
}

// TestFrozenPagePayloadArenas: freezing moves a page's text, bytea and array
// payloads into arenas of the page's own. Every value reads back as it was
// stored (type, NULL and nil-ness included), shares no memory with the rows
// it was frozen from, and survives an UPDATE that un-freezes the page and a
// re-freeze; the packing allocates per page, not per value.
func TestFrozenPagePayloadArenas(t *testing.T) {
	schema, err := NewSchema(
		Column{Name: "id", Typ: types.Int},
		Column{Name: "txt", Typ: types.Text},
		Column{Name: "blob", Typ: types.Bytes},
		Column{Name: "arr", Typ: types.Array},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(34))
	h := NewHeap(schema, NewPager())
	var want []Row
	for i := 0; i < 3*rowsPerPage; i++ {
		row := Row{types.NewInt(int64(i)), randomPayload(r, types.Text, 0), randomPayload(r, types.Bytes, 0), randomPayload(r, types.Array, 0)}
		if err := h.Insert(row); err != nil {
			t.Fatal(err)
		}
		want = append(want, row)
	}
	var sources [][2]uintptr
	for _, row := range want {
		for _, d := range row {
			sources = payloadRanges(d, sources)
		}
	}
	check := func(label string) {
		t.Helper()
		got := collectRows(h)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if !sameValue(got[i][j], want[i][j]) {
					t.Fatalf("%s: row %d col %d = %v, want %v", label, i, j, got[i][j], want[i][j])
				}
			}
		}
	}

	h.SetColumnSegmenter(stripeCol0)
	if got := analyzeFreezes(h); got != 3 {
		t.Fatalf("ANALYZE froze %d, want 3", got)
	}
	check("frozen")
	for pi := 0; pi < 3; pi++ {
		fp := h.pages[pi].frozen
		// The summary's text extrema are the page's own copies too.
		lo, hi, ok := h.pages[pi].sum.ColRange(1)
		if !ok {
			t.Fatalf("page %d: no text range", pi)
		}
		for _, d := range []types.Datum{lo, hi} {
			if sharesMemory(d, sources) {
				t.Fatalf("page %d: summary extremum %v shares memory with a source row", pi, d)
			}
		}
		for j := 1; j < fp.NumCols(); j++ {
			vals, _, _ := fp.Col(j)
			for i, d := range vals {
				if sharesMemory(d, sources) {
					t.Fatalf("page %d row %d col %d: %v shares memory with a source row", pi, i, j, d)
				}
			}
		}
	}

	// ANALYZE's read of a cold page, freeze included, allocates per page,
	// not per value: a page whose arrays hold eight texts a row costs what
	// one holding a single text a row does, and fewer objects than it has
	// rows.
	freezeAllocs := func(perRow int) float64 {
		rows := make([]Row, rowsPerPage)
		for i := range rows {
			elems := make([]types.Datum, perRow)
			for k := range elems {
				elems[k] = types.NewText(fmt.Sprintf("e%d-%d", i, k))
			}
			rows[i] = Row{types.NewInt(int64(i)), types.NewText(fmt.Sprint(i)), types.NewBytes([]byte{byte(i)}), types.NewArray(elems...)}
		}
		rowForm := &page{rows: rows}
		return testing.AllocsPerRun(20, func() {
			h.pages[0] = rowForm
			h.frozen--
			if newAnalyzeWalk(h).rowPage(0, rowForm); h.pages[0].frozen == nil {
				t.Fatal("page 0 did not freeze")
			}
		})
	}
	if one, eight := freezeAllocs(1), freezeAllocs(8); eight != one || eight >= rowsPerPage {
		t.Fatalf("freezing a %d-row page: %.0f allocations with 1 array element a row, %.0f with 8", rowsPerPage, one, eight)
	}
	h.pages[0] = &page{rows: want[:rowsPerPage]}
	h.frozen--
	if newAnalyzeWalk(h).rowPage(0, h.pages[0]); h.pages[0].frozen == nil {
		t.Fatal("page 0 did not freeze")
	}
	check("re-frozen")

	// An UPDATE un-freezes page 1; its other rows keep reading the arena's
	// values, and a second freeze packs them again.
	upd := Row{types.NewInt(-1), types.NewText("updated"), types.NewBytes(nil), types.NewArray(types.NewText("x"))}
	if _, err := h.Update(RowID{Page: 1, Slot: 5}, upd); err != nil {
		t.Fatal(err)
	}
	want[rowsPerPage+5] = upd
	if h.NumFrozenPages() != 2 {
		t.Fatalf("NumFrozenPages after UPDATE = %d, want 2", h.NumFrozenPages())
	}
	check("un-frozen")
	if got := analyzeFreezes(h); got != 1 {
		t.Fatalf("second ANALYZE froze %d, want 1", got)
	}
	check("frozen again")
}
