package serial

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
)

// buildTestSegment serializes a mixed-shape corpus (sparse keys, nested
// objects, arrays, a NULL record, multi-typed keys) and stripes it.
func buildTestSegment(t testing.TB) ([][]byte, []byte, *Dictionary) {
	t.Helper()
	dict := NewDictionary()
	docs := []string{
		`{"s":"hello","i":42,"f":2.5,"b":true,"o":{"x":"y","n":7},"a":[1,"two",null,3.5]}`,
		`{"s":"other","extra":1,"i":-7}`,
		`{"i":-1,"o":{"x":"z"},"f":-0.25,"b":false}`,
		`{"multi":"text","sparse_9":"rare"}`,
		`{"multi":99,"s":""}`,
		`{}`,
	}
	records := make([][]byte, 0, len(docs)+1)
	for _, d := range docs {
		doc, err := jsonx.ParseDocument([]byte(d))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Serialize(doc, dict)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	records = append(records, nil) // NULL record
	seg, err := EncodeSegment(records, dict)
	if err != nil {
		t.Fatal(err)
	}
	return records, seg, dict
}

// TestSegmentRoundTrip is the codec's differential test: every striped
// vector must agree with row-format extraction, and the raw vector must
// reproduce the input bytes exactly.
func TestSegmentRoundTrip(t *testing.T) {
	records, data, dict := buildTestSegment(t)
	s, err := ParseSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRecords() != len(records) {
		t.Fatalf("NumRecords = %d, want %d", s.NumRecords(), len(records))
	}

	for i, rec := range records {
		if s.RecordNull(i) != (rec == nil) {
			t.Errorf("record %d: RecordNull = %v", i, s.RecordNull(i))
		}
		got, ok := s.RecordBytes(i)
		if rec == nil {
			if ok {
				t.Errorf("record %d: bytes for NULL record", i)
			}
			continue
		}
		if !ok || !bytes.Equal(got, rec) {
			t.Errorf("record %d: raw vector does not reproduce input", i)
		}
	}

	// Presence bitmaps and typed vectors vs per-record row reads.
	for _, attr := range dict.All() {
		col, ok := s.Column(attr.ID)
		vals := map[int]jsonx.Value{}
		for i, rec := range records {
			if rec == nil {
				continue
			}
			v, found, err := ExtractByID(rec, attr.ID, dict)
			if err != nil {
				t.Fatal(err)
			}
			if found {
				vals[i] = v
			}
		}
		if !ok {
			// Attribute only ever appears inside nested objects/arrays.
			if len(vals) != 0 {
				t.Errorf("attr %d (%s): no column but %d row hits", attr.ID, attr.Key, len(vals))
			}
			continue
		}
		if col.NumPresent() != len(vals) {
			t.Errorf("attr %d (%s): NumPresent = %d, want %d", attr.ID, attr.Key, col.NumPresent(), len(vals))
		}
		for i := range records {
			_, want := vals[i]
			if col.Present(i) != want {
				t.Errorf("attr %d (%s) record %d: Present = %v, want %v", attr.ID, attr.Key, i, col.Present(i), want)
			}
		}
		seen := map[int]jsonx.Value{}
		switch col.Encoding() {
		case SegString:
			err = col.Strings(func(row int, b []byte) { seen[row] = jsonx.StringValue(string(b)) })
		case SegInt:
			err = col.Ints(func(row int, v int64) { seen[row] = jsonx.IntValue(v) })
		case SegFloat:
			err = col.Floats(func(row int, v float64) { seen[row] = jsonx.FloatValue(v) })
		case SegBool:
			err = col.Bools(func(row int, v bool) { seen[row] = jsonx.BoolValue(v) })
		case SegRaw:
			err = col.Raws(func(row int, b []byte) {
				v, derr := DecodeRaw(b, attr.Type, dict)
				if derr != nil {
					t.Errorf("attr %d row %d: %v", attr.ID, row, derr)
					return
				}
				seen[row] = v
			})
		default:
			t.Fatalf("attr %d: unexpected encoding %v", attr.ID, col.Encoding())
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(vals) {
			t.Errorf("attr %d (%s): streamed %d values, want %d", attr.ID, attr.Key, len(seen), len(vals))
		}
		for i, want := range vals {
			if got, ok := seen[i]; !ok || got.String() != want.String() {
				t.Errorf("attr %d (%s) record %d: vector %q, row %q", attr.ID, attr.Key, i, got.String(), want.String())
			}
		}
	}

	// AttrIDs ascending and matching the union of per-record IDs.
	ids := s.AttrIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("AttrIDs not ascending: %v", ids)
		}
	}
	union := map[uint32]bool{}
	for _, rec := range records {
		if rec == nil {
			continue
		}
		ra, err := AttrIDs(rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ra {
			union[id] = true
		}
	}
	if len(union) != len(ids) {
		t.Errorf("AttrIDs has %d entries, union has %d", len(ids), len(union))
	}
	for _, id := range ids {
		if !union[id] {
			t.Errorf("AttrIDs lists %d, absent from every record", id)
		}
	}
}

// TestSegmentRanges pins the footer min/max metadata.
func TestSegmentRanges(t *testing.T) {
	dict := NewDictionary()
	docs := []string{
		`{"n":5,"x":1.5}`,
		`{"n":-3,"x":9.25}`,
		`{"n":12}`,
	}
	records := make([][]byte, len(docs))
	for i, d := range docs {
		doc, err := jsonx.ParseDocument([]byte(d))
		if err != nil {
			t.Fatal(err)
		}
		if records[i], err = Serialize(doc, dict); err != nil {
			t.Fatal(err)
		}
	}
	data, err := EncodeSegment(records, dict)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	nid, _ := dict.IDOf("n", TypeInt)
	col, ok := s.Column(nid)
	if !ok {
		t.Fatal("no column for n")
	}
	if lo, hi, ok := col.IntRange(); !ok || lo != -3 || hi != 12 {
		t.Errorf("IntRange = %d..%d ok=%v, want -3..12", lo, hi, ok)
	}
	if _, _, ok := col.FloatRange(); ok {
		t.Error("FloatRange on int column must report !ok")
	}
	xid, _ := dict.IDOf("x", TypeFloat)
	xcol, ok := s.Column(xid)
	if !ok {
		t.Fatal("no column for x")
	}
	if lo, hi, ok := xcol.FloatRange(); !ok || lo != 1.5 || hi != 9.25 {
		t.Errorf("FloatRange = %g..%g ok=%v, want 1.5..9.25", lo, hi, ok)
	}
}

// TestSegmentEncodeErrors pins the encoder's rejection paths.
func TestSegmentEncodeErrors(t *testing.T) {
	dict := NewDictionary()
	if _, err := EncodeSegment(nil, dict); err == nil {
		t.Error("empty segment must be rejected")
	}
	if _, err := EncodeSegment([][]byte{{1, 2}}, dict); err == nil {
		t.Error("garbage record must be rejected")
	}
	// A record whose attribute is missing from the dictionary.
	other := NewDictionary()
	doc, err := jsonx.ParseDocument([]byte(`{"k":"v"}`))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Serialize(doc, other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeSegment([][]byte{rec}, dict); err == nil {
		t.Error("unknown attribute must be rejected")
	}
}

// TestSegmentEncoderReuse: one freeze encodes page after page through the
// same builders, ID index and value references. What a page encodes to must
// not depend on what the encoder saw before it — a wider page, a narrower
// one, a page whose encode failed half-way — so A, B, a failing page and A
// again through one encoder must each equal the encode of a fresh one.
func TestSegmentEncoderReuse(t *testing.T) {
	dict := NewDictionary()
	page := func(docs ...string) [][]byte {
		t.Helper()
		recs := make([][]byte, len(docs))
		for i, d := range docs {
			if d == "" {
				continue // NULL record
			}
			doc, err := jsonx.ParseDocument([]byte(d))
			if err != nil {
				t.Fatal(err)
			}
			if recs[i], err = Serialize(doc, dict); err != nil {
				t.Fatal(err)
			}
		}
		return recs
	}
	a := page(
		`{"s":"hello","i":42,"f":2.5,"b":true,"o":{"x":"y"},"a":[1,"two",null]}`,
		``,
		`{"i":-1,"f":-0.25,"b":false,"s":""}`,
	)
	// B: more records than A (a second presence word), attributes A lacks,
	// A's attributes under other counts, a float NaN (no range).
	var bDocs []string
	for i := 0; i < 70; i++ {
		bDocs = append(bDocs, `{"i":`+string(rune('0'+i%10))+`,"wide_`+string(rune('a'+i%26))+`":"v","s":"b"}`)
	}
	b := page(bDocs...)
	nan, err := Serialize(func() *jsonx.Doc {
		d := jsonx.NewDoc()
		d.Set("f", jsonx.FloatValue(math.NaN()))
		return d
	}(), dict)
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, nan)
	// Fails in its last record, after the first has registered builders.
	bad := append(page(`{"i":1,"s":"x","later":true}`), []byte{9, 9})

	fresh := func(recs [][]byte) []byte {
		t.Helper()
		seg, err := (&segEncoder{byID: make(map[uint32]int32)}).encode(recs, dict)
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}
	wantA, wantB := fresh(a), fresh(b)
	shared := &segEncoder{byID: make(map[uint32]int32)}
	for step, c := range []struct {
		recs [][]byte
		want []byte
	}{{a, wantA}, {b, wantB}, {bad, nil}, {a, wantA}, {b, wantB}} {
		got, err := shared.encode(c.recs, dict)
		if c.want == nil {
			if err == nil {
				t.Fatalf("step %d: a garbage record encoded", step)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("step %d: the shared encoder's segment differs from a fresh encoder's", step)
		}
		if _, err := ParseSegment(got); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// And the pooled entry point agrees with both.
	if got, err := EncodeSegment(a, dict); err != nil || !bytes.Equal(got, wantA) {
		t.Fatalf("EncodeSegment differs from a fresh encoder (%v)", err)
	}
}

// probeSegment exercises every segment read path. Like probeAll, arbitrary
// bytes may be rejected but must never panic; a segment ParseSegment
// accepts must also read consistently on demand — every column the same
// through Column as through ColumnAt, its bitmap and its typed accessor
// agreeing with its count, and Column missing every absent ID — or the
// probe panics.
func probeSegment(data []byte, dict *Dictionary) {
	s, err := ParseSegment(data)
	if err != nil {
		return
	}
	n := s.NumRecords()
	for i := -1; i <= n; i++ {
		_ = s.RecordNull(i)
		_, _ = s.RecordBytes(i)
	}
	ids := s.AttrIDs()
	if len(ids) != s.NumAttrs() {
		panic("segment AttrIDs disagrees with NumAttrs")
	}
	for ci := range ids {
		col := s.ColumnAt(ci)
		got, ok := s.Column(col.ID())
		if !ok || col.ID() != ids[ci] || !sameColumn(&got, &col) {
			panic("segment column lookup disagrees with ColumnAt")
		}
		pop := 0
		for i := -1; i <= n; i++ {
			if col.Present(i) {
				if i < 0 || i >= n {
					panic("segment column present outside its records")
				}
				pop++
			}
		}
		if pop != col.NumPresent() {
			panic("segment presence bitmap disagrees with NumPresent")
		}
		streamed := 0
		switch col.Encoding() {
		case SegInt:
			err = col.Ints(func(int, int64) { streamed++ })
		case SegFloat:
			err = col.Floats(func(int, float64) { streamed++ })
		case SegBool:
			err = col.Bools(func(int, bool) { streamed++ })
		case SegString:
			err = col.Strings(func(_ int, b []byte) { streamed++; _ = len(b) })
		case SegRaw:
			err = col.Raws(func(_ int, b []byte) {
				streamed++
				_, _ = DecodeRaw(b, TypeObject, dict)
				_, _ = DecodeRaw(b, TypeArray, dict)
			})
		}
		if err != nil || streamed != col.NumPresent() {
			panic("segment column accessor disagrees with NumPresent")
		}
		// The other accessors refuse the encoding.
		_, _, _ = col.IntRange()
		_, _, _ = col.FloatRange()
		_ = col.Ints(func(int, int64) {})
		_ = col.Floats(func(int, float64) {})
		_ = col.Bools(func(int, bool) {})
		_ = col.Strings(func(int, []byte) {})
		_ = col.Raws(func(int, []byte) {})
	}
	miss := func(id uint32) {
		if _, ok := s.Column(id); ok {
			panic("segment column lookup hit an absent ID")
		}
	}
	if len(ids) == 0 || ids[0] != 0 {
		miss(0)
	}
	if len(ids) == 0 || ids[len(ids)-1] != math.MaxUint32 {
		miss(math.MaxUint32)
	}
	for i := 1; i < len(ids); i++ {
		if lo, hi := ids[i-1], ids[i]; hi-lo > 1 {
			miss(lo + 1)
			miss(lo + (hi-lo)/2)
			miss(hi - 1)
		}
	}
}

// sameColumn reports whether a and b agree on ID, encoding, count and
// ranges.
func sameColumn(a, b *SegColumn) bool {
	alo, ahi, aok := a.IntRange()
	blo, bhi, bok := b.IntRange()
	aflo, afhi, afok := a.FloatRange()
	bflo, bfhi, bfok := b.FloatRange()
	return a.ID() == b.ID() && a.Encoding() == b.Encoding() && a.NumPresent() == b.NumPresent() &&
		alo == blo && ahi == bhi && aok == bok &&
		math.Float64bits(aflo) == math.Float64bits(bflo) && math.Float64bits(afhi) == math.Float64bits(bfhi) && afok == bfok
}

// TestCorruptSegmentsNeverPanic hand-crafts the corruption classes the
// segment parser validates: truncations, corrupt presence bitmaps, count
// and length mismatches, bad footers.
func TestCorruptSegmentsNeverPanic(t *testing.T) {
	_, data, dict := buildTestSegment(t)

	t.Run("truncations", func(t *testing.T) {
		for n := 0; n <= len(data); n++ {
			probeSegment(data[:n], dict)
		}
	})

	t.Run("every-u32-poisoned", func(t *testing.T) {
		// Overwrite each aligned u32 with extreme values; parse must
		// reject or survive, never panic. Covers footer offsets, counts,
		// ends arrays, and presence bitmap words.
		for off := 0; off+u32 <= len(data); off += u32 {
			for _, v := range []uint32{0, 1, ^uint32(0), uint32(len(data)), uint32(len(data) - 1)} {
				bad := append([]byte(nil), data...)
				binary.LittleEndian.PutUint32(bad[off:], v)
				probeSegment(bad, dict)
			}
		}
	})

	t.Run("bit-flips", func(t *testing.T) {
		for off := 0; off < len(data); off++ {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0xff
			probeSegment(bad, dict)
		}
	})

	t.Run("footer-count-mismatch", func(t *testing.T) {
		// Inflate each column's footer count: popcount check must reject.
		footerOff := int(binary.LittleEndian.Uint32(data[len(data)-u32:]))
		f := data[footerOff:]
		ncols := int(binary.LittleEndian.Uint32(f[u32:]))
		for ci := 0; ci < ncols; ci++ {
			bad := append([]byte(nil), data...)
			cntOff := footerOff + 5*u32 + ci*segColDirBytes + 4*u32
			cnt := binary.LittleEndian.Uint32(bad[cntOff:])
			binary.LittleEndian.PutUint32(bad[cntOff:], cnt+1)
			if _, err := ParseSegment(bad); err == nil {
				t.Errorf("column %d: inflated count must be rejected", ci)
			}
			probeSegment(bad, dict)
		}
	})

	t.Run("presence-on-null-record", func(t *testing.T) {
		// Set a presence bit on the NULL record (the last one): the
		// parser must reject presence ∩ null.
		s, err := ParseSegment(data)
		if err != nil {
			t.Fatal(err)
		}
		nullRow := s.NumRecords() - 1
		if !s.RecordNull(nullRow) {
			t.Fatal("fixture's last record should be NULL")
		}
		footerOff := int(binary.LittleEndian.Uint32(data[len(data)-u32:]))
		colOff := int(binary.LittleEndian.Uint32(data[footerOff+5*u32+2*u32:]))
		bad := append([]byte(nil), data...)
		word := binary.LittleEndian.Uint64(bad[colOff+(nullRow/64)*8:])
		word |= 1 << uint(nullRow%64)
		binary.LittleEndian.PutUint64(bad[colOff+(nullRow/64)*8:], word)
		if _, err := ParseSegment(bad); err == nil {
			t.Error("presence bit on NULL record must be rejected")
		}
		probeSegment(bad, dict)
	})
}

// TestSegmentFloatRangeNaN: NaN values poison the footer range (a NaN
// min/max would make skip decisions wrong).
func TestSegmentFloatRangeNaN(t *testing.T) {
	dict := NewDictionary()
	doc := jsonx.NewDoc()
	doc.Set("x", jsonx.FloatValue(math.NaN()))
	rec, err := Serialize(doc, dict)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSegment([][]byte{rec}, dict)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := dict.IDOf("x", TypeFloat)
	col, ok := s.Column(id)
	if !ok {
		t.Fatal("no column for x")
	}
	if _, _, ok := col.FloatRange(); ok {
		t.Error("NaN-containing column must not report a range")
	}
}

var colSink SegColumn

// TestParseSegmentAllocsIndependentOfColumns pins the in-place footer:
// parsing a segment allocates the same whether it stripes one attribute or
// a thousand, and looking a column up — by ID, hit or miss, or by
// position — allocates nothing.
func TestParseSegmentAllocsIndependentOfColumns(t *testing.T) {
	build := func(sparse int) ([]byte, uint32) {
		t.Helper()
		dict := NewDictionary()
		records := make([][]byte, 128)
		for i := range records {
			doc := jsonx.NewDoc()
			doc.Set("k", jsonx.IntValue(int64(i)))
			for j := 0; sparse > 0 && j < 8; j++ {
				doc.Set(fmt.Sprintf("sparse_%d", (i*8+j)%sparse), jsonx.StringValue("v"))
			}
			var err error
			if records[i], err = Serialize(doc, dict); err != nil {
				t.Fatal(err)
			}
		}
		data, err := EncodeSegment(records, dict)
		if err != nil {
			t.Fatal(err)
		}
		id, _ := dict.IDOf("k", TypeInt)
		return data, id
	}
	parseAllocs := func(data []byte) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := ParseSegment(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	narrow, _ := build(0)
	wide, kid := build(999)
	s, err := ParseSegment(wide)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumAttrs() != 1000 {
		t.Fatalf("the wide segment stripes %d attributes, want 1000", s.NumAttrs())
	}
	if a, b := parseAllocs(narrow), parseAllocs(wide); a != b {
		t.Fatalf("ParseSegment allocates %v times for 1 attribute and %v for 1000", a, b)
	}
	for name, fn := range map[string]func(){
		"Column hit":  func() { colSink, _ = s.Column(kid) },
		"Column miss": func() { colSink, _ = s.Column(math.MaxUint32) },
		"ColumnAt":    func() { colSink = s.ColumnAt(500) },
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s allocates %v times", name, a)
		}
	}
}
