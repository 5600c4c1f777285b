package serial

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
)

// buildTestSegment serializes a mixed-shape corpus (nested objects,
// arrays, an empty record, NULL records, multi-typed keys) and stripes it.
// Its 24 records, 18 of them NULL, put the sparseness cut between one
// record and two: the keys of two records or more get column sections, and
// the rare ones — one of every encoding — sparse index entries.
func buildTestSegment(t testing.TB) ([][]byte, []byte, *Dictionary) {
	t.Helper()
	dict := NewDictionary()
	docs := []string{
		`{"s":"hello","i":42,"f":2.5,"b":true,"o":{"x":"y","n":7},"a":[1,"two",null,3.5]}`,
		`{"s":"other","extra":1,"i":-7}`,
		`{"i":-1,"o":{"x":"z"},"f":-0.25,"b":false}`,
		`{"multi":"text","sparse_9":"rare"}`,
		`{"multi":99,"s":"","rare_f":-3.5,"rare_b":true}`,
		`{}`,
	}
	records := make([][]byte, 24)
	for i, d := range docs {
		doc, err := jsonx.ParseDocument([]byte(d))
		if err != nil {
			t.Fatal(err)
		}
		if records[i], err = Serialize(doc, dict); err != nil {
			t.Fatal(err)
		}
	}
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
		got := s.AppendRecord(nil, i, nil)
		if raw, _ := s.RawRecord(i); s.Spliced(i, nil) == bytes.Equal(raw, got) && rec != nil {
			t.Errorf("record %d: Spliced %v, raw entry of %d bytes, record of %d", i, s.Spliced(i, nil), len(raw), len(got))
		}
		if rec == nil {
			if len(got) != 0 {
				t.Errorf("record %d: bytes for NULL record", i)
			}
			continue
		}
		if !bytes.Equal(got, rec) {
			t.Errorf("record %d: the splice does not reproduce the input", i)
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
		marks := make([]uint64, (len(records)+63)/64)
		col.MarkPresent(marks)
		for i := range records {
			_, want := vals[i]
			if got := marks[i/64]&(1<<uint(i%64)) != 0; got != want {
				t.Errorf("attr %d (%s) record %d: marked present = %v, want %v", attr.ID, attr.Key, i, got, want)
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
				v, derr := decodeValue(b, attr.Type, dict)
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
	// A record whose attribute IDs are out of order or repeated: a sparse
	// value is found again by the header's binary search.
	doc, err = jsonx.ParseDocument([]byte(`{"a":1,"b":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if rec, err = Serialize(doc, dict); err != nil {
		t.Fatal(err)
	}
	a0, a1 := binary.LittleEndian.Uint32(rec[u32:]), binary.LittleEndian.Uint32(rec[2*u32:])
	for name, ids := range map[string][2]uint32{"out of order": {a1, a0}, "repeated": {a0, a0}} {
		bad := append([]byte(nil), rec...)
		binary.LittleEndian.PutUint32(bad[u32:], ids[0])
		binary.LittleEndian.PutUint32(bad[2*u32:], ids[1])
		if _, err := EncodeSegment([][]byte{rec, bad}, dict); err == nil || !strings.Contains(err.Error(), "not ascending") {
			t.Errorf("attribute IDs %s: EncodeSegment error %v", name, err)
		}
	}
	// A bool byte other than 0 or 1: its section would be the only copy,
	// and a section holds a bool as 0 or 1, so the byte would be lost.
	doc, err = jsonx.ParseDocument([]byte(`{"t":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if rec, err = Serialize(doc, dict); err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeSegment([][]byte{rec, rec}, dict); err != nil {
		t.Fatalf("bool records: %v", err)
	}
	bad := append([]byte(nil), rec...)
	bad[len(bad)-1] = 2
	if _, err := EncodeSegment([][]byte{rec, bad}, dict); err == nil || !strings.Contains(err.Error(), "bad bool value") {
		t.Errorf("bool byte 2: EncodeSegment error %v", err)
	}
	// A record not in the record writer's layout: bytes after its body.
	if _, err := EncodeSegment([][]byte{rec, append(rec[:len(rec):len(rec)], 0)}, dict); err == nil || !strings.Contains(err.Error(), "not in the record layout") {
		t.Errorf("trailing byte: EncodeSegment error %v", err)
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
// accepts must also read consistently on demand — every spliced record
// parsing with its IDs strictly ascending, and narrowed to some of its
// attributes equal to it without the others, Column finding every attribute
// AttrIDs names, its presence and its typed accessor agreeing with its
// count and its values equal to the spliced records', and Column missing
// every absent ID — or the probe panics.
func probeSegment(t testing.TB, data []byte, dict *Dictionary) {
	t.Helper()
	s, err := ParseSegment(data)
	if err != nil {
		return
	}
	n := s.NumRecords()
	records := make([][]byte, n)
	for i := -1; i <= n; i++ {
		_ = s.RecordNull(i)
		rec := s.AppendRecord(nil, i, nil)
		if raw, _ := s.RawRecord(i); s.Spliced(i, nil) == bytes.Equal(raw, rec) && len(rec) > 0 {
			panic("segment Spliced disagrees with the raw entry and the spliced record")
		}
		if i < 0 || i >= n || s.RecordNull(i) {
			if len(rec) != 0 {
				panic("segment splices bytes for a NULL or absent record")
			}
			continue
		}
		if raw, _ := s.RawRecord(i); len(raw) == len(rec) && !bytes.Equal(raw, rec) {
			panic("segment record with nothing sectioned differs from its raw entry")
		}
		ids, err := AttrIDs(rec)
		if err != nil {
			panic("segment spliced record does not parse: " + err.Error())
		}
		for k := 1; k < len(ids); k++ {
			if ids[k] <= ids[k-1] {
				panic("segment spliced record's attribute IDs not strictly ascending")
			}
		}
		// Narrowed to every other attribute (and an ID no record holds),
		// the splice is the record with the rest deleted.
		var keep, drop []uint32
		for k, id := range ids {
			if k%2 == 0 {
				keep = append(keep, id)
			} else {
				drop = append(drop, id)
			}
		}
		keep = append(keep, math.MaxUint32)
		want, err := DeleteAttrs(rec, drop...)
		if err != nil {
			panic("segment spliced record does not splice: " + err.Error())
		}
		narrow := s.AppendRecord(nil, i, keep)
		if !bytes.Equal(narrow, want) {
			panic("segment record narrowed to some attributes differs from the record without the others")
		}
		if raw, _ := s.RawRecord(i); !s.Spliced(i, keep) && !bytes.Equal(narrow, mustDelete(raw, drop)) {
			panic("segment record narrowed to unsectioned attributes differs from its raw entry's")
		}
		records[i] = rec
		probeAll(t, rec, dict)
	}
	ids := s.AttrIDs()
	if len(ids) != s.NumAttrs() {
		panic("segment AttrIDs disagrees with NumAttrs")
	}
	marks := make([]uint64, (n+63)/64)
	for _, id := range ids {
		col, ok := s.Column(id)
		if !ok || col.ID() != id {
			panic("segment column lookup misses an attribute AttrIDs names")
		}
		clear(marks)
		col.MarkPresent(marks)
		pop := 0
		for _, w := range marks {
			pop += bits.OnesCount64(w)
		}
		if checkTailBits(wordBytes(marks), n) != nil {
			panic("segment column present outside its records")
		}
		if pop != col.NumPresent() {
			panic("segment presence bitmap disagrees with NumPresent")
		}
		// Every value the column streams is the spliced record's, and
		// every record holding the attribute is streamed.
		streamed := 0
		value := func(row int, b []byte) {
			streamed++
			if want, ok, err := ValueBytes(records[row], id); err != nil || !ok || !bytes.Equal(b, want) {
				panic("segment column value differs from its spliced record's")
			}
		}
		switch col.Encoding() {
		case SegInt:
			err = col.Ints(func(row int, v int64) { value(row, binary.LittleEndian.AppendUint64(nil, uint64(v))) })
		case SegFloat:
			err = col.Floats(func(row int, v float64) { value(row, binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) })
		case SegBool:
			err = col.Bools(func(row int, v bool) {
				b := byte(0)
				if v {
					b = 1
				}
				value(row, []byte{b})
			})
		case SegString:
			err = col.Strings(value)
		case SegRaw:
			err = col.Raws(func(row int, b []byte) {
				value(row, b)
				_, _ = DecodeDatum(b, TypeObject, dict)
				_, _ = DecodeDatum(b, TypeArray, dict)
			})
		}
		if err != nil || streamed != col.NumPresent() {
			panic("segment column accessor disagrees with NumPresent")
		}
		held := 0
		for _, rec := range records {
			if ok, err := Has(rec, id); rec != nil && err == nil && ok {
				held++
			}
		}
		if held != streamed {
			panic("segment column streams fewer values than the spliced records hold")
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

// mustDelete is DeleteAttrs over a record ParseSegment accepted.
func mustDelete(rec []byte, ids []uint32) []byte {
	out, err := DeleteAttrs(rec, ids...)
	if err != nil {
		panic("segment raw entry does not splice: " + err.Error())
	}
	return out
}

// wordBytes lays a bitmap of 64-bit words out as the segment does.
func wordBytes(words []uint64) []byte {
	out := make([]byte, 0, len(words)*8)
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// TestCorruptSegmentsNeverPanic hand-crafts the corruption classes the
// segment parser validates: truncations, corrupt presence bitmaps, count
// and length mismatches, bad footers.
func TestCorruptSegmentsNeverPanic(t *testing.T) {
	_, data, dict := buildTestSegment(t)

	t.Run("truncations", func(t *testing.T) {
		for n := 0; n <= len(data); n++ {
			probeSegment(t, data[:n], dict)
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
				probeSegment(t, bad, dict)
			}
		}
	})

	t.Run("bit-flips", func(t *testing.T) {
		for off := 0; off < len(data); off++ {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0xff
			probeSegment(t, bad, dict)
		}
	})

	t.Run("footer-count-mismatch", func(t *testing.T) {
		// Inflate each column's footer count: popcount check must reject.
		footerOff := int(binary.LittleEndian.Uint32(data[len(data)-u32:]))
		f := data[footerOff:]
		ncols := int(binary.LittleEndian.Uint32(f[u32:]))
		for ci := 0; ci < ncols; ci++ {
			bad := append([]byte(nil), data...)
			cntOff := footerOff + segFooterHead + ci*segColDirBytes + 4*u32
			cnt := binary.LittleEndian.Uint32(bad[cntOff:])
			binary.LittleEndian.PutUint32(bad[cntOff:], cnt+1)
			if _, err := ParseSegment(bad); err == nil {
				t.Errorf("column %d: inflated count must be rejected", ci)
			}
			probeSegment(t, bad, dict)
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
		colOff := int(binary.LittleEndian.Uint32(data[footerOff+segFooterHead+2*u32:]))
		bad := append([]byte(nil), data...)
		word := binary.LittleEndian.Uint64(bad[colOff+(nullRow/64)*8:])
		word |= 1 << uint(nullRow%64)
		binary.LittleEndian.PutUint64(bad[colOff+(nullRow/64)*8:], word)
		if _, err := ParseSegment(bad); err == nil {
			t.Error("presence bit on NULL record must be rejected")
		}
		probeSegment(t, bad, dict)
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
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s allocates %v times", name, a)
		}
	}
}

// checkSegmentMatchesRecords holds every attribute of s, whichever form it
// has, to what the per-record header lookup (ValueBytes) over records
// gives: the form itself (sparse exactly when the attribute is in at most
// one record in segSparseDiv), the attribute set, presence, count, the
// value stream in row order and the int/float range.
func checkSegmentMatchesRecords(t testing.TB, records [][]byte, s *Segment) {
	t.Helper()
	n := len(records)
	union := map[uint32]bool{}
	for _, rec := range records {
		if rec == nil {
			continue
		}
		ids, err := AttrIDs(rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			union[id] = true
		}
	}
	ids := s.AttrIDs()
	if len(ids) != len(union) || s.NumAttrs() != len(ids) {
		t.Fatalf("segment holds %d attributes (NumAttrs %d), the records %d", len(ids), s.NumAttrs(), len(union))
	}
	for ci, id := range ids {
		if !union[id] || ci > 0 && ids[ci-1] >= id {
			t.Fatalf("AttrIDs %v: %d is out of order or in no record", ids, id)
		}
		col, ok := s.Column(id)
		if !ok {
			t.Fatalf("attr %d: AttrIDs names it and Column misses it", id)
		}
		var rows []int
		want := map[int][]byte{}
		for i, rec := range records {
			if rec == nil {
				continue
			}
			b, found, err := ValueBytes(rec, id)
			if err != nil {
				t.Fatal(err)
			}
			if found {
				rows = append(rows, i)
				want[i] = b
			}
		}
		if sparse := col.seg != nil; sparse != (len(rows)*segSparseDiv <= n) {
			t.Errorf("attr %d in %d of %d records: sparse = %v", id, len(rows), n, sparse)
		}
		if col.NumPresent() != len(rows) {
			t.Errorf("attr %d: NumPresent = %d, want %d", id, col.NumPresent(), len(rows))
		}
		marks := make([]uint64, (n+63)/64)
		col.MarkPresent(marks)
		for i := -1; i <= n; i++ {
			_, w := want[i]
			marked := i >= 0 && i < n && marks[i/64]&(1<<uint(i%64)) != 0
			if marked != w {
				t.Errorf("attr %d record %d: marked present %v, want %v", id, i, marked, w)
			}
		}

		// The stream, in row order, byte for byte.
		k := 0
		next := func(row int, b []byte) {
			t.Helper()
			if k >= len(rows) || rows[k] != row || !bytes.Equal(b, want[row]) {
				t.Fatalf("attr %d: value %d streamed as row %d %x", id, k, row, b)
			}
			k++
		}
		var r segRange
		for _, row := range rows {
			switch col.Encoding() {
			case SegInt:
				r.noteInt(int64(binary.LittleEndian.Uint64(want[row])))
			case SegFloat:
				r.noteFloat(math.Float64frombits(binary.LittleEndian.Uint64(want[row])))
			}
		}
		var err error
		switch col.Encoding() {
		case SegInt:
			err = col.Ints(func(row int, v int64) { next(row, binary.LittleEndian.AppendUint64(nil, uint64(v))) })
			lo, hi, ok := col.IntRange()
			if ok != r.valid() || ok && (uint64(lo) != r.minBits || uint64(hi) != r.maxBits) {
				t.Errorf("attr %d: IntRange %d..%d %v, the records' %d..%d %v", id, lo, hi, ok, int64(r.minBits), int64(r.maxBits), r.valid())
			}
		case SegFloat:
			err = col.Floats(func(row int, v float64) { next(row, binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) })
			lo, hi, ok := col.FloatRange()
			if ok != r.valid() || ok && (math.Float64bits(lo) != r.minBits || math.Float64bits(hi) != r.maxBits) {
				t.Errorf("attr %d: FloatRange %g..%g %v, the records' %v", id, lo, hi, ok, r.valid())
			}
		case SegBool:
			err = col.Bools(func(row int, v bool) {
				b := want[row]
				if len(b) == 1 && v == (b[0] != 0) {
					next(row, b)
				} else {
					next(row, nil)
				}
			})
		case SegString:
			err = col.Strings(next)
		case SegRaw:
			err = col.Raws(next)
		}
		if err != nil {
			t.Fatal(err)
		}
		if k != len(rows) {
			t.Errorf("attr %d: streamed %d values, want %d", id, k, len(rows))
		}
	}
}

// cutCounts returns the presence counts on both sides of the sparseness
// cut of an n-record segment: 1, the most records a sparse attribute may
// be in, and the two after.
func cutCounts(n int) []int {
	cut := n / segSparseDiv
	return slices.Compact([]int{1, max(cut, 1), cut + 1, cut + 2})
}

// sparseCutLines returns n JSON lines in which, for every c of cutCounts(n),
// six keys — one of every encoding — are present in c of them; every
// seventh line is empty (a NULL record).
func sparseCutLines(n int) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		if i%7 == 6 {
			out = append(out, '\n')
			continue
		}
		line := fmt.Sprintf(`{"row":%d`, i)
		for _, c := range cutCounts(n) {
			if i/7*6+i%7 >= c { // not among the first c non-empty lines
				continue
			}
			line += fmt.Sprintf(`,"i_%d":%d,"f_%d":%d.25,"b_%d":%v,"s_%d":"v%d","o_%d":{"x":%d},"a_%d":[%d,"e"]`,
				c, i-3, c, 2-i, c, i%2 == 0, c, i, c, i, c, i)
		}
		out = append(out, line+"}\n"...)
	}
	return out
}

// TestSegmentSparseForm holds both test fixtures to the header lookup: the
// mixed corpus, whose rare keys are sparse, and pages of 15 to 128 records
// with keys just below, at and just above the cut.
func TestSegmentSparseForm(t *testing.T) {
	records, data, _ := buildTestSegment(t)
	s, err := ParseSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.nsparse != 7 || s.numSections() != 5 {
		t.Fatalf("the fixture has %d sparse and %d sectioned attributes, want 7 and 5", s.nsparse, s.numSections())
	}
	checkSegmentMatchesRecords(t, records, s)
	for _, n := range []int{15, 16, 17, 32, 47, 128} {
		s := stripeLines(t, sparseCutLines(n))
		sparse, sections := 0, 1 // "row" is in every record
		for _, c := range cutCounts(n) {
			if c*segSparseDiv <= n {
				sparse += 6
			} else {
				sections += 6
			}
		}
		if s.nsparse != sparse || s.numSections() != sections {
			t.Errorf("%d records: %d sparse and %d sectioned attributes, want %d and %d", n, s.nsparse, s.numSections(), sparse, sections)
		}
	}
}

// stripeLines encodes newline-terminated JSON lines into records — an
// empty line is a NULL record, a line that does not encode is left out, and
// no more than 512 are read — stripes them, and
// holds the segment to the records. It returns the segment, nil when there
// are no records.
func stripeLines(t testing.TB, in []byte) *Segment {
	dict := NewDictionary()
	enc := NewEncoder(dict, false)
	var records [][]byte
	for _, line := range bytes.Split(bytes.TrimSuffix(in, []byte{'\n'}), []byte{'\n'}) {
		if len(records) == 512 {
			break
		}
		if len(bytes.TrimSpace(line)) == 0 {
			records = append(records, nil)
			continue
		}
		if rec, err := enc.EncodeJSON(line); err == nil {
			records = append(records, rec)
		}
	}
	if len(records) == 0 {
		return nil
	}
	data, err := EncodeSegment(records, dict)
	if err != nil {
		t.Fatalf("encoded records do not stripe: %v", err)
	}
	s, err := ParseSegment(data)
	if err != nil {
		t.Fatalf("a fresh segment does not parse: %v", err)
	}
	for i, rec := range records {
		if got := s.AppendRecord(nil, i, nil); s.RecordNull(i) != (rec == nil) || !bytes.Equal(got, rec) {
			t.Fatalf("record %d does not round-trip", i)
		}
	}
	checkSegmentMatchesRecords(t, records, s)
	return s
}

// FuzzSegmentMatchesRecords stripes fuzzer-chosen JSON lines (stripeLines)
// and holds every attribute of the segment, sectioned or sparse, to the
// per-record header lookup. The seeds cross the sparseness cut.
func FuzzSegmentMatchesRecords(f *testing.F) {
	for _, n := range []int{1, 15, 16, 17, 32, 33, 128} {
		f.Add(sparseCutLines(n))
	}
	f.Add([]byte("{\"a\":1}\n{}\n{\"a\":\"x\"}\n\n{\"a\":{\"a\":1.5}}\n{\"a\":[true]}\nnot json\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		_ = stripeLines(t, in)
	})
}
