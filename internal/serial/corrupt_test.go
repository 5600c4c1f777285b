package serial

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file pins the corruption contract of the serialization layer: on
// arbitrary (truncated, bit-flipped, adversarial) input, parseHeader,
// ExtractByID, ExtractPath, Deserialize, and the fused MultiExtract kernel
// must return an error or not-found — never panic, never read out of
// bounds.

func corruptDict(t testing.TB) *Dictionary {
	t.Helper()
	return NewDictionary()
}

// buildTestRecord serializes a representative document covering every
// value type and returns its bytes with the dictionary used.
func buildTestRecord(t testing.TB) ([]byte, *Dictionary) {
	t.Helper()
	dict := corruptDict(t)
	doc, err := jsonx.ParseDocument([]byte(
		`{"s":"hello","i":42,"f":2.5,"b":true,"o":{"x":"y","n":7},"a":[1,"two",null,3.5]}`))
	if err != nil {
		t.Fatal(err)
	}
	data, err := Serialize(doc, dict)
	if err != nil {
		t.Fatal(err)
	}
	return data, dict
}

// richRecords serializes, into dict, records that reach the lookup's rarer
// steps: arrays of objects and of arrays (positional paths such as
// "arr.1.k"), a key with two types inside nested objects, and — written
// by hand, since no encoder emits it — an object that holds one key under
// two types at once, inside an array and at the top level.
func richRecords(t testing.TB, dict *Dictionary) [][]byte {
	t.Helper()
	var out [][]byte
	for _, line := range []string{
		`{"arr":[{"k":1},{"k":"s","m":{"k":true}},null,[{"k":2.5}]],"o":{"k":1,"x":"y"}}`,
		`{"o":{"k":"text","n":{"k":[1,{"k":2}]}},"arr":[{"k":[1,2]},{"k":{"k":3}}]}`,
	} {
		doc, err := jsonx.ParseDocument([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Serialize(doc, dict)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	put := func(rec []byte, id uint32, val []byte) []byte {
		rec, err := splice(rec, nil, id, val)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	empty := make([]byte, 2*u32)
	obj := put(empty, dict.IDFor("k", TypeInt), binary.LittleEndian.AppendUint64(nil, 7))
	obj = put(obj, dict.IDFor("k", TypeString), []byte("seven"))
	arr := binary.LittleEndian.AppendUint32(nil, 1)
	arr = append(arr, byte(TypeObject))
	arr = binary.LittleEndian.AppendUint32(arr, uint32(len(obj)))
	arr = append(arr, obj...)
	rec := put(empty, dict.IDFor("arr", TypeArray), arr)
	return append(out, put(rec, dict.IDFor("o", TypeObject), obj))
}

// probePaths are the paths probeAll looks up: literal keys, nested-object
// descents and §4.2 positional steps into the records above.
var probePaths = []string{
	"s", "i", "o.x", "o.n", "a", "missing", "a.1", "a.2", "a.9", "a.1.x",
	"o", "o.k", "o.n.k", "o.n.k.1.k", "arr", "arr.0", "arr.0.k", "arr.1.k",
	"arr.1.m.k", "arr.1.m", "arr.3.0.k", "arr.2.k", "arr.x", "arr.0.k.1",
}

// probeTypes are the wants probeAll asks for: every attribute type, then
// the untyped probe.
var probeTypes = []AttrType{TypeString, TypeInt, TypeFloat, TypeBool, TypeObject, TypeArray, TypeAny}

// probeAll runs every read-side entry point over the bytes. None may
// panic, and the datum readers must match the tree readers they replace:
// ExtractDatum against ExtractPath and ExtractDatums against MultiExtract,
// for every probe, accept and reject alike, with equal values.
func probeAll(t testing.TB, data []byte, dict *Dictionary) {
	t.Helper()
	_, _ = AttrIDs(data)
	for id := uint32(0); id < 12; id++ {
		_, _, _ = ExtractByID(data, id, dict)
		_, _, _ = ExtractByIDLinear(data, id, dict)
		_, _ = Has(data, id)
	}
	var specs []MultiSpec
	for _, path := range probePaths {
		for _, at := range probeTypes {
			specs = append(specs, MultiSpec{Path: path, Want: at})
			v, ok, err := treeExtract(data, path, at, dict)
			d, derr := ExtractDatum(data, path, at, dict)
			if (err == nil) != (derr == nil) {
				t.Fatalf("%s %v: ExtractPath err %v, ExtractDatum err %v", path, at, err, derr)
			}
			if err == nil && !datumMatches(d, v, ok, at, dict) {
				t.Fatalf("%s %v: ExtractDatum %v, ExtractPath %v (found %v)", path, at, d, v, ok)
			}
		}
	}
	_, _ = Deserialize(data, dict)
	checkPositional(t, data, dict)

	pm := PrepareMulti(specs, dict)
	var rec Record
	if err := rec.Reset(data); err != nil {
		return // rejected at parse; nothing more to probe
	}
	out := make([]jsonx.Value, len(specs))
	found := make([]bool, len(specs))
	datums := make([]types.Datum, len(specs))
	err := rec.MultiExtract(pm, dict, out, found)
	derr := rec.ExtractDatums(pm, dict, datums)
	if (err == nil) != (derr == nil) {
		t.Fatalf("MultiExtract err %v, ExtractDatums err %v", err, derr)
	}
	for i, s := range specs {
		if err == nil && !datumMatches(datums[i], out[i], found[i], s.Want, dict) {
			t.Fatalf("%s: ExtractDatums %v, MultiExtract %v (found %v)", specLabel(s), datums[i], out[i], found[i])
		}
	}
}

// positionalRests are the paths checkPositional resolves inside arrays.
var positionalRests = []string{
	"", "0", "1", "2", "3", "9", "1.", "x", "0.k", "1.k", "2.k", "0.m",
	"1.m.k", "3.0.k", "0.k.1", "1.k.k", "0.x", "1.x.y",
}

// checkPositional holds the §4.2 positional step, which walks element
// bytes, to jsonx.ValuePathGet on the decoded array: for every top-level
// array of the record that decodes, both must find the same value.
func checkPositional(t testing.TB, data []byte, dict *Dictionary) {
	t.Helper()
	h, err := parseHeader(data)
	if err != nil {
		return
	}
	for i := 0; i < h.n; i++ {
		attr, ok := dict.Lookup(h.aid(i))
		vb, err := h.valueBytes(i)
		if !ok || err != nil || attr.Type != TypeArray || checkValue(vb, TypeArray, dict) != nil {
			continue
		}
		arr, err := decodeValue(vb, TypeArray, dict)
		if err != nil {
			t.Fatalf("%s: checkValue accepts an array decodeValue rejects: %v", attr.Key, err)
		}
		for _, rest := range positionalRests {
			want, wantOK := jsonx.ValuePathGet(arr, rest)
			wantT, typed := AttrTypeOf(want)
			eb, et, ok := valueGet(vb, TypeArray, rest, dict)
			if ok != (wantOK && typed) {
				t.Fatalf("%s.%s: positional step found %v, ValuePathGet %v (%v)", attr.Key, rest, ok, wantOK, want)
			}
			if !ok {
				continue
			}
			got, err := decodeValue(eb, et, dict)
			if err != nil || et != wantT || got.String() != want.String() {
				t.Fatalf("%s.%s: positional step %v (%v, %v), ValuePathGet %v", attr.Key, rest, got, et, err, want)
			}
		}
	}
}

// treeExtract is the tree reader's answer to one probe: ExtractPath, or
// for TypeAny the first type of sinew_extract_any's probe order it finds.
func treeExtract(data []byte, path string, want AttrType, dict Dict) (jsonx.Value, bool, error) {
	if want != TypeAny {
		return ExtractPath(data, path, want, dict)
	}
	for _, at := range anyProbeOrder {
		if v, ok, err := ExtractPath(data, path, at, dict); ok || err != nil {
			return v, ok, err
		}
	}
	return jsonx.Value{}, false, nil
}

// datumMatches reports whether a datum reader's answer to a request of
// want is the tree reader's (v, ok): the typed NULL when not found, the
// JSON text for TypeAny, else the same value — scalars bit for bit, an
// object after Deserialize, an array element by element.
func datumMatches(d types.Datum, v jsonx.Value, ok bool, want AttrType, dict Dict) bool {
	switch {
	case !ok:
		return d.Null && d.Typ == DatumType(want)
	case want == TypeAny:
		return !d.Null && d.Typ == types.Text && d.Text() == v.String()
	default:
		return sameValue(d, v, dict)
	}
}

func sameValue(d types.Datum, v jsonx.Value, dict Dict) bool {
	if v.Kind == jsonx.Null || d.IsNull() {
		return v.Kind == jsonx.Null && d.IsNull()
	}
	switch v.Kind {
	case jsonx.Bool:
		return d.Typ == types.Bool && d.Bool() == v.B
	case jsonx.Int:
		return d.Typ == types.Int && d.I == v.I
	case jsonx.Float:
		return d.Typ == types.Float && math.Float64bits(d.Float()) == math.Float64bits(v.F)
	case jsonx.String:
		return d.Typ == types.Text && d.Text() == v.S
	case jsonx.Object:
		doc, err := Deserialize(d.Bytes(), dict)
		return d.Typ == types.Bytes && err == nil && jsonx.ObjectValue(doc).String() == v.String()
	case jsonx.Array:
		elems := d.Array()
		if d.Typ != types.Array || len(elems) != len(v.A) {
			return false
		}
		for i := range elems {
			if !sameValue(elems[i], v.A[i], dict) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// TestCorruptRecordsNeverPanic hand-crafts the corruption classes named in
// the format's validation paths.
func TestCorruptRecordsNeverPanic(t *testing.T) {
	data, dict := buildTestRecord(t)

	t.Run("truncations", func(t *testing.T) {
		// Every prefix of a valid record, including the empty one.
		for n := 0; n <= len(data); n++ {
			probeAll(t, data[:n], dict)
		}
	})

	t.Run("huge-attr-count", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[0:], ^uint32(0)) // n = 2^32-1
		var rec Record
		if err := rec.Reset(bad); err == nil {
			t.Error("absurd attribute count must be rejected")
		}
		probeAll(t, bad, dict)
	})

	t.Run("out-of-range-offsets", func(t *testing.T) {
		h, err := parseHeader(data)
		if err != nil {
			t.Fatal(err)
		}
		// The offsets array starts after [n][aids]; poison each entry with
		// values past the body and with inverted (start > end) pairs.
		offBase := u32 + h.n*u32
		for i := 0; i < h.n; i++ {
			bad := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(bad[offBase+i*u32:], ^uint32(0))
			probeAll(t, bad, dict)
			bad2 := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(bad2[offBase+i*u32:], h.bodyLen+1)
			probeAll(t, bad2, dict)
		}
		// An offset past its successor must surface as an error, not a
		// negative-length slice.
		if h.n >= 2 {
			bad := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(bad[offBase:], h.off(1)+1)
			if _, ok, err := ExtractByID(bad, h.aid(0), dict); err == nil && ok {
				t.Error("inverted offsets must not decode to a value")
			}
			probeAll(t, bad, dict)
		}
	})

	t.Run("unsorted-attr-ids", func(t *testing.T) {
		h, err := parseHeader(data)
		if err != nil {
			t.Fatal(err)
		}
		if h.n < 2 {
			t.Skip("need two attributes")
		}
		// Swap the first two attribute IDs: binary search may miss keys
		// (acceptable) but nothing may panic, and the fused merge must not
		// spin or read out of bounds.
		bad := append([]byte(nil), data...)
		a0 := binary.LittleEndian.Uint32(bad[u32:])
		a1 := binary.LittleEndian.Uint32(bad[u32+u32:])
		binary.LittleEndian.PutUint32(bad[u32:], a1)
		binary.LittleEndian.PutUint32(bad[u32+u32:], a0)
		probeAll(t, bad, dict)
	})

	t.Run("rich-records", func(t *testing.T) {
		// Arrays of objects, positional paths and multi-typed nested keys:
		// every prefix, and every body byte flipped.
		for _, rec := range richRecords(t, dict) {
			probeAll(t, rec, dict)
			for n := 0; n < len(rec); n++ {
				probeAll(t, rec[:n], dict)
				bad := append([]byte(nil), rec...)
				bad[n] ^= 0xff
				probeAll(t, bad, dict)
			}
		}
	})

	t.Run("nested-corruption", func(t *testing.T) {
		// Corrupt bytes inside the body so nested object/array decoding
		// sees garbage sub-records.
		for i := len(data) - 1; i >= len(data)-int(16) && i >= 0; i-- {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0xff
			probeAll(t, bad, dict)
		}
	})
}

// segDirEntry locates the footer directory entry of attribute id within an
// encoded segment, returning its byte offset into seg.
func segDirEntry(t testing.TB, seg []byte, id uint32) int {
	t.Helper()
	footerOff := int(binary.LittleEndian.Uint32(seg[len(seg)-u32:]))
	f := seg[footerOff : len(seg)-u32]
	ncols := int(binary.LittleEndian.Uint32(f[u32:]))
	for ci := 0; ci < ncols; ci++ {
		off := footerOff + 5*u32 + ci*segColDirBytes
		if binary.LittleEndian.Uint32(seg[off:]) == id {
			return off
		}
	}
	t.Fatalf("attribute %d not in segment footer", id)
	return 0
}

// corruptZoneMutants poisons the zone-map metadata of a valid segment in
// every way the planner's page skipping would be unsound to trust:
// inverted extrema, NaN bounds, range flags on unordered encodings,
// presence-count overflow, and a truncated presence bitmap.
func corruptZoneMutants(t testing.TB, seg []byte, dict *Dictionary) map[string][]byte {
	t.Helper()
	clone := func() []byte { return append([]byte(nil), seg...) }
	m := make(map[string][]byte)

	idInt, ok := dict.IDOf("i", TypeInt)
	if !ok {
		t.Fatal("test segment lacks int attribute i")
	}
	di := segDirEntry(t, seg, idInt)
	negMax := int64(-1000)
	bad := clone()
	binary.LittleEndian.PutUint64(bad[di+6*u32:], 1000)             // min = 1000
	binary.LittleEndian.PutUint64(bad[di+6*u32+8:], uint64(negMax)) // max = -1000
	m["int-min-gt-max"] = bad

	idF, ok := dict.IDOf("f", TypeFloat)
	if !ok {
		t.Fatal("test segment lacks float attribute f")
	}
	df := segDirEntry(t, seg, idF)
	bad = clone()
	binary.LittleEndian.PutUint64(bad[df+6*u32:], math.Float64bits(2.0))
	binary.LittleEndian.PutUint64(bad[df+6*u32+8:], math.Float64bits(-2.0))
	m["float-min-gt-max"] = bad
	bad = clone()
	binary.LittleEndian.PutUint64(bad[df+6*u32:], math.Float64bits(math.NaN()))
	m["float-nan-min"] = bad

	idS, ok := dict.IDOf("s", TypeString)
	if !ok {
		t.Fatal("test segment lacks string attribute s")
	}
	ds := segDirEntry(t, seg, idS)
	bad = clone()
	flags := binary.LittleEndian.Uint32(bad[ds+5*u32:])
	binary.LittleEndian.PutUint32(bad[ds+5*u32:], flags|segFlagHasRange)
	m["range-flag-on-string"] = bad

	bad = clone()
	binary.LittleEndian.PutUint32(bad[di+4*u32:], ^uint32(0)>>1)
	m["present-count-overflow"] = bad

	bad = clone()
	binary.LittleEndian.PutUint32(bad[di+3*u32:], 0) // section length 0 < bitmap
	m["truncated-presence-bitmap"] = bad

	return m
}

// TestCorruptSegmentZoneMaps pins the zone-map corruption contract: every
// mutant must be rejected by ParseSegment (page skipping trusts the
// footer extrema, so accepting them would silently drop rows) and must
// not panic any read path.
func TestCorruptSegmentZoneMaps(t *testing.T) {
	_, seg, dict := buildTestSegment(t)
	if _, err := ParseSegment(seg); err != nil {
		t.Fatalf("pristine segment rejected: %v", err)
	}
	for name, bad := range corruptZoneMutants(t, seg, dict) {
		if _, err := ParseSegment(bad); err == nil {
			t.Errorf("%s: corrupt zone map accepted", name)
		}
		probeSegment(t, bad, dict)
	}
}

// TestMultiExtractMatchesExtractPath is the kernel's differential test:
// for every (path, type) combination over a mixed-shape corpus, the fused
// merge must agree with the one-key ExtractPath it replaces, and the Any
// probe must agree with the sinew_extract_any probe order.
func TestMultiExtractMatchesExtractPath(t *testing.T) {
	dict := corruptDict(t)
	docs := []string{
		`{"s":"hello","i":42,"f":2.5,"b":true,"o":{"x":"y","n":7},"a":[1,2]}`,
		`{"s":"other","extra":1}`,
		`{"i":-1,"o":{"x":"z"}}`,
		`{"multi":"text"}`,
		`{"multi":99}`,
		`{}`,
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

	paths := []string{"s", "i", "f", "b", "o", "a", "o.x", "o.n", "multi", "extra", "nope", "o.nope"}
	typs := []AttrType{TypeString, TypeInt, TypeFloat, TypeBool, TypeObject, TypeArray}
	var specs []MultiSpec
	for _, p := range paths {
		for _, at := range typs {
			specs = append(specs, MultiSpec{Path: p, Want: at})
		}
		specs = append(specs, MultiSpec{Path: p, Want: TypeAny})
	}
	pm := PrepareMulti(specs, dict)
	out := make([]jsonx.Value, len(specs))
	found := make([]bool, len(specs))
	var rec Record

	anyOrder := []AttrType{TypeString, TypeInt, TypeFloat, TypeBool, TypeArray, TypeObject}
	for ri, data := range records {
		if err := rec.Reset(data); err != nil {
			t.Fatalf("record %d: %v", ri, err)
		}
		if err := rec.MultiExtract(pm, dict, out, found); err != nil {
			t.Fatalf("record %d: %v", ri, err)
		}
		for si, s := range specs {
			var wantV jsonx.Value
			var wantOK bool
			if s.Want == TypeAny {
				for _, at := range anyOrder {
					v, ok, err := ExtractPath(data, s.Path, at, dict)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						wantV, wantOK = v, true
						break
					}
				}
			} else {
				v, ok, err := ExtractPath(data, s.Path, s.Want, dict)
				if err != nil {
					t.Fatal(err)
				}
				wantV, wantOK = v, ok
			}
			if found[si] != wantOK {
				t.Errorf("record %d spec %+v: found=%v, ExtractPath ok=%v",
					ri, specLabel(s), found[si], wantOK)
				continue
			}
			if wantOK && out[si].String() != wantV.String() {
				t.Errorf("record %d spec %+v: fused %q vs single %q",
					ri, specLabel(s), out[si].String(), wantV.String())
			}
		}
	}
}

func specLabel(s MultiSpec) string {
	return fmt.Sprintf("{%s %s}", s.Path, s.Want)
}

// FuzzRecordReaders drives every read-side entry point — parseHeader,
// ExtractByID, ExtractPath, Deserialize, MultiExtract, and the segment
// decoder — over fuzzer-chosen bytes. The property under test is purely
// "no panic": errors and not-found are both acceptable outcomes for
// garbage input.
func FuzzRecordReaders(f *testing.F) {
	data, dict := buildTestRecord(f)
	f.Add(data)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(data[:len(data)/2])
	// Seed an unsorted-IDs variant.
	bad := append([]byte(nil), data...)
	if len(bad) >= 3*u32 {
		a0 := binary.LittleEndian.Uint32(bad[u32:])
		a1 := binary.LittleEndian.Uint32(bad[2*u32:])
		binary.LittleEndian.PutUint32(bad[u32:], a1)
		binary.LittleEndian.PutUint32(bad[2*u32:], a0)
	}
	f.Add(bad)
	for _, rec := range richRecords(f, dict) {
		f.Add(rec)
		f.Add(rec[:len(rec)-3])
	}
	// Segment-format seeds: a valid segment plus the corruption classes
	// ParseSegment validates (truncated footer, poisoned offsets, corrupt
	// presence bitmaps).
	_, seg, _ := buildTestSegment(f)
	f.Add(seg)
	f.Add(seg[:len(seg)-u32]) // footer pointer gone
	f.Add(seg[:len(seg)/2])   // truncated mid-columns
	for _, off := range []int{2 * u32, 3 * u32, len(seg) - u32} {
		badSeg := append([]byte(nil), seg...)
		binary.LittleEndian.PutUint32(badSeg[off:], ^uint32(0))
		f.Add(badSeg)
	}
	// Adversarial zone maps: inverted/NaN extrema, misplaced range flags,
	// count overflow, truncated bitmaps.
	for _, badSeg := range corruptZoneMutants(f, seg, dict) {
		f.Add(badSeg)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		probeAll(t, b, dict)
		probeSegment(t, b, dict)
	})
}
