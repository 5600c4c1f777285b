package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// TestDatumLayout pins the representation: at most 24 bytes, and exactly
// one field the collector has to look at.
func TestDatumLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Datum{}); sz > 24 {
		t.Errorf("unsafe.Sizeof(Datum{}) = %d, want <= 24", sz)
	}
	rt := reflect.TypeOf(Datum{})
	if rt.NumField() > 4 {
		t.Errorf("Datum has %d fields; more than 4 and the compiler stops treating it as an SSA value", rt.NumField())
	}
	var pointers []string
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			// pointer-free scalar
		default:
			pointers = append(pointers, f.Name+" "+f.Type.String())
		}
	}
	if len(pointers) != 1 || pointers[0] != "p unsafe.Pointer" {
		t.Errorf("pointer-typed fields = %v, want exactly [p unsafe.Pointer]", pointers)
	}
}

// refValue is the model a fuzzed datum is checked against: the former
// representation, one Go value per payload kind.
type refValue struct {
	typ    Type
	null   bool
	b      bool
	i      int64
	f      float64
	s      string
	bs     []byte
	a      []refValue
	isZero bool // the zero Datum (untyped NULL, Null flag clear)
}

// decodeRef turns fuzz input into a value tree. Every byte string decodes
// to something; the grammar is a tag byte followed by the payload.
func decodeRef(data []byte, depth int) (refValue, []byte) {
	if len(data) == 0 {
		return refValue{isZero: true}, nil
	}
	tag, data := data[0], data[1:]
	take := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		out := data[:n]
		data = data[n:]
		return out
	}
	word := func() uint64 {
		var w [8]byte
		copy(w[:], take(8))
		return binary.LittleEndian.Uint64(w[:])
	}
	count := func() int {
		if len(data) == 0 {
			return 0
		}
		return int(take(1)[0])
	}
	switch tag % 10 {
	case 0:
		return refValue{isZero: true}, data
	case 1:
		return refValue{typ: Type(count() % 7), null: true}, data
	case 2:
		return refValue{typ: Bool, b: count()%2 == 1}, data
	case 3:
		return refValue{typ: Int, i: int64(word())}, data
	case 4:
		return refValue{typ: Float, f: math.Float64frombits(word())}, data
	case 5:
		return refValue{typ: Text, s: string(take(count()))}, data
	case 6:
		return refValue{typ: Bytes, bs: nil}, data // nil bytea
	case 7:
		return refValue{typ: Bytes, bs: append([]byte{}, take(count())...)}, data
	case 8:
		return refValue{typ: Array, a: nil}, data // nil array
	default:
		n := count() % 5
		if depth >= 4 {
			n = 0
		}
		r := refValue{typ: Array, a: []refValue{}}
		for k := 0; k < n; k++ {
			var e refValue
			e, data = decodeRef(data, depth+1)
			r.a = append(r.a, e)
		}
		return r, data
	}
}

// build constructs the datum of a model value through the constructors,
// over fresh copies of the variable-length payloads.
func (r refValue) build() Datum {
	switch {
	case r.isZero:
		return Datum{}
	case r.null:
		return NewNull(r.typ)
	}
	switch r.typ {
	case Bool:
		return NewBool(r.b)
	case Int:
		return NewInt(r.i)
	case Float:
		return NewFloat(r.f)
	case Text:
		return NewText(string(append([]byte(nil), r.s...)))
	case Bytes:
		if r.bs == nil {
			return NewBytes(nil)
		}
		return NewBytes(append([]byte{}, r.bs...))
	default:
		if r.a == nil {
			return NewArray()
		}
		elems := make([]Datum, len(r.a))
		for i, e := range r.a {
			elems[i] = e.build()
		}
		return NewArray(elems...)
	}
}

// check asserts that every accessor of d returns what the model holds — and
// the zero value where the model holds another type.
func (r refValue) check(t *testing.T, d Datum) {
	t.Helper()
	wantTyp, wantNull := r.typ, r.null
	if r.isZero {
		wantTyp, wantNull = Unknown, false
	}
	if d.Typ != wantTyp || d.Null != wantNull || d.IsNull() != (wantNull || wantTyp == Unknown) {
		t.Fatalf("tag: got (%v, null=%t, isnull=%t), want (%v, null=%t)", d.Typ, d.Null, d.IsNull(), wantTyp, wantNull)
	}
	var want refValue // payloads of a NULL or of another type read as zero
	if !r.isZero && !r.null {
		want = r
	}
	if d.Bool() != want.b {
		t.Fatalf("Bool() = %t, want %t", d.Bool(), want.b)
	}
	if want.typ == Int && d.I != want.i {
		t.Fatalf("I = %d, want %d", d.I, want.i)
	}
	if math.Float64bits(d.Float()) != math.Float64bits(want.f) {
		t.Fatalf("Float() = %x, want %x", math.Float64bits(d.Float()), math.Float64bits(want.f))
	}
	if d.Text() != want.s {
		t.Fatalf("Text() = %q, want %q", d.Text(), want.s)
	}
	bs := d.Bytes()
	if !bytes.Equal(bs, want.bs) || (bs == nil) != (want.bs == nil) || cap(bs) != len(bs) {
		t.Fatalf("Bytes() = %v (nil=%t cap=%d), want %v (nil=%t)", bs, bs == nil, cap(bs), want.bs, want.bs == nil)
	}
	elems := d.Array()
	if len(elems) != len(want.a) || (elems == nil) != (want.a == nil) || cap(elems) != len(elems) {
		t.Fatalf("Array() has %d elements (nil=%t cap=%d), want %d (nil=%t)", len(elems), elems == nil, cap(elems), len(want.a), want.a == nil)
	}
	for i := range elems {
		want.a[i].check(t, elems[i])
	}
}

func checkDatumRoundTrip(t *testing.T, data []byte) {
	r, _ := decodeRef(data, 0)
	d := r.build()
	r.check(t, d)
	copied := d // by-value copies carry the whole value
	r.check(t, copied)

	// Value semantics do not depend on where the payload lives: a second
	// build over different memory is indistinguishable.
	twin := r.build()
	if got, want := twin.String(), d.String(); got != want {
		t.Fatalf("String differs between builds: %q vs %q", got, want)
	}
	if got, want := twin.HashKey(nil), d.HashKey(nil); !bytes.Equal(got, want) {
		t.Fatalf("HashKey differs between builds: %x vs %x", got, want)
	}
	if twin.SizeBytes() != d.SizeBytes() {
		t.Fatalf("SizeBytes differs between builds: %d vs %d", twin.SizeBytes(), d.SizeBytes())
	}
	if c, err := Compare(d, twin); err == nil && c != 0 {
		t.Fatalf("Compare(d, twin) = %d for %v", c, d)
	}

	// Appending to an accessor's view never writes through: the view has
	// cap == len even when the slice the datum was built over had room.
	switch {
	case r.isZero || r.null:
	case r.typ == Bytes && r.bs != nil:
		backing := append(append(make([]byte, 0, len(r.bs)+4), r.bs...), 0xEE)
		bd := NewBytes(backing[:len(r.bs)])
		view := append(bd.Bytes(), 0x11)
		if backing[len(r.bs)] != 0xEE || !bytes.Equal(bd.Bytes(), r.bs) || len(view) != len(r.bs)+1 {
			t.Fatalf("append on Bytes() wrote through to the shared backing array")
		}
	case r.typ == Array && r.a != nil:
		sentinel := NewText("sentinel")
		backing := make([]Datum, 0, len(r.a)+4)
		for _, e := range r.a {
			backing = append(backing, e.build())
		}
		backing = append(backing, sentinel)
		ad := NewArray(backing[:len(r.a)]...)
		view := append(ad.Array(), NewInt(7))
		if got := backing[len(r.a)]; got.Typ != Text || got.Text() != "sentinel" || len(view) != len(r.a)+1 {
			t.Fatalf("append on Array() wrote through to the shared backing array")
		}
		r.check(t, ad)
	}
}

// datumSeeds are the edge cases of every payload kind: empty and nil
// strings/bytes/arrays, nested arrays, NaN, ±Inf, -0.0, math.MinInt64.
func datumSeeds() [][]byte {
	word := func(tag byte, w uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{tag}, w)
	}
	minInt := uint64(1) << 63 // two's complement of math.MinInt64
	return [][]byte{
		{},
		{0},
		{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 5}, {1, 6},
		{2, 0}, {2, 1},
		word(3, 0), word(3, 1), word(3, ^uint64(0)), word(3, minInt), word(3, math.MaxInt64),
		word(4, 0), word(4, math.Float64bits(math.Copysign(0, -1))), word(4, math.Float64bits(math.NaN())),
		word(4, math.Float64bits(math.Inf(1))), word(4, math.Float64bits(math.Inf(-1))),
		word(4, math.Float64bits(1.5)), word(4, 0x7ff8000000000123), // a NaN with payload bits
		{5, 0}, {5, 3, 'a', 'b', 'c'}, {5, 2, 0, 0xff}, {5, 200, 'x'},
		{6},
		{7, 0}, {7, 3, 1, 2, 3}, {7, 1, 0},
		{8},
		{9, 0},
		{9, 3, 3, 1, 0, 0, 0, 0, 0, 0, 0, 1, 3, 5, 1, 'z'},
		{9, 2, 9, 2, 9, 1, 5, 1, 'q', 8, 9, 0},           // nested arrays, a nil and an empty one inside
		{9, 4, 9, 4, 9, 4, 9, 4, 9, 4, 9, 4, 2, 1, 2, 0}, // deeper than the depth limit
		{9, 3, 7, 2, 0xde, 0xad, 6, 4, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f},
	}
}

// FuzzDatumRoundTrip checks constructor → accessor round trips over value
// trees decoded from the fuzz input; its seeds run under plain `go test`
// (and, with -race, under checkptr, which validates every unsafe.String /
// unsafe.Slice the accessors perform).
func FuzzDatumRoundTrip(f *testing.F) {
	for _, s := range datumSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkDatumRoundTrip)
}
