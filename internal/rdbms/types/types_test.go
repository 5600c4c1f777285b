package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"int": Int, "INTEGER": Int, "bigint": Int, "smallint": Int,
		"real": Float, "double precision": Float, "numeric": Float,
		"text": Text, "varchar": Text, "bool": Bool, "boolean": Bool,
		"bytea": Bytes, "array": Array,
	}
	for name, want := range cases {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseType("jsonb"); err == nil {
		t.Error("unknown type should error")
	}
}

func TestIsNull(t *testing.T) {
	if !(Datum{}).IsNull() {
		t.Error("zero Datum should be NULL")
	}
	if !NewNull(Int).IsNull() {
		t.Error("typed NULL should be NULL")
	}
	if NewInt(0).IsNull() || NewText("").IsNull() || NewBool(false).IsNull() {
		t.Error("zero values are not NULL")
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(2), NewFloat(2.5), -1},
		{NewFloat(2.5), NewInt(2), 1},
		{NewText("a"), NewText("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{NewArray(NewInt(1)), NewArray(NewInt(1), NewInt(2)), -1},
		{NewArray(NewInt(2)), NewArray(NewInt(1), NewInt(9)), 1},
		{NewBytes([]byte("a")), NewBytes([]byte("b")), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
}

func TestCompareIncomparable(t *testing.T) {
	if _, err := Compare(NewText("x"), NewInt(1)); err == nil {
		t.Error("text vs int should error")
	}
	if _, err := Compare(NewBool(true), NewInt(1)); err == nil {
		t.Error("bool vs int should error")
	}
	if _, err := Compare(NewNull(Int), NewInt(1)); err == nil {
		t.Error("NULL operand should error (caller handles NULLs)")
	}
}

func TestNaNOrderingIsTotal(t *testing.T) {
	nan := NewFloat(math.NaN())
	if c, _ := Compare(nan, nan); c != 0 {
		t.Error("NaN should equal itself in sort order")
	}
	if c, _ := Compare(NewFloat(1), nan); c != -1 {
		t.Error("NaN should sort after numbers")
	}
	if c, _ := Compare(nan, NewFloat(1)); c != 1 {
		t.Error("NaN should sort after numbers (flipped)")
	}
}

func TestEqualSemantics(t *testing.T) {
	if !Equal(NewInt(2), NewFloat(2.0)) {
		t.Error("2 = 2.0")
	}
	if Equal(NewText("2"), NewInt(2)) {
		t.Error("'2' != 2 (incomparable is unequal, not error)")
	}
	if Equal(NewNull(Int), NewNull(Int)) {
		t.Error("NULL never equals NULL")
	}
}

func TestHashKeyConsistentWithEqual(t *testing.T) {
	f := func(a, b int64) bool {
		da, db := NewInt(a), NewFloat(float64(b))
		ka := string(da.HashKey(nil))
		kb := string(db.HashKey(nil))
		return (ka == kb) == Equal(da, db)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Text and bytes never collide despite same content.
	if string(NewText("x").HashKey(nil)) == string(NewBytes([]byte("x")).HashKey(nil)) {
		t.Error("text/bytes hash collision")
	}
	// Array keys are self-delimiting.
	a1 := NewArray(NewText("ab"), NewText("c"))
	a2 := NewArray(NewText("a"), NewText("bc"))
	if string(a1.HashKey(nil)) == string(a2.HashKey(nil)) {
		t.Error("array hash keys must delimit elements")
	}
}

func TestCastMatrix(t *testing.T) {
	ok := []struct {
		in   Datum
		to   Type
		want Datum
	}{
		{NewText("42"), Int, NewInt(42)},
		{NewText(" 42 "), Int, NewInt(42)},
		{NewText("2.5"), Float, NewFloat(2.5)},
		{NewText("true"), Bool, NewBool(true)},
		{NewText("F"), Bool, NewBool(false)},
		{NewInt(1), Bool, NewBool(true)},
		{NewInt(3), Float, NewFloat(3)},
		{NewFloat(3.7), Int, NewInt(3)},
		{NewBool(true), Int, NewInt(1)},
		{NewInt(42), Text, NewText("42")},
		{NewFloat(2.5), Text, NewText("2.5")},
		{NewBool(false), Text, NewText("false")},
		{NewText("abc"), Bytes, NewBytes([]byte("abc"))},
	}
	for _, c := range ok {
		got, err := Cast(c.in, c.to)
		if err != nil {
			t.Errorf("Cast(%v, %v): %v", c.in, c.to, err)
			continue
		}
		if !Equal(got, c.want) && !(got.Typ == Bytes && string(got.Bytes()) == string(c.want.Bytes())) {
			t.Errorf("Cast(%v, %v) = %v, want %v", c.in, c.to, got, c.want)
		}
	}
	// NULL casts to typed NULL.
	n, err := Cast(Datum{}, Int)
	if err != nil || !n.IsNull() || n.Typ != Int {
		t.Errorf("NULL cast = %v, %v", n, err)
	}
	// Malformed text raises an error — the pgjson Q7 behaviour.
	bad := []struct {
		in Datum
		to Type
	}{
		{NewText("twenty"), Int},
		{NewText("x"), Float},
		{NewText("maybe"), Bool},
	}
	for _, c := range bad {
		if _, err := Cast(c.in, c.to); err == nil {
			t.Errorf("Cast(%v, %v) should fail", c.in, c.to)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	if NewNull(Text).SizeBytes() != 0 {
		t.Error("NULL should cost nothing beyond the bitmap")
	}
	if NewInt(1).SizeBytes() != 8 || NewBool(true).SizeBytes() != 1 {
		t.Error("scalar sizes")
	}
	if NewText("abcd").SizeBytes() != 8 { // 4-byte header + 4 bytes
		t.Errorf("text size = %d", NewText("abcd").SizeBytes())
	}
	arr := NewArray(NewInt(1), NewInt(2))
	if arr.SizeBytes() != 4+2*(1+8) {
		t.Errorf("array size = %d", arr.SizeBytes())
	}
}

func TestDatumString(t *testing.T) {
	cases := map[string]Datum{
		"NULL":  NewNull(Int),
		"42":    NewInt(42),
		"2.5":   NewFloat(2.5),
		"hello": NewText("hello"),
		"true":  NewBool(true),
		"{1,a}": NewArray(NewInt(1), NewText("a")),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", d, got, want)
		}
	}
}

func TestCommonNumeric(t *testing.T) {
	if CommonNumeric(Int, Int) != Int || CommonNumeric(Int, Float) != Float || CommonNumeric(Float, Int) != Float {
		t.Error("CommonNumeric")
	}
}
