package serial

import (
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// TestExtractDatumPaths pins ExtractDatum's answers over the lookup's
// steps: literal keys, nested descents, §4.2 positions into arrays of
// objects and arrays, the untyped probe, and an object holding one key
// under two types, where a position resolves the key as the decoded
// object does (its last attribute in record order).
func TestExtractDatumPaths(t *testing.T) {
	data, dict := buildTestRecord(t)
	rich := richRecords(t, dict)
	for _, c := range []struct {
		rec  []byte
		path string
		want AttrType
		out  string // Datum.String; "NULL" when absent
	}{
		{data, "s", TypeString, "hello"},
		{data, "s", TypeInt, "NULL"},
		{data, "o.n", TypeInt, "7"},
		{data, "a", TypeArray, "{1,two,NULL,3.5}"},
		{data, "a.1", TypeString, "two"},
		{data, "a.2", TypeAny, "NULL"},
		{data, "a.3", TypeAny, "3.5"},
		{data, "o", TypeAny, `{"x":"y","n":7}`},
		{data, "s", TypeAny, `"hello"`},
		{rich[0], "arr.1.k", TypeString, "s"},
		{rich[0], "arr.1.k", TypeInt, "NULL"},
		{rich[0], "arr.1.m.k", TypeBool, "true"},
		{rich[0], "arr.3.0.k", TypeFloat, "2.5"},
		{rich[0], "arr.2.k", TypeAny, "NULL"},
		{rich[0], "o.k", TypeInt, "1"},
		{rich[1], "o.k", TypeString, "text"},
		{rich[1], "o.k", TypeInt, "NULL"},
		{rich[1], "o.n.k.1.k", TypeInt, "2"},
		{rich[1], "arr.0.k", TypeArray, "{1,2}"},
		{rich[1], "arr.1.k.k", TypeInt, "3"},
		{rich[2], "o.k", TypeInt, "7"},
		{rich[2], "o.k", TypeString, "seven"},
		{rich[2], "arr.0.k", TypeString, "seven"},
		{rich[2], "arr.0.k", TypeInt, "NULL"},
	} {
		d, err := ExtractDatum(c.rec, c.path, c.want, dict)
		if err != nil {
			t.Fatalf("%s %v: %v", c.path, c.want, err)
		}
		if d.String() != c.out || d.Typ != DatumType(c.want) {
			t.Errorf("%s %v = %v (%v), want %s (%v)", c.path, c.want, d, d.Typ, c.out, DatumType(c.want))
		}
	}
}

// TestExtractDatumAllocs: a scalar, a text and an object extraction decode
// into the datum without allocating — text and objects alias the record —
// and an array allocates its one element slice.
func TestExtractDatumAllocs(t *testing.T) {
	data, dict := buildTestRecord(t)
	for _, c := range []struct {
		path   string
		want   AttrType
		allocs float64
	}{
		{"i", TypeInt, 0},
		{"f", TypeFloat, 0},
		{"b", TypeBool, 0},
		{"s", TypeString, 0},
		{"o", TypeObject, 0},
		{"o.x", TypeString, 0},
		{"a", TypeArray, 1},
	} {
		var d types.Datum
		got := testing.AllocsPerRun(100, func() {
			var err error
			if d, err = ExtractDatum(data, c.path, c.want, dict); err != nil || d.IsNull() {
				t.Fatalf("%s: %v %v", c.path, d, err)
			}
		})
		if got != c.allocs {
			t.Errorf("ExtractDatum(%s, %v) allocates %v per call, want %v", c.path, c.want, got, c.allocs)
		}
	}
}
