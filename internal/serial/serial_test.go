package serial

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sinewdata/sinew/internal/jsonx"
)

func doc(t *testing.T, s string) *jsonx.Doc {
	t.Helper()
	d, err := jsonx.ParseDocument([]byte(s))
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return d
}

func TestSerializeRoundTrip(t *testing.T) {
	dict := NewDictionary()
	in := doc(t, `{"url":"www.x.com","hits":22,"avg":128.5,"ok":true,"user":{"id":7,"lang":"en"},"tags":[1,"a",null,false]}`)
	data, err := Serialize(in, dict)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Deserialize(data, dict)
	if err != nil {
		t.Fatal(err)
	}
	if !jsonx.ObjectValue(in).Equal(jsonx.ObjectValue(out)) {
		t.Errorf("round trip mismatch:\n in=%v\nout=%v", jsonx.ObjectValue(in), jsonx.ObjectValue(out))
	}
}

func TestNullKeysAbsent(t *testing.T) {
	dict := NewDictionary()
	in := doc(t, `{"a":1,"b":null}`)
	data, err := Serialize(in, dict)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := Deserialize(data, dict)
	if out.Has("b") {
		t.Error("null-valued key should be absent from the record")
	}
	if !out.Has("a") {
		t.Error("a missing")
	}
}

func TestExtractByID(t *testing.T) {
	dict := NewDictionary()
	in := doc(t, `{"x":5,"y":"str","z":2.5}`)
	data, _ := Serialize(in, dict)
	id, ok := dict.IDOf("y", TypeString)
	if !ok {
		t.Fatal("y not in dict")
	}
	v, found, err := ExtractByID(data, id, dict)
	if err != nil || !found || v.S != "str" {
		t.Fatalf("extract y = %v %v %v", v, found, err)
	}
	// Absent ID.
	if _, found, _ := ExtractByID(data, 9999, dict); found {
		t.Error("bogus ID found")
	}
}

func TestExtractPathNested(t *testing.T) {
	dict := NewDictionary()
	in := doc(t, `{"user":{"id":7,"geo":{"lat":1.5,"city":"nyc"}},"id":1}`)
	data, _ := Serialize(in, dict)

	v, found, err := ExtractPath(data, "user.id", TypeInt, dict)
	if err != nil || !found || v.I != 7 {
		t.Fatalf("user.id = %v %v %v", v, found, err)
	}
	v, found, _ = ExtractPath(data, "user.geo.city", TypeString, dict)
	if !found || v.S != "nyc" {
		t.Fatalf("user.geo.city = %v %v", v, found)
	}
	// Whole nested object remains referenceable (paper §3.1.1).
	v, found, _ = ExtractPath(data, "user.geo", TypeObject, dict)
	if !found || v.Kind != jsonx.Object {
		t.Fatalf("user.geo = %v %v", v, found)
	}
	if _, found, _ := ExtractPath(data, "user.nope", TypeInt, dict); found {
		t.Error("user.nope should be absent")
	}
}

func TestExtractTypeSelective(t *testing.T) {
	dict := NewDictionary()
	// Two records where the same key has different types (dyn1 in NoBench).
	d1, _ := Serialize(doc(t, `{"dyn1":42}`), dict)
	d2, _ := Serialize(doc(t, `{"dyn1":"forty-two"}`), dict)

	if v, found, _ := ExtractPath(d1, "dyn1", TypeInt, dict); !found || v.I != 42 {
		t.Errorf("int extraction from int record: %v %v", v, found)
	}
	if _, found, _ := ExtractPath(d2, "dyn1", TypeInt, dict); found {
		t.Error("int extraction from string record must return absent (NULL), not error")
	}
	if v, found, _ := ExtractPath(d2, "dyn1", TypeString, dict); !found || v.S != "forty-two" {
		t.Errorf("string extraction: %v %v", v, found)
	}
}

func TestHas(t *testing.T) {
	dict := NewDictionary()
	data, _ := Serialize(doc(t, `{"sparse_1":"v"}`), dict)
	id, _ := dict.IDOf("sparse_1", TypeString)
	if ok, _ := Has(data, id); !ok {
		t.Error("Has should find sparse_1")
	}
	if ok, _ := Has(data, id+100); ok {
		t.Error("Has found absent attribute")
	}
}

func TestRemoveAndInsert(t *testing.T) {
	dict := NewDictionary()
	in := doc(t, `{"a":1,"b":"bee","c":3.5}`)
	data, _ := Serialize(in, dict)
	idB, _ := dict.IDOf("b", TypeString)

	smaller, err := DeleteAttrs(data, idB)
	if err != nil || len(smaller) >= len(data) {
		t.Fatalf("DeleteAttrs removed nothing: %d -> %d bytes (%v)", len(data), len(smaller), err)
	}
	if _, found, _ := ExtractByID(smaller, idB, dict); found {
		t.Error("b still present after DeleteAttrs")
	}
	if v, found, _ := ExtractPath(smaller, "a", TypeInt, dict); !found || v.I != 1 {
		t.Errorf("a damaged by DeleteAttrs: %v %v", v, found)
	}
	if v, found, _ := ExtractPath(smaller, "c", TypeFloat, dict); !found || v.F != 3.5 {
		t.Errorf("c damaged by DeleteAttrs: %v %v", v, found)
	}
	// Remove of absent attribute is a no-op.
	if same, _ := DeleteAttrs(smaller, idB); len(same) != len(smaller) {
		t.Error("second delete should be a no-op")
	}

	back, err := Insert(smaller, idB, jsonx.StringValue("bee"), dict)
	if err != nil {
		t.Fatal(err)
	}
	if v, found, _ := ExtractByID(back, idB, dict); !found || v.S != "bee" {
		t.Errorf("b after Insert = %v %v", v, found)
	}
}

func TestAttrIDsSorted(t *testing.T) {
	dict := NewDictionary()
	// Allocate in a scrambled order across two docs.
	_, _ = Serialize(doc(t, `{"z":1,"m":2,"a":3}`), dict)
	data, _ := Serialize(doc(t, `{"a":3,"z":1,"m":2}`), dict)
	ids, err := AttrIDs(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not sorted: %v", ids)
		}
	}
}

func TestDictionaryConcurrent(t *testing.T) {
	dict := NewDictionary()
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 500; i++ {
				dict.IDFor("key", TypeString)
				dict.IDFor("other", TypeInt)
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if dict.Len() != 2 {
		t.Errorf("dict len = %d, want 2", dict.Len())
	}
}

func TestDictionaryIDsOfKey(t *testing.T) {
	dict := NewDictionary()
	dict.IDFor("dyn1", TypeString)
	dict.IDFor("other", TypeInt)
	dict.IDFor("dyn1", TypeInt)
	dict.IDFor("dyn1", TypeBool)
	attrs := dict.IDsOfKey("dyn1")
	if len(attrs) != 3 {
		t.Fatalf("attrs = %v", attrs)
	}
}

func TestCorruptRecords(t *testing.T) {
	dict := NewDictionary()
	data, _ := Serialize(mustDocT(t, `{"a":1}`), dict)
	for cut := 0; cut < len(data); cut++ {
		// Truncations must error, never panic.
		_, _ = Deserialize(data[:cut], dict)
	}
	if _, err := Deserialize([]byte{}, dict); err == nil {
		t.Error("empty record should error")
	}
}

func mustDocT(t *testing.T, s string) *jsonx.Doc { return doc(t, s) }

func TestPropertySerializeRoundTrip(t *testing.T) {
	dict := NewDictionary()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := jsonx.NewDoc()
		keys := []string{"a", "b", "c", "dd", "ee", "sparse_1", "nested"}
		for _, k := range keys {
			if r.Intn(2) == 0 {
				continue
			}
			switch r.Intn(5) {
			case 0:
				d.Set(k, jsonx.IntValue(r.Int63()-r.Int63()))
			case 1:
				d.Set(k, jsonx.FloatValue(r.NormFloat64()))
			case 2:
				d.Set(k, jsonx.StringValue(randString(r)))
			case 3:
				d.Set(k, jsonx.BoolValue(r.Intn(2) == 0))
			case 4:
				sub := jsonx.NewDoc()
				sub.Set("x", jsonx.IntValue(int64(r.Intn(100))))
				d.Set(k, jsonx.ObjectValue(sub))
			}
		}
		data, err := Serialize(d, dict)
		if err != nil {
			return false
		}
		out, err := Deserialize(data, dict)
		if err != nil {
			return false
		}
		return jsonx.ObjectValue(d).Equal(jsonx.ObjectValue(out))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func randString(r *rand.Rand) string {
	b := make([]byte, r.Intn(24))
	for i := range b {
		b[i] = byte(32 + r.Intn(90))
	}
	return string(b)
}
