package serial

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/twittergen"
)

// refSerialize and refAppendValue are the tree-walking record writer this
// package had before Encoder, kept as the reference the encoder's tests
// compare against: it mints IDs as it goes, so it also fixes the order
// intern has to reproduce.
func refSerialize(doc *jsonx.Doc, dict Dict) []byte {
	type entry struct {
		id  uint32
		val jsonx.Value
	}
	entries := make([]entry, 0, doc.Len())
	for _, m := range doc.Members() {
		if at, ok := AttrTypeOf(m.Val); ok {
			entries = append(entries, entry{id: dict.IDFor(m.Key, at), val: m.Val})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	var body []byte
	offsets := make([]uint32, len(entries))
	for i, e := range entries {
		offsets[i] = uint32(len(body))
		body = refAppendValue(body, e.val, dict)
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint32(out, e.id)
	}
	for _, off := range offsets {
		out = binary.LittleEndian.AppendUint32(out, off)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	return append(out, body...)
}

func refAppendValue(body []byte, v jsonx.Value, dict Dict) []byte {
	switch v.Kind {
	case jsonx.Bool:
		if v.B {
			return append(body, 1)
		}
		return append(body, 0)
	case jsonx.Int:
		return binary.LittleEndian.AppendUint64(body, uint64(v.I))
	case jsonx.Float:
		return binary.LittleEndian.AppendUint64(body, math.Float64bits(v.F))
	case jsonx.String:
		return append(body, v.S...)
	case jsonx.Object:
		return append(body, refSerialize(v.Obj, dict)...)
	case jsonx.Array:
		body = binary.LittleEndian.AppendUint32(body, uint32(len(v.A)))
		for _, e := range v.A {
			at, ok := AttrTypeOf(e)
			if !ok {
				body = append(body, 0xff, 0, 0, 0, 0)
				continue
			}
			elem := refAppendValue(nil, e, dict)
			body = append(body, byte(at))
			body = binary.LittleEndian.AppendUint32(body, uint32(len(elem)))
			body = append(body, elem...)
		}
		return body
	}
	panic("unreachable: null member")
}

// refLoad is what the loader did with one document before Encoder:
// serialize, then catalog the flattened attributes, minting their IDs in
// that order. The observations come back as "id value-bytes" strings,
// sorted.
func refLoad(doc *jsonx.Doc, dict Dict) (rec []byte, obs []string) {
	rec = refSerialize(doc, dict)
	for _, f := range jsonx.Flatten(doc) {
		if at, ok := AttrTypeOf(f.Val); ok {
			obs = append(obs, fmt.Sprintf("%d %x", dict.IDFor(f.Path, at), refAppendValue(nil, f.Val, dict)))
		}
	}
	sort.Strings(obs)
	return rec, obs
}

func observed(e *Encoder) []string {
	var obs []string
	for _, o := range e.Observations() {
		obs = append(obs, fmt.Sprintf("%d %x", o.ID, o.Val))
	}
	sort.Strings(obs)
	return obs
}

// keyCounter counts Key events and the widest object, to tell whether a
// line repeats a key (more events than the tree has members).
type keyCounter struct {
	keys, widest int
	open         []int
}

func (c *keyCounter) BeginObject() { c.open = append(c.open, 0) }
func (c *keyCounter) Key([]byte) {
	c.keys++
	c.open[len(c.open)-1]++
	c.widest = max(c.widest, c.open[len(c.open)-1])
}
func (c *keyCounter) EndObject()    { c.open = c.open[:len(c.open)-1] }
func (c *keyCounter) BeginArray()   {}
func (c *keyCounter) EndArray()     {}
func (c *keyCounter) Null()         {}
func (c *keyCounter) Bool(bool)     {}
func (c *keyCounter) Int(int64)     {}
func (c *keyCounter) Float(float64) {}
func (c *keyCounter) String([]byte) {}
func countMembers(v jsonx.Value) int {
	n := 0
	switch v.Kind {
	case jsonx.Array:
		for _, e := range v.A {
			n += countMembers(e)
		}
	case jsonx.Object:
		for _, m := range v.Obj.Members() {
			n += 1 + countMembers(m.Val)
		}
	}
	return n
}

// checkStreamMatchesTree is the property FuzzStreamLoadMatchesTree holds
// every line to. dict and ref start equal and must end equal.
func checkStreamMatchesTree(t *testing.T, line []byte, dict, ref *Dictionary) {
	t.Helper()
	doc, treeErr := jsonx.ParseDocument(line)
	enc := NewEncoder(dict, true)
	rec, err := enc.EncodeJSON(line)

	if treeErr != nil || err != nil {
		var want, got *jsonx.SyntaxError
		if !errors.As(treeErr, &want) || !errors.As(err, &got) {
			t.Fatalf("accept/reject differ: tree %v, one-pass %v", treeErr, err)
		}
		if *want != *got {
			t.Fatalf("syntax errors differ: tree %v, one-pass %v", want, got)
		}
		return
	}

	wantRec, wantObs := refLoad(doc, ref)
	if !bytes.Equal(rec, wantRec) {
		t.Fatalf("record differs on first sight\n got %x\nwant %x", rec, wantRec)
	}
	if got := observed(enc); !equalStrings(got, wantObs) {
		t.Fatalf("observations differ on first sight\n got %v\nwant %v", got, wantObs)
	}
	if got, want := dict.All(), ref.All(); !equalAttrs(got, want) {
		t.Fatalf("dictionaries differ\n got %v\nwant %v", got, want)
	}

	// Every attribute is known now, so the events alone must do — unless
	// the line repeats a key (a repeat the builder need not notice is one
	// that changes nothing: a null before the value), or an object is too
	// wide for the repeat probe and the builder may play safe.
	var kc keyCounter
	var sc jsonx.Scanner
	if err := sc.Scan(line, &kc); err != nil {
		t.Fatal(err)
	}
	repeats := kc.keys != countMembers(jsonx.ObjectValue(doc))
	enc.b.reset(true, true)
	if err := enc.sc.Scan(line, &enc.b); err != nil {
		t.Fatal(err)
	}
	switch {
	case !repeats && enc.b.bail && kc.widest <= maxDupScan:
		t.Fatalf("builder bailed out of a document with known attributes and no repeated key")
	case !enc.b.bail:
		if !bytes.Equal(enc.b.buf, wantRec) {
			t.Fatalf("one-pass record differs\n got %x\nwant %x", enc.b.buf, wantRec)
		}
		if got := observed(enc); !equalStrings(got, wantObs) {
			t.Fatalf("one-pass observations differ\n got %v\nwant %v", got, wantObs)
		}
	}
	again, err := enc.EncodeJSON(line)
	if err != nil || !bytes.Equal(again, wantRec) || !equalStrings(observed(enc), wantObs) {
		t.Fatalf("second encoding differs (%v)\n got %x\nwant %x", err, again, wantRec)
	}
	if dict.Len() != ref.Len() {
		t.Fatalf("re-encoding minted IDs: %d, want %d", dict.Len(), ref.Len())
	}
	checkObjectsRoundTrip(t, rec, TypeObject, dict)
	if dict.Len() != ref.Len() {
		t.Fatalf("the object round trip minted IDs: %d, want %d", dict.Len(), ref.Len())
	}
}

// checkObjectsRoundTrip holds every object value of an encoder-written
// value — the record, nested objects, objects inside arrays — to
// Serialize(Deserialize(bytes)) == bytes: the identity that lets an
// extracted object be its sub-record's byte range instead of a re-encoded
// tree.
func checkObjectsRoundTrip(t *testing.T, b []byte, typ AttrType, dict *Dictionary) {
	t.Helper()
	switch typ {
	case TypeObject:
		doc, err := Deserialize(b, dict)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Serialize(doc, dict)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("object bytes are not Serialize(Deserialize(bytes))\n got %x\nwant %x", again, b)
		}
		h, _ := parseHeader(b)
		for i := 0; i < h.n; i++ {
			attr, _ := dict.Lookup(h.aid(i))
			vb, _ := h.valueBytes(i)
			checkObjectsRoundTrip(t, vb, attr.Type, dict)
		}
	case TypeArray:
		it, err := newArrayIter(b)
		for k := 0; err == nil && k < it.n; k++ {
			var tag byte
			var eb []byte
			if tag, eb, err = it.next(); err == nil && tag != nullTag {
				checkObjectsRoundTrip(t, eb, AttrType(tag), dict)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	default:
	}
}

func equalStrings(a, b []string) bool {
	return strings.Join(a, "\n") == strings.Join(b, "\n") && len(a) == len(b)
}

func equalAttrs(a, b []Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// streamSeeds are the inputs the one-pass front end could plausibly get
// wrong; each runs against a fresh dictionary and against one warmed by all
// the others.
var streamSeeds = []string{
	`{}`,
	`{"a":1}`,
	`  {"a" : 1 , "b" : [ ] , "c" : { } }  `,
	`{"url":"www.sample-site.com","hits":22,"avg_site_visit":128.5,"country":"pl","ok":true}`,
	// Schema evolution mid-document: nested keys get their IDs after the
	// top level's, in ID order of their parents.
	`{"b":{"y":1,"x":{"q":[{"deep":1},{"deeper":{"z":null}}]}},"a":{"x":"s"}}`,
	`{"a":{"x":"s"},"b":{"y":2.5}}`,
	// An object inside an array is not cataloged; the keys after it in the
	// enclosing objects still are, under their own dotted paths.
	`{"a":{"arr":[{"x":1}],"b":2}}`,
	`{"x.b":7,"a":{"arr":[{"x":1}],"b":2},"c":3}`,
	`{"a":{"bb":{"arr":[[{"longer_than_the_prefix":{"y":[{"z":1}],"w":2}}]],"c":{"d":1}},"e":true},"f":1}`,
	`{"":{"arr":[{"x":1}],"b":2}}`,
	// Repeated keys: the last value wins, at the first position; an
	// earlier value of another type leaves no attribute behind.
	`{"a":1,"a":2}`,
	`{"a":1,"b":2,"a":"text"}`,
	`{"a":"text","b":2,"a":1}`,
	`{"a":1,"a":null}`,
	`{"a":null,"a":1}`,
	`{"o":{"k":1,"k":true},"o":{"k":2}}`,
	`{"arr":[{"k":1,"k":"s"}]}`,
	`{"o":{"k":1,"m":{"k":"s"}},"arr":[{"k":"s"},{"k":{"k":2.5}},[{"k":true}]]}`,
	`{"never":{"seen":1},"never":3}`,
	// A literal dotted key beside the nested path it spells.
	`{"a":{"b":1},"a.b":2}`,
	`{"a.b":2,"a":{"b":1}}`,
	// Strings.
	`{"":0,"e":""}`,
	`{"esc\"aped\\key\u0041":"line\nfeed\ttab\/slash\b\f\r"}`,
	`{"u":"\u00e9\u20ac\ud83d\ude00","lone":"\ud83d","lone2":"\ude00x","pair?":"\ud83dx"}`,
	`{"k":"caf\u00e9"}`,
	`{"k":"café"}`,
	// Numbers.
	`{"z":0,"nz":-0,"nzf":-0.0,"zf":0.0,"e":1e2,"E":1E-2,"big":9223372036854775807,"min":-9223372036854775808}`,
	`{"past":9223372036854775808,"pastneg":-9223372036854775809,"long":123456789012345678901234567890}`,
	`{"d18":999999999999999999,"d19":1000000000000000000}`,
	// Containers.
	`{"e":[],"o":{},"n":null,"arr":[null,1,"s",2.5,true,[],{},[[1]],{"n":null}]}`,
	`{"nested_arr":["a","b"],"nested_obj":{"str":"x","num":3},"sparse_001":"v"}`,
	// Rejections, each with its own offset.
	``,
	`   `,
	`[1,2]`,
	`"s"`,
	`[1,`,
	`{"a":1,}`,
	`{"a":1}{"b":2}`,
	`{"a":1} x`,
	`{"a":01}`,
	`{"a":-}`,
	`{"a":1.}`,
	`{"a":1e}`,
	`{"a":1e999}`,
	`{"a":"unterminated`,
	`{"a":"bad \q escape"}`,
	`{"a":"\u12g4"}`,
	"{\"a\":\"ctrl\x01\"}",
	`{"a":tru}`,
	`{a:1}`,
	`{"a" 1}`,
	"{\"a\":1}\u00a0",
	"\u0085{\"a\":1}",
}

func deepLine(depth int) string {
	return strings.Repeat(`{"d":`, depth) + `1` + strings.Repeat(`}`, depth)
}

func TestStreamMatchesTreeOnSeeds(t *testing.T) {
	seeds := append([]string{deepLine(513), deepLine(514), strings.Repeat("[", 600)}, streamSeeds...)
	warm, warmRef := NewDictionary(), NewDictionary()
	for _, s := range seeds {
		checkStreamMatchesTree(t, []byte(s), NewDictionary(), NewDictionary())
		checkStreamMatchesTree(t, []byte(s), warm, warmRef)
	}
	// A wide object whose keys are multi-typed sends the repeat probe past
	// its bound; the result must still be the tree's.
	wide := func(format string) []byte {
		var b strings.Builder
		b.WriteString(`{`)
		for i := 0; i < 3*maxDupScan; i++ {
			fmt.Fprintf(&b, format, i, i)
		}
		b.WriteString(`"last":null}`)
		return []byte(b.String())
	}
	for _, format := range []string{`"k%d":%d,`, `"k%d":"%d",`, `"k%d":%d,`} {
		checkStreamMatchesTree(t, wide(format), warm, warmRef)
	}
}

// TestStreamMatchesTreeOnCorpus runs the benchmark's two corpora, in load
// order over one dictionary, through the same property.
func TestStreamMatchesTreeOnCorpus(t *testing.T) {
	dict, ref := NewDictionary(), NewDictionary()
	docs := nobench.Generate(2000, 20140622)
	docs = append(docs, twittergen.GenerateTweets(1000, 20140622, twittergen.DefaultConfig(1000))...)
	for _, d := range docs {
		checkStreamMatchesTree(t, []byte(jsonx.ObjectValue(d).String()), dict, ref)
	}
}

// randomLine writes a document over a small alphabet of keys, so that
// dotted paths, literal dotted keys and keys inside arrays of objects
// collide with each other in the dictionary.
func randomLine(r *rand.Rand, b *strings.Builder, depth int) {
	keys := []string{"a", "b", "x", "a.b", "x.b", "a.x", ""}
	b.WriteByte('{')
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i, k := range keys[:r.Intn(len(keys))] {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%q:", k)
		switch n := r.Intn(8); {
		case n < 2 && depth > 0:
			randomLine(r, b, depth-1)
		case n < 4 && depth > 0:
			b.WriteByte('[')
			for j := r.Intn(3); j >= 0; j-- {
				randomLine(r, b, depth-1)
				if j > 0 {
					b.WriteByte(',')
				}
			}
			b.WriteByte(']')
		case n < 6:
			fmt.Fprint(b, r.Intn(3))
		case n < 7:
			b.WriteString(`"s"`)
		default:
			b.WriteString("null")
		}
	}
	b.WriteByte('}')
}

// TestStreamMatchesTreeOnRandomShapes runs generated documents over one
// growing dictionary: most meet attributes an earlier, differently nested
// document minted, which a fresh dictionary per input never shows.
func TestStreamMatchesTreeOnRandomShapes(t *testing.T) {
	r := rand.New(rand.NewSource(20140622))
	dict, ref := NewDictionary(), NewDictionary()
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		randomLine(r, &b, 4)
		checkStreamMatchesTree(t, []byte(b.String()), dict, ref)
	}
}

// FuzzStreamLoadMatchesTree: for any input line, the one-pass front end
// (scanner events straight into the record builder) and the tree path
// (ParseDocument, then the reference tree serializer and flattener) agree
// on accept/reject, on the SyntaxError, on the record bytes, on the
// observed (attribute, value) set and on the dictionary they leave behind;
// and every object value of the record re-encodes to its own bytes.
func FuzzStreamLoadMatchesTree(f *testing.F) {
	for _, s := range streamSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(deepLine(513)))
	f.Add([]byte(deepLine(514)))
	f.Fuzz(func(t *testing.T, line []byte) {
		checkStreamMatchesTree(t, line, NewDictionary(), NewDictionary())
	})
}

// TestSerializeMatchesReference holds Serialize — the tree walk into the
// same builder — to the reference writer, dictionary included.
func TestSerializeMatchesReference(t *testing.T) {
	dict, ref := NewDictionary(), NewDictionary()
	for _, s := range streamSeeds {
		doc, err := jsonx.ParseDocument([]byte(s))
		if err != nil {
			continue
		}
		got, err := Serialize(doc, dict)
		if err != nil {
			t.Fatal(err)
		}
		if want := refSerialize(doc, ref); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %x\nwant %x", s, got, want)
		}
		if !equalAttrs(dict.All(), ref.All()) {
			t.Fatalf("%s: dictionaries differ\n got %v\nwant %v", s, dict.All(), ref.All())
		}
	}
}

// TestDeleteAttrsMatchesTreeRoundTrip: splicing top-level attributes out of
// a record equals decoding it, deleting the keys and re-encoding.
func TestDeleteAttrsMatchesTreeRoundTrip(t *testing.T) {
	dict := NewDictionary()
	docs := nobench.Generate(500, 7)
	docs = append(docs, twittergen.GenerateTweets(300, 7, twittergen.DefaultConfig(300))...)
	for _, s := range []string{
		`{"a":{"b":{"c":[1,{"d":2}]}},"arr":[[1],[2,3]],"s":"x","n":1,"o":{}}`,
		`{"only":1}`,
		`{}`,
	} {
		d, err := jsonx.ParseDocument([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	for di, d := range docs {
		rec, err := Serialize(d, dict)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := AttrIDs(rec)
		if err != nil {
			t.Fatal(err)
		}
		// Every third attribute, all of them, one the record lacks.
		var third []uint32
		for i := di % 3; i < len(ids); i += 3 {
			third = append(third, ids[i])
		}
		for _, drop := range [][]uint32{third, ids, {uint32(dict.Len()) + 5}, nil} {
			got, err := DeleteAttrs(rec, drop...)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := Deserialize(rec, dict)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range drop {
				if a, ok := dict.Lookup(id); ok {
					doc.Delete(a.Key)
				}
			}
			want := refSerialize(doc, dict)
			if !bytes.Equal(got, want) {
				t.Fatalf("doc %d drop %v:\n got %x\nwant %x", di, drop, got, want)
			}
			if len(drop) == 0 || drop[0] >= uint32(dict.Len()) {
				if &got[0] != &rec[0] {
					t.Fatalf("doc %d: nothing to delete, yet the record was copied", di)
				}
			}
		}
	}
	if _, err := DeleteAttrs([]byte{9, 0, 0, 0}, 1); err == nil {
		t.Error("truncated header: want an error")
	}
}

// TestInsertMatchesTreeRoundTrip holds Insert's splice to what it replaced:
// deserialize the record, set the key in the document, serialize again. A
// value of the key under another type goes, a null value only deletes, a
// nested object or an array is encoded as the tree walk encodes it, and an
// empty or missing record is the empty document.
func TestInsertMatchesTreeRoundTrip(t *testing.T) {
	dict := NewDictionary()
	docs := nobench.Generate(200, 11)
	docs = append(docs, twittergen.GenerateTweets(100, 11, twittergen.DefaultConfig(100))...)
	for _, s := range []string{
		`{"a":{"b":{"c":[1,{"d":2}]}},"arr":[[1],[2,3]],"s":"x","n":1,"o":{}}`,
		`{"only":1}`,
		`{}`,
	} {
		d, err := jsonx.ParseDocument([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	newcomers := []jsonx.Value{
		jsonx.StringValue("swapped"), jsonx.IntValue(-3), jsonx.NullValue(),
		jsonx.ArrayValue(jsonx.IntValue(1), jsonx.NullValue(), jsonx.StringValue("")),
	}
	check := func(label string, rec []byte, doc *jsonx.Doc, key string, v jsonx.Value) {
		t.Helper()
		at, typed := AttrTypeOf(v)
		if !typed {
			at = TypeString // a null deletes the key whatever the attribute
		}
		got, err := Insert(rec, dict.IDFor(key, at), v, dict)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := shallowCopy(doc)
		want.Set(key, v)
		if w := refSerialize(want, dict); !bytes.Equal(got, w) {
			t.Fatalf("%s: set %s = %v:\n got %x\nwant %x", label, key, v, got, w)
		}
	}
	for di, d := range docs {
		rec, err := Serialize(d, dict)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("doc %d", di)
		for ki, m := range d.Members() {
			// The member's own value back into the record without it ...
			less := shallowCopy(d)
			less.Delete(m.Key)
			check(label, refSerialize(less, dict), less, m.Key, m.Val)
			// ... and another value, often of another type, over it.
			check(label, rec, d, m.Key, newcomers[(di+ki)%len(newcomers)])
		}
		check(label, rec, d, "never_seen_key", jsonx.ObjectValue(d))
	}
	check("nil record", nil, jsonx.NewDoc(), "k", jsonx.IntValue(1))
	if _, err := Insert([]byte{9, 0, 0, 0}, dict.IDFor("k", TypeInt), jsonx.IntValue(1), dict); err == nil {
		t.Error("truncated header: want an error")
	}
	if _, err := Insert(nil, uint32(dict.Len())+7, jsonx.IntValue(1), dict); err == nil {
		t.Error("an ID the dictionary lacks: want an error")
	}
}

// shallowCopy returns a document with d's members (the values are shared).
func shallowCopy(d *jsonx.Doc) *jsonx.Doc {
	out := jsonx.NewDoc()
	for _, m := range d.Members() {
		out.Set(m.Key, m.Val)
	}
	return out
}
