package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/serial"
)

func newCollection(t *testing.T, name string, opts ...CollectionOptions) *DB {
	t.Helper()
	db := Open(DefaultConfig())
	if err := db.CreateCollection(name, opts...); err != nil {
		t.Fatal(err)
	}
	return db
}

// catalogCounts renders the statistics a load moves.
func catalogCounts(db *DB, table string) string {
	tc, _ := db.Catalog().Lookup(table)
	var b strings.Builder
	fmt.Fprintf(&b, "docs=%d", tc.DocCount())
	for _, c := range tc.Columns() {
		fmt.Fprintf(&b, " %s/%s=%d~%d", c.Key, c.Type, c.Count, c.Cardinality())
	}
	return b.String()
}

func countRows(t *testing.T, db *DB, table string) int64 {
	t.Helper()
	res, err := db.Query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].I
}

// TestLoadJSONLinesAllOrNothing: a syntax error on line k inserts no row
// and moves no catalog count, whichever way the collection loads.
func TestLoadJSONLinesAllOrNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []CollectionOptions
	}{
		{"one-pass", nil},
		{"tree", []CollectionOptions{{ArrayModes: map[string]ArrayMode{"tags": ArrayPositional}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := newCollection(t, "c", tc.opts...)
			if _, err := db.LoadJSONLines("c", strings.NewReader(`{"a":1,"tags":["x"]}`+"\n")); err != nil {
				t.Fatal(err)
			}
			before := catalogCounts(db, "c")
			_, err := db.LoadJSONLines("c", strings.NewReader(
				`{"a":2,"brand_new":{"k":true}}`+"\n\n"+`{"a":3,"tags":["y"]}`+"\n"+`{"a":4,`+"\n"+`{"a":5}`+"\n"))
			var syn *jsonx.SyntaxError
			if !errors.As(err, &syn) || !strings.HasPrefix(err.Error(), "core: line 4: ") {
				t.Fatalf("err = %v, want a syntax error on line 4", err)
			}
			if got := catalogCounts(db, "c"); got != before {
				t.Errorf("catalog moved:\n got %s\nwant %s", got, before)
			}
			if n := countRows(t, db, "c"); n != 1 {
				t.Errorf("%d rows, want 1", n)
			}
			// The next load numbers its rows as if the failed one never ran.
			if _, err := db.LoadJSONLines("c", strings.NewReader(`{"a":6}`)); err != nil {
				t.Fatal(err)
			}
			res, err := db.Query(`SELECT _id FROM c WHERE a = 6`)
			if err != nil || len(res.Rows) != 1 {
				t.Fatalf("%v %v", res, err)
			}
			if res.Rows[0][0].I != 1 {
				t.Errorf("_id = %d, want 1", res.Rows[0][0].I)
			}
		})
	}
}

func TestLoadJSONLinesLineTooLong(t *testing.T) {
	db := newCollection(t, "c")
	var in bytes.Buffer
	in.WriteString(`{"a":1}` + "\n" + `{"pad":"`)
	in.Write(bytes.Repeat([]byte("x"), maxLineBytes))
	in.WriteString(`"}` + "\n")
	_, err := db.LoadJSONLines("c", &in)
	want := fmt.Sprintf("core: line 2: document exceeds %d bytes", maxLineBytes)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if n := countRows(t, db, "c"); n != 0 {
		t.Errorf("%d rows, want 0", n)
	}
}

// TestLoadJSONLinesTrimsOnlyJSONSpace: U+0085 and U+00A0 are Unicode
// spaces, not JSON whitespace.
func TestLoadJSONLinesTrimsOnlyJSONSpace(t *testing.T) {
	db := newCollection(t, "c")
	if res, err := db.LoadJSONLines("c", strings.NewReader(" \t{\"a\":1}\r\n\r\n \t \n{\"a\":2} \t")); err != nil || res.Documents != 2 {
		t.Fatalf("JSON whitespace around documents: %v %v", res, err)
	}
	for _, line := range []string{"{\"a\":1}\u00a0", "\u0085{\"a\":1}", "\u00a0"} {
		_, err := db.LoadJSONLines("c", strings.NewReader(line))
		var syn *jsonx.SyntaxError
		if !errors.As(err, &syn) {
			t.Errorf("%q: err = %v, want a syntax error", line, err)
		}
	}
}

// TestLoadCountsDottedTwinOnce: a document holding both a nested a: {b: …}
// and a literal top-level key "a.b" of the same type is one occurrence of
// the column a.b.
func TestLoadCountsDottedTwinOnce(t *testing.T) {
	lines := `{"a":{"b":1},"a.b":2}` + "\n" + `{"a.b":3,"a":{"b":4}}` + "\n" + `{"a":{"b":5}}` + "\n"
	for _, load := range []struct {
		name string
		fn   func(db *DB) error
	}{
		{"LoadJSONLines", func(db *DB) error {
			_, err := db.LoadJSONLines("c", strings.NewReader(lines))
			return err
		}},
		{"LoadDocuments", func(db *DB) error {
			_, err := db.LoadDocuments("c", mustDocs(t, strings.Split(strings.TrimSpace(lines), "\n")...))
			return err
		}},
	} {
		t.Run(load.name, func(t *testing.T) {
			db := newCollection(t, "c")
			if err := load.fn(db); err != nil {
				t.Fatal(err)
			}
			tc, _ := db.Catalog().Lookup("c")
			for _, c := range tc.ColumnsByKey("a.b") {
				if c.Type == serial.TypeInt && c.Count != 3 {
					t.Errorf("a.b counted %d times in %d documents", c.Count, tc.DocCount())
				}
			}
			for _, c := range tc.Columns() {
				if c.Count > tc.DocCount() {
					t.Errorf("%s: count %d exceeds %d documents", c.Key, c.Count, tc.DocCount())
				}
			}
		})
	}
}

// TestLoadPathsAgree: the same lines through the one-pass path, the tree
// path (a collection whose options need the document) and LoadDocuments
// leave the same rows and the same catalog.
func TestLoadPathsAgree(t *testing.T) {
	lines := []string{
		`{"id":1,"user":{"id":7,"geo":{"city":"nyc"}},"tags":["a","b"],"n":null}`,
		`{"id":2,"id":"two","user":{"id":8},"tags":[]}`,
		`{"id":3,"user":{"id":9,"geo":{"city":"sfo","zip":94110}},"extra":{"deep":{"er":[1,{"k":2}]}}}`,
		`{"id":4,"user.id":10,"user":{"id":11}}`,
	}
	input := strings.Join(lines, "\n")
	render := func(db *DB) string {
		t.Helper()
		res, err := db.Query(`SELECT _id, data FROM c`)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range res.Rows {
			fmt.Fprintf(&b, "%d %x\n", r[0].I, r[1].Bytes())
		}
		for _, a := range db.Catalog().Dict().All() {
			fmt.Fprintf(&b, "%d %s %s\n", a.ID, a.Key, a.Type)
		}
		return b.String() + catalogCounts(db, "c")
	}

	onePass := newCollection(t, "c")
	if _, err := onePass.LoadJSONLines("c", strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	want := render(onePass)

	// An array mode on a key no document has: the tree path, nothing else.
	tree := newCollection(t, "c", CollectionOptions{ArrayModes: map[string]ArrayMode{"absent": ArrayPositional}})
	if _, err := tree.LoadJSONLines("c", strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if got := render(tree); got != want {
		t.Errorf("tree path differs:\n got %s\nwant %s", got, want)
	}

	docs := newCollection(t, "c")
	if _, err := docs.LoadDocuments("c", mustDocs(t, lines...)); err != nil {
		t.Fatal(err)
	}
	if got := render(docs); got != want {
		t.Errorf("LoadDocuments differs:\n got %s\nwant %s", got, want)
	}
}

// TestLoadCatalogsKeysAfterArrayOfObjects: an object inside an array is not
// cataloged, and the keys that follow the array in its enclosing objects
// are — under their own dotted paths, whatever the dictionary already holds.
// The expectation comes from jsonx.Flatten, not from another load path. The
// second load finds every attribute known, so it runs on events alone.
func TestLoadCatalogsKeysAfterArrayOfObjects(t *testing.T) {
	lines := []string{
		`{"x.b":7}`, // what a clobbered path prefix would resolve a.b to
		`{"a":{"arr":[{"x":1}],"b":2}}`,
		`{"a":{"bb":{"arr":[[{"longer_than_the_prefix":{"y":[{"z":1}],"w":2}}]],"c":{"d":1}},"b":3},"f":1}`,
	}
	want := map[string]int64{}
	for _, d := range mustDocs(t, lines...) {
		seen := map[string]bool{}
		for _, f := range jsonx.Flatten(d) {
			if typ, ok := serial.AttrTypeOf(f.Val); ok && !seen[f.Path+"/"+typ.String()] {
				seen[f.Path+"/"+typ.String()] = true
				want[f.Path+"/"+typ.String()]++
			}
		}
	}
	db := newCollection(t, "c")
	for round := int64(1); round <= 2; round++ {
		if _, err := db.LoadJSONLines("c", strings.NewReader(strings.Join(lines, "\n"))); err != nil {
			t.Fatal(err)
		}
		tc, _ := db.Catalog().Lookup("c")
		got := map[string]int64{}
		for _, c := range tc.Columns() {
			got[c.Key+"/"+c.Type.String()] = c.Count
		}
		if len(got) != len(want) {
			t.Errorf("round %d: cataloged %v, want the keys of %v", round, got, want)
		}
		for k, n := range want {
			if got[k] != n*round {
				t.Errorf("round %d: %s counted %d, want %d", round, k, got[k], n*round)
			}
		}
	}
}

// TestLoadJSONLinesConcurrent: calls on one collection encode side by side
// (only the publish step takes the latch), minting attributes as they go;
// every document and every occurrence must still be counted exactly once.
func TestLoadJSONLinesConcurrent(t *testing.T) {
	db := newCollection(t, "c")
	const loaders, batches, size = 4, 6, 50
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var in strings.Builder
				for i := 0; i < size; i++ {
					fmt.Fprintf(&in, "{\"all\":%d,\"loader_%d\":{\"batch_%d\":\"v%d\"}}\n", i, l, b, i%7)
				}
				if res, err := db.LoadJSONLines("c", strings.NewReader(in.String())); err != nil || res.Documents != size {
					t.Errorf("loader %d batch %d: %v %v", l, b, res, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	tc, _ := db.Catalog().Lookup("c")
	if tc.DocCount() != loaders*batches*size {
		t.Fatalf("%d documents, want %d", tc.DocCount(), loaders*batches*size)
	}
	want := map[string]int64{"all": loaders * batches * size}
	for l := 0; l < loaders; l++ {
		want[fmt.Sprintf("loader_%d", l)] = batches * size
		for b := 0; b < batches; b++ {
			want[fmt.Sprintf("loader_%d.batch_%d", l, b)] = size
		}
	}
	cols := tc.Columns()
	if len(cols) != len(want) {
		t.Errorf("%d columns, want %d", len(cols), len(want))
	}
	for _, c := range cols {
		if c.Count != want[c.Key] {
			t.Errorf("%s: count %d, want %d", c.Key, c.Count, want[c.Key])
		}
	}
	res, err := db.Query(`SELECT COUNT(*), COUNT(DISTINCT _id), COUNT("loader_2.batch_3") FROM c`)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Rows[0]; r[0].I != loaders*batches*size || r[1].I != r[0].I || r[2].I != size {
		t.Errorf("rows %v", r)
	}
}
