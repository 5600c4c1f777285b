package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// loadNamed creates collection c with n documents: a text key with ten
// distinct values, a per-row note, a nested object and a nested array.
func loadNamed(t *testing.T, db *DB, n int) {
	t.Helper()
	if err := db.CreateCollection("c"); err != nil {
		t.Fatal(err)
	}
	var lines bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&lines, `{"name":"name-%d","note":"note-%d","obj":{"a":%d,"s":"s%d"},"tags":["t%d",["u%d"]]}`+"\n", i%10, i, i, i, i, i)
	}
	if _, err := db.LoadJSONLines("c", &lines); err != nil {
		t.Fatal(err)
	}
}

// TestVirtualProjectionAllocsFlat: extracting a virtual key decodes
// straight into a datum that aliases the record, so a grouped projection
// over a never-frozen table allocates per batch and per group, not per
// row — four times the rows may add only the three extra batches' worth.
func TestVirtualProjectionAllocsFlat(t *testing.T) {
	const q = `SELECT name, COUNT(*) FROM c GROUP BY name`
	allocs := func(n int) float64 {
		db := Open(DefaultConfig())
		loadNamed(t, db, n)
		heap, _, err := db.RDBMS().Table("c")
		if err != nil {
			t.Fatal(err)
		}
		if heap.NumFrozenPages() != 0 {
			t.Fatalf("%d rows: %d frozen pages, want a never-frozen table", n, heap.NumFrozenPages())
		}
		return testing.AllocsPerRun(5, func() {
			res, err := db.Query(q)
			if err != nil || len(res.Rows) != 10 {
				t.Fatalf("%s: %d rows, %v", q, len(res.Rows), err)
			}
		})
	}
	small, large := allocs(1000), allocs(4000)
	t.Logf("%s: %v allocs at 1000 rows, %v at 4000", q, small, large)
	if large-small > 30 {
		t.Errorf("%s allocates %v at 1000 rows and %v at 4000: %.2f more per added row", q, small, large, (large-small)/3000)
	}
}

// heldValue is an extracted datum kept past its statement, with a copy of
// the bytes it had then.
type heldValue struct {
	d    types.Datum
	want []byte
}

func holdValues(t *testing.T, db *DB, sql string) []heldValue {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	var held []heldValue
	for _, row := range res.Rows {
		for _, d := range row {
			switch {
			case d.IsNull():
			case d.Typ == types.Text:
				held = append(held, heldValue{d, []byte(d.Text())})
			case d.Typ == types.Bytes:
				held = append(held, heldValue{d, bytes.Clone(d.Bytes())})
			}
		}
	}
	if len(held) == 0 {
		t.Fatalf("%s: no values to hold", sql)
	}
	return held
}

func checkHeld(t *testing.T, label string, held []heldValue) {
	t.Helper()
	for i, h := range held {
		got := h.d.Bytes()
		if h.d.Typ == types.Text {
			got = []byte(h.d.Text())
		}
		if !bytes.Equal(got, h.want) {
			t.Fatalf("%s: held value %d changed from %q to %q", label, i, h.want, got)
		}
	}
}

// TestExtractedValuesSurviveWriters holds text and sinew_extract_doc
// values that alias row-form records and frozen segments — through the
// striped kernel, the fused row kernel and the UDFs' row Eval — while UPDATEs
// rewrite those rows and a materializer pass moves their keys out. Pages
// are copy-on-write, so the held bytes must never change; under -race a
// write into them is a reported race besides.
func TestExtractedValuesSurviveWriters(t *testing.T) {
	db := Open(DefaultConfig())
	loadNamed(t, db, 600)
	if err := db.RDBMS().Analyze("c"); err != nil {
		t.Fatal(err)
	}
	heap, _, err := db.RDBMS().Table("c")
	if err != nil {
		t.Fatal(err)
	}
	if heap.NumFrozenPages() == 0 || heap.NumFrozenPages()*storage.PageCapacity >= 600 {
		t.Fatalf("%d frozen pages: want frozen pages and a row-form tail", heap.NumFrozenPages())
	}
	var held []heldValue
	for _, q := range []string{
		// Fused: the striped kernel on frozen pages, the row kernel on the
		// row-form tail.
		`SELECT name, obj FROM c`,
		// Not fused under COALESCE: the extraction UDFs' row Eval.
		`SELECT COALESCE(note, 'none'), COALESCE(obj, NULL) FROM c WHERE _id % 3 = 0`,
	} {
		held = append(held, holdValues(t, db, q)...)
	}
	checkHeld(t, "before", held)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for id := 0; id < 600; id += 7 {
			sql := fmt.Sprintf(`UPDATE c SET note = 'changed-%d', obj = NULL WHERE _id = %d`, id, id)
			if _, err := db.Query(sql); err != nil {
				errs <- fmt.Errorf("%s: %w", sql, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, key := range []string{"name", "obj", "note"} {
			if err := db.SetMaterialized("c", key, true); err != nil {
				errs <- err
				return
			}
			if _, err := NewMaterializer(db).RunOnce("c"); err != nil {
				errs <- err
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		checkHeld(t, "during", held)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkHeld(t, "after", held)
}

// TestStoredValuesOwnTheirBytes: the two places an extracted value is
// written into a heap — a materializer pass and UPDATE's SET — store a
// copy, so no stored text, array elements included, shares memory with the
// record it came from
// (an alias would pin the replaced record, or a whole frozen segment).
func TestStoredValuesOwnTheirBytes(t *testing.T) {
	db := Open(DefaultConfig())
	loadNamed(t, db, 300)
	if err := db.RDBMS().Analyze("c"); err != nil {
		t.Fatal(err)
	}
	var sources [][]byte
	scan := func(fn func(row storage.Row, schema *storage.Schema)) {
		t.Helper()
		schema, _ := db.rdb.TableSchema("c")
		if err := db.rdb.ScanTable("c", func(_ storage.RowID, row storage.Row) bool {
			fn(row, schema)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	collect := func() {
		scan(func(row storage.Row, schema *storage.Schema) {
			if d := row[schema.ColumnIndex(ReservoirColumn)]; !d.IsNull() {
				sources = append(sources, d.Bytes())
			}
		})
	}
	checkOwned := func(label, col string) {
		t.Helper()
		n := 0
		scan(func(row storage.Row, schema *storage.Schema) {
			at := schema.ColumnIndex(col)
			if at < 0 {
				t.Fatalf("%s: no column %s", label, col)
			}
			var texts []string
			var walk func(d types.Datum)
			walk = func(d types.Datum) {
				switch {
				case d.IsNull():
				case d.Typ == types.Text && d.Text() != "":
					texts = append(texts, d.Text())
				case d.Typ == types.Array:
					for _, e := range d.Array() {
						walk(e)
					}
				}
			}
			walk(row[at])
			for _, s := range texts {
				n++
				p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
				for _, src := range sources {
					lo := uintptr(unsafe.Pointer(unsafe.SliceData(src)))
					if p >= lo && p < lo+uintptr(len(src)) {
						t.Fatalf("%s: %s value %q points into a source record", label, col, s)
					}
				}
			}
		})
		if n == 0 {
			t.Fatalf("%s: no %s values stored", label, col)
		}
	}

	collect()
	for _, key := range []string{"name", "tags"} {
		if err := db.SetMaterialized("c", key, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewMaterializer(db).RunOnce("c"); err != nil {
		t.Fatal(err)
	}
	tc, _ := db.cat.Lookup("c")
	cols := map[string]string{}
	for _, c := range tc.Columns() {
		if c.Materialized {
			cols[c.Key] = c.PhysicalName
		}
	}
	nameCol := cols["name"]
	if nameCol == "" || cols["tags"] == "" {
		t.Fatalf("materialized columns %v, want name and tags", cols)
	}
	checkOwned("materialized", nameCol)
	checkOwned("materialized", cols["tags"])

	collect()
	res, err := db.Query(`UPDATE c SET name = note WHERE _id < 200`)
	if err != nil || res.RowsAffected != 200 {
		t.Fatalf("UPDATE: %d rows, %v", res.RowsAffected, err)
	}
	checkOwned("updated", nameCol)
	res, err = db.Query(`SELECT COUNT(*) FROM c WHERE name LIKE 'note-%'`)
	if err != nil || !strings.HasPrefix(res.Rows[0][0].String(), "200") {
		t.Fatalf("UPDATE stored %v rows from note (%v)", res.Rows, err)
	}
}
