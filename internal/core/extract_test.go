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

// TestDirtyCoalesceAllocsFlat: over a dirty column — materialized, NULL on
// every row, its values still in the reservoir — the rewrite reads
// COALESCE(k, sinew_extract_int(data, 'k')), and the batch evaluator runs
// the extraction over the rows the column left NULL a batch at a time: the
// statement allocates per batch, not per row.
func TestDirtyCoalesceAllocsFlat(t *testing.T) {
	const q = `SELECT k FROM c`
	allocs := func(n int) float64 {
		db := Open(DefaultConfig())
		if err := db.CreateCollection("c"); err != nil {
			t.Fatal(err)
		}
		var lines bytes.Buffer
		for i := 0; i < n; i++ {
			fmt.Fprintf(&lines, `{"k":%d,"note":"note-%d"}`+"\n", i, i)
		}
		if _, err := db.LoadJSONLines("c", &lines); err != nil {
			t.Fatal(err)
		}
		if err := db.SetMaterialized("c", "k", true); err != nil {
			t.Fatal(err)
		}
		// A paused pass adds the column and moves no value.
		mat := NewMaterializer(db)
		mat.Pause()
		if _, err := mat.RunOnce("c"); err != nil {
			t.Fatal(err)
		}
		if sql, _ := db.RewrittenSQL(q); !strings.Contains(sql, "coalesce(c.k, sinew_extract_int(c.data, 'k'))") {
			t.Fatalf("%s rewrites to %s, want the dirty column's COALESCE", q, sql)
		}
		heap, _, err := db.RDBMS().Table("c")
		if err != nil {
			t.Fatal(err)
		}
		if heap.NumFrozenPages() != 0 {
			t.Fatalf("%d rows: %d frozen pages, want a never-frozen table", n, heap.NumFrozenPages())
		}
		return testing.AllocsPerRun(5, func() {
			res, err := db.Query(q)
			if err != nil || len(res.Rows) != n || res.Rows[n-1][0].I != int64(n-1) {
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
	var hold func(d types.Datum)
	hold = func(d types.Datum) {
		switch {
		case d.IsNull():
		case d.Typ == types.Text:
			held = append(held, heldValue{d, []byte(d.Text())})
		case d.Typ == types.Bytes:
			held = append(held, heldValue{d, bytes.Clone(d.Bytes())})
		case d.Typ == types.Array:
			for _, e := range d.Array() {
				hold(e)
			}
		}
	}
	for _, row := range res.Rows {
		for _, d := range row {
			hold(d)
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

// walkTexts calls fn on every non-empty text in d, array elements included.
func walkTexts(d types.Datum, fn func(string)) {
	switch {
	case d.IsNull():
	case d.Typ == types.Text && d.Text() != "":
		fn(d.Text())
	case d.Typ == types.Array:
		for _, e := range d.Array() {
			walkTexts(e, fn)
		}
	}
}

// pointsInto reports whether s starts inside one of srcs.
func pointsInto(s string, srcs [][]byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	for _, src := range srcs {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(src)))
		if p >= lo && p < lo+uintptr(len(src)) {
			return true
		}
	}
	return false
}

// TestPackedValuesSurviveWriters holds values that alias a frozen page's
// payload arenas — materialized text and array columns — while UPDATEs
// un-freeze their pages, materializer passes move the keys back into the
// reservoir and out again, and ANALYZE re-freezes the pages into new
// arenas. An arena is never written, so the held bytes must never change;
// under -race a write into one is a reported race besides.
func TestPackedValuesSurviveWriters(t *testing.T) {
	db := Open(DefaultConfig())
	loadNamed(t, db, 600)
	for _, key := range []string{"name", "tags"} {
		if err := db.SetMaterialized("c", key, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewMaterializer(db).RunOnce("c"); err != nil {
		t.Fatal(err)
	}
	if err := db.RDBMS().Analyze("c"); err != nil {
		t.Fatal(err)
	}
	heap, _, err := db.RDBMS().Table("c")
	if err != nil {
		t.Fatal(err)
	}
	if heap.NumFrozenPages() == 0 {
		t.Fatal("no frozen pages")
	}
	if sql, _ := db.RewrittenSQL(`SELECT name, tags FROM c`); strings.Contains(sql, "sinew_extract") {
		t.Fatalf("name and tags are not physical: %s", sql)
	}
	held := holdValues(t, db, `SELECT name, tags FROM c`)
	checkHeld(t, "before", held)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for id := 0; id < 600; id += 7 {
			sql := fmt.Sprintf(`UPDATE c SET name = 'changed-%d', tags = NULL WHERE _id = %d`, id, id)
			if _, err := db.Query(sql); err != nil {
				errs <- fmt.Errorf("%s: %w", sql, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, want := range []bool{false, true, false, true} {
			for _, key := range []string{"name", "tags"} {
				if err := db.SetMaterialized("c", key, want); err != nil {
					errs <- err
					return
				}
			}
			if _, err := NewMaterializer(db).RunOnce("c"); err != nil {
				errs <- err
				return
			}
			if err := db.RDBMS().Analyze("c"); err != nil {
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

// TestCollectBesideUnfreeze races projection readers — contiguous,
// reordered and single-column projections, one under a LIMIT that ends
// inside a frozen page — against UPDATEs that un-freeze the pages they
// read. Each read sees every row once with its note as loaded
// or as one UPDATE wrote it, and the values of the first reads, whose
// text aliases the frozen pages' storage, never change.
func TestCollectBesideUnfreeze(t *testing.T) {
	const n = 600
	db := Open(DefaultConfig())
	loadNamed(t, db, n)
	for _, key := range []string{"name", "note"} {
		if err := db.SetMaterialized("c", key, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewMaterializer(db).RunOnce("c"); err != nil {
		t.Fatal(err)
	}
	if err := db.RDBMS().Analyze("c"); err != nil {
		t.Fatal(err)
	}
	heap, _, err := db.RDBMS().Table("c")
	if err != nil {
		t.Fatal(err)
	}
	if heap.NumFrozenPages() < 4 {
		t.Fatalf("%d frozen pages, want four", heap.NumFrozenPages())
	}
	res, err := db.Query(`SELECT _id, note FROM c`)
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[int64]string{}
	for _, r := range res.Rows {
		loaded[r[0].I] = r[1].Text()
	}
	if len(loaded) != n {
		t.Fatalf("%d distinct ids, want %d", len(loaded), n)
	}
	var held []heldValue
	for _, q := range []string{`SELECT note FROM c`, `SELECT note, _id FROM c`} {
		held = append(held, holdValues(t, db, q)...)
	}

	// read runs one projection and checks each row's note against its id.
	read := func(sql string, idCol, noteCol, want int) error {
		res, err := db.Query(sql)
		if err != nil {
			return fmt.Errorf("%s: %w", sql, err)
		}
		if len(res.Rows) != want {
			return fmt.Errorf("%s: %d rows, want %d", sql, len(res.Rows), want)
		}
		for _, r := range res.Rows {
			if idCol < 0 {
				continue
			}
			id, note := r[idCol].I, r[noteCol].Text()
			if note != loaded[id] && note != fmt.Sprintf("changed-%d", id) {
				return fmt.Errorf("%s: row %d has note %q", sql, id, note)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := range loaded {
			if id%7 != 0 {
				continue
			}
			sql := fmt.Sprintf(`UPDATE c SET note = 'changed-%d' WHERE _id = %d`, id, id)
			if _, err := db.Query(sql); err != nil {
				errs <- fmt.Errorf("%s: %w", sql, err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				for _, err := range []error{
					read(`SELECT _id, note FROM c`, 0, 1, n),
					read(`SELECT note, _id FROM c`, 1, 0, n),
					read(`SELECT note FROM c`, -1, 0, n),
					read(`SELECT _id, note FROM c LIMIT 200`, 0, 1, 200),
				} {
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		checkHeld(t, "during", held)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkHeld(t, "after", held)
	if heap, _, _ = db.RDBMS().Table("c"); heap.NumFrozenPages() != 0 {
		t.Errorf("%d pages still frozen after UPDATEs touched every page", heap.NumFrozenPages())
	}
}

// TestStoredValuesOwnTheirBytes: the two places an extracted value is
// written into a heap — a materializer pass and UPDATE's SET — store a
// copy, so no stored text, array elements included, shares memory with the
// record it came from
// (an alias would pin the replaced record, or a whole frozen segment).
// Freezing then moves the stored values into the page's arenas, which share
// memory with neither the records nor those copies.
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
			walkTexts(row[at], func(s string) {
				n++
				if pointsInto(s, sources) {
					t.Fatalf("%s: %s value %q points into a source record", label, col, s)
				}
			})
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

	// The copies the writers stored become sources too: a frozen page must
	// not keep them alive.
	collect()
	scan(func(row storage.Row, schema *storage.Schema) {
		for _, col := range []string{nameCol, cols["tags"]} {
			walkTexts(row[schema.ColumnIndex(col)], func(s string) {
				sources = append(sources, unsafe.Slice(unsafe.StringData(s), len(s)))
			})
		}
	})
	if err := db.RDBMS().Analyze("c"); err != nil {
		t.Fatal(err)
	}
	heap, _, err := db.RDBMS().Table("c")
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := db.rdb.TableSchema("c")
	n := 0
	it := heap.IterateChunks()
	defer it.Close()
	for {
		pv, ok := it.ReadPage(storage.PageCapacity)
		if !ok {
			break
		}
		if pv.Frozen == nil {
			continue
		}
		for _, col := range []string{nameCol, cols["tags"]} {
			vals, _, seg := pv.Frozen.Col(schema.ColumnIndex(col))
			if seg != nil {
				t.Fatalf("frozen: %s is a segment column", col)
			}
			for _, d := range vals {
				walkTexts(d, func(s string) {
					n++
					if pointsInto(s, sources) {
						t.Fatalf("frozen: %s value %q points into a source record or a stored copy", col, s)
					}
				})
			}
		}
	}
	if n == 0 {
		t.Fatal("frozen: no values on frozen pages")
	}
}
