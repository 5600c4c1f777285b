package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
	"github.com/sinewdata/sinew/internal/twittergen"
)

// loadLayout loads the benchmark-shaped fixtures the way the repository's
// benchmark does and runs a materializer pass, without the ANALYZE that
// freezes: the paper's five keys over 20 000 NoBench records (pinned), or
// the schema analyzer's policy over those and 5 000 tweets. It returns the
// tables it loaded.
func loadLayout(t *testing.T, pinned bool) (*DB, []string) {
	t.Helper()
	corpora := []struct {
		table string
		docs  []*jsonx.Doc
	}{{"nobench_main", nobench.Generate(20000, 20140622)}}
	if !pinned {
		corpora = append(corpora, struct {
			table string
			docs  []*jsonx.Doc
		}{"tweets", twittergen.GenerateTweets(5000, 20140622, twittergen.DefaultConfig(5000))})
	}
	db := Open(DefaultConfig())
	var tables []string
	for _, c := range corpora {
		if err := db.CreateCollection(c.table); err != nil {
			t.Fatal(err)
		}
		for _, batch := range ndjsonBatches(c.docs, 1000) {
			if _, err := db.LoadJSONLines(c.table, bytes.NewReader(batch)); err != nil {
				t.Fatal(err)
			}
		}
		if pinned {
			for _, key := range paperKeys {
				if err := db.SetMaterialized(c.table, key, true); err != nil {
					t.Fatal(err)
				}
			}
		} else if _, err := db.AnalyzeSchema(c.table); err != nil {
			t.Fatal(err)
		}
		if _, err := NewMaterializer(db).RunOnce(c.table); err != nil {
			t.Fatal(err)
		}
		tables = append(tables, c.table)
	}
	return db, tables
}

// identicalRows reports whether two rows hold the same datums: type, NULL
// flag, value and record bytes alike.
func identicalRows(a, b storage.Row) bool {
	return slices.EqualFunc(a, b, func(x, y types.Datum) bool {
		return x.Typ == y.Typ && x.Null == y.Null && x.String() == y.String() &&
			(x.Typ != types.Bytes || bytes.Equal(x.Bytes(), y.Bytes()))
	})
}

// denseInRaw is what a frozen page of rows would hold twice if its raw
// vector kept whole records: for each record column, the header entry (ID
// and offset, 8 bytes) and the value of every attribute dense enough on
// the page for a column section — in more than one record in 16 of the
// page's rows, the segment format's cut.
func denseInRaw(t *testing.T, rows []storage.Row, recCols []int) int64 {
	t.Helper()
	var total int64
	for _, j := range recCols {
		count := map[uint32]int{}
		size := map[uint32]int64{}
		for _, r := range rows {
			if r[j].IsNull() {
				continue
			}
			rec := r[j].Bytes()
			ids, err := serial.AttrIDs(rec)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				v, _, err := serial.ValueBytes(rec, id)
				if err != nil {
					t.Fatal(err)
				}
				count[id]++
				size[id] += 8 + int64(len(v))
			}
		}
		for id, c := range count {
			if c*16 > len(rows) {
				total += size[id]
			}
		}
	}
	return total
}

// TestUnfreezeGivesBackRecords freezes both benchmark-shaped layouts with
// the real segmenter and reads every frozen page back every way a reader
// can: the segments' Values over the page and row by row, Get, Scan, and
// an UPDATE of one row per page that un-freezes it. Each gives back the
// rows as they were before the freeze, record bytes and all. A frozen
// page holds each value once, so the segments are smaller than whole
// records in the raw vector made them by at least what a sectioned
// attribute held there.
func TestUnfreezeGivesBackRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and optimizes up to 25 000 documents")
	}
	for _, l := range []struct {
		name   string
		pinned bool
		// Segment bytes when the raw vector held whole records (format
		// version 2).
		wholeRecords int64
	}{
		{"pinned", true, 7998848},
		{"policy", false, 9617934},
	} {
		t.Run(l.name, func(t *testing.T) {
			db, tables := loadLayout(t, l.pinned)
			rdb := db.RDBMS()
			before := map[string]map[storage.RowID]storage.Row{}
			pages := map[string]map[int][]storage.Row{}
			var dense int64
			for _, table := range tables {
				before[table], pages[table] = map[storage.RowID]storage.Row{}, map[int][]storage.Row{}
				if err := rdb.ScanTable(table, func(id storage.RowID, r storage.Row) bool {
					before[table][id] = r.Clone()
					pages[table][id.Page] = append(pages[table][id.Page], r.Clone())
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if err := rdb.Analyze(table); err != nil {
					t.Fatal(err)
				}
				schema, err := rdb.TableSchema(table)
				if err != nil {
					t.Fatal(err)
				}
				heap, _, err := rdb.Table(table)
				if err != nil {
					t.Fatal(err)
				}
				frozen, segs := checkFrozenValues(t, heap, before[table])
				if frozen == 0 || segs == 0 {
					t.Fatalf("%s: %d frozen pages, %d record segments", table, frozen, segs)
				}
				var recCols []int
				for j, c := range schema.Cols {
					if c.Typ == types.Bytes {
						recCols = append(recCols, j)
					}
				}
				for _, rows := range pages[table] {
					if len(rows) == storage.PageCapacity {
						dense += denseInRaw(t, rows, recCols)
					}
				}
			}
			got := rdb.SegmentBytes()
			t.Logf("segments %d B, %d B with whole records in the raw vector; dense values and their header entries %d B", got, l.wholeRecords, dense)
			if l.wholeRecords-got < dense {
				t.Errorf("segments fell by %d bytes, want at least the %d the sectioned attributes held in the raw vector", l.wholeRecords-got, dense)
			}

			for _, table := range tables {
				for id, want := range before[table] {
					if row, ok, err := rdb.GetRow(table, id); err != nil || !ok || !identicalRows(row, want) {
						t.Fatalf("%s: Get(%v) differs from the row before the freeze (ok %v, err %v)", table, id, ok, err)
					}
				}
				checkScan(t, db, table, before[table])
				// One UPDATE per frozen page un-freezes it; every row of it
				// comes back as it was.
				heap, _, _ := rdb.Table(table)
				schema, _ := rdb.TableSchema(table)
				idCol := schema.ColumnIndex(IDColumn)
				for pi := range pages[table] {
					id := storage.RowID{Page: pi}
					if _, ok := before[table][id]; !ok || heap.CurrentSnapshot().NumFrozenPages() == 0 {
						continue
					}
					sql := fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s = %d", table, IDColumn, IDColumn, IDColumn, before[table][id][idCol].I)
					if _, err := rdb.Exec(sql); err != nil {
						t.Fatal(err)
					}
				}
				if n := heap.NumFrozenPages(); n != 0 {
					t.Fatalf("%s: %d pages still frozen after an UPDATE on each", table, n)
				}
				checkScan(t, db, table, before[table])
			}
		})
	}
}

// checkFrozenValues reads every record segment of heap's frozen pages
// through Values, over the whole page and one row at a time, and holds
// each value to the row before the freeze. It returns the frozen pages and
// the record segments it read.
func checkFrozenValues(t *testing.T, heap *storage.Heap, before map[storage.RowID]storage.Row) (frozen, segs int) {
	t.Helper()
	it := heap.CurrentSnapshot().IterateChunks()
	it.ReportRowIDs()
	defer it.Close()
	var arena storage.ValueArena
	for {
		pv, ok := it.ReadPage(storage.PageCapacity)
		if !ok {
			return frozen, segs
		}
		fp := pv.Frozen
		if fp == nil {
			continue
		}
		frozen++
		for j := 0; j < fp.NumCols(); j++ {
			_, _, seg := fp.Col(j)
			if _, ok := seg.(*recordSegment); !ok {
				continue
			}
			segs++
			page := make([]types.Datum, fp.NumRows())
			if err := seg.Values(page, 0, &arena); err != nil {
				t.Fatal(err)
			}
			one := make([]types.Datum, 1)
			for i, id := range pv.IDs {
				if err := seg.Values(one, i, &arena); err != nil {
					t.Fatal(err)
				}
				want := before[id][j]
				for _, got := range []types.Datum{page[i], one[0]} {
					if !identicalRows(storage.Row{got}, storage.Row{want}) {
						t.Fatalf("frozen %v column %d: Values gives back %d bytes, the row held %d", id, j, len(got.Bytes()), len(want.Bytes()))
					}
				}
			}
		}
	}
}

// checkScan holds every row a Scan of table returns to the row before the
// freeze.
func checkScan(t *testing.T, db *DB, table string, before map[storage.RowID]storage.Row) {
	t.Helper()
	n := 0
	if err := db.RDBMS().ScanTable(table, func(id storage.RowID, r storage.Row) bool {
		n++
		if !identicalRows(r, before[id]) {
			t.Fatalf("%s: Scan's row %v differs from the row before the freeze", table, id)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(before) {
		t.Fatalf("%s: Scan returned %d rows, want %d", table, n, len(before))
	}
}

// TestAnalyticTextsSpliceResultRows runs the NoBench analytic texts over
// the pinned layout and counts the records each splices back out of a
// frozen page (splicedRecords): a text splices at most the records of the
// rows it returns — two record columns, the reservoir and nested_obj, per
// row — so none splices whole pages, and the texts that return no record
// and filter on none splice nothing.
func TestAnalyticTextsSpliceResultRows(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and optimizes 20 000 documents")
	}
	db, tables := loadLayout(t, true)
	if err := db.RDBMS().Analyze(tables[0]); err != nil {
		t.Fatal(err)
	}
	q := nobench.NewParams(20000).Queries()
	// Q5–Q9 return whole documents, and Q11's join reads nested_obj of
	// the rows its filter keeps.
	splices := map[string]bool{"Q5": true, "Q6": true, "Q7": true, "Q8": true, "Q9": true, "Q11": true}
	type text struct {
		sql    string
		splice bool
	}
	var texts []text
	for _, id := range nobench.QueryOrder() {
		if id != "Q12" {
			texts = append(texts, text{q[id], splices[id]})
		}
	}
	texts = append(texts,
		text{`SELECT thousandth, COUNT(*) FROM nobench_main GROUP BY thousandth`, false},
		text{`SELECT str1, num FROM nobench_main ORDER BY num DESC LIMIT 10`, false},
		text{`SELECT str1 FROM nobench_main ORDER BY str1`, false},
		text{`SELECT COUNT(*) FROM nobench_main`, false})
	for _, tx := range texts {
		from := splicedRecords.Load()
		res, err := db.Query(tx.sql)
		if err != nil {
			t.Fatalf("%s: %v", tx.sql, err)
		}
		spliced := splicedRecords.Load() - from
		t.Logf("%5d rows, %3d records spliced: %s", len(res.Rows), spliced, tx.sql)
		limit := 2 * int64(len(res.Rows))
		if !tx.splice {
			limit = 0
		}
		if spliced > limit {
			t.Errorf("%s splices %d records for %d rows, want at most %d", tx.sql, spliced, len(res.Rows), limit)
		}
	}
}
