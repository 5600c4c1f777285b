package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
	"github.com/sinewdata/sinew/internal/twittergen"
)

var updateOptimizeGolden = flag.Bool("update-optimize-golden", false, "rewrite testdata/optimize_golden.txt")

// paperKeys is the paper's §6.1 materialization outcome on NoBench.
var paperKeys = []string{"str1", "num", "nested_arr", "nested_obj", "thousandth"}

// TestOptimizeGolden pins what the optimize step — choose a layout, one
// materializer pass, ANALYZE with its freeze — leaves behind: every row's
// columns and reservoir bytes, the segment each frozen page's record
// columns encode to, the optimizer statistics, the table size and the
// number of values the pass moved. Two layouts: what the schema analyzer's
// policy decides for 20 000 NoBench records and 5 000 tweets, and the
// paper's five pinned keys on NoBench alone. The golden file and the row
// checksums were captured on the commit before the page-at-a-time
// materializer (a05d24c, PR 15): its pass deserialized every record to a
// document tree, copied in one sweep and purged in a second, its ANALYZE
// keyed distinct values by a copy of their hash key and sorted them all, and
// its EncodeSegment grew one set of buffers per attribute per page. The
// segment checksums are the format's own and were recorded again when
// sparse attributes lost their column sections and again when sectioned
// ones left the raw vector (format version 3); what a segment answers is
// held, whatever its layout, to the records it stripes
// (checkSegmentsMatchRecords).
func TestOptimizeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and optimizes 45 000 documents")
	}
	nb := nobench.Generate(20000, 20140622)
	tweets := twittergen.GenerateTweets(5000, 20140622, twittergen.DefaultConfig(5000))
	type corpus struct {
		table string
		docs  []*jsonx.Doc
	}
	layouts := []struct {
		name    string
		corpora []corpus
		pinned  bool
		// Values moved per collection and the SHA-256 over rows, from the
		// commit before; segSum is the SHA-256 over the segments the record
		// columns encode to, which moves with the segment format.
		moved  []int64
		rowSum string
		segSum string
	}{
		{"policy", []corpus{{"nobench_main", nb}, {"tweets", tweets}}, false,
			[]int64{160000, 60000}, "ebc70fcf882bc453c12a5601e053fc89fd08c2f35cca569c79726d30460f63ba", "d1543e73737b27d18780e37feed30326e8b96b5045f1f04d3cfafa160003607c"},
		{"pinned", []corpus{{"nobench_main", nb}}, true,
			[]int64{100000}, "7eae7e02a733221b49024b30dbecbd216213fd83087efe8c78e44a435333b163", "384b4702356270572f89689094441cab4ec5905f73c4ddfdc27a2a658692e65a"},
	}
	var got bytes.Buffer
	for _, l := range layouts {
		db := Open(DefaultConfig())
		for _, c := range l.corpora {
			if err := db.CreateCollection(c.table); err != nil {
				t.Fatal(err)
			}
			for _, batch := range ndjsonBatches(c.docs, 1000) {
				if _, err := db.LoadJSONLines(c.table, bytes.NewReader(batch)); err != nil {
					t.Fatal(err)
				}
			}
		}
		rowSum, segSum := sha256.New(), sha256.New()
		for ci, c := range l.corpora {
			if l.pinned {
				for _, key := range paperKeys {
					if err := db.SetMaterialized(c.table, key, true); err != nil {
						t.Fatal(err)
					}
				}
			} else if _, err := db.AnalyzeSchema(c.table); err != nil {
				t.Fatal(err)
			}
			m := NewMaterializer(db)
			moved, err := m.RunOnce(c.table)
			if err != nil {
				t.Fatal(err)
			}
			if moved != l.moved[ci] {
				t.Errorf("%s/%s: RunOnce moved %d values, the parent commit moved %d", l.name, c.table, moved, l.moved[ci])
			}
			if again, err := m.RunOnce(c.table); err != nil || again != 0 {
				t.Errorf("%s/%s: a second RunOnce moved %d values (err %v), want 0", l.name, c.table, again, err)
			}
			if err := db.RDBMS().Analyze(c.table); err != nil {
				t.Fatal(err)
			}
			if checkSegmentsMatchRecords(t, db, c.table) == 0 {
				t.Errorf("%s/%s: no frozen record segment to check", l.name, c.table)
			}
			fmt.Fprintf(&got, "layout %s ", l.name)
			dumpOptimized(t, db, c.table, rowSum, segSum, &got)
		}
		if s := fmt.Sprintf("%x", rowSum.Sum(nil)); s != l.rowSum {
			t.Errorf("%s: rows drifted: sha256 %s, want %s", l.name, s, l.rowSum)
		}
		if s := fmt.Sprintf("%x", segSum.Sum(nil)); s != l.segSum {
			t.Errorf("%s: segments drifted: sha256 %s, want %s", l.name, s, l.segSum)
		}
	}
	checkGolden(t, "testdata/optimize_golden.txt", got.String(), *updateOptimizeGolden)
}

// dumpOptimized writes table's rows into rowSum, the segments of its record
// columns into segSum, and its size and statistics as text into out.
func dumpOptimized(t *testing.T, db *DB, table string, rowSum, segSum hash.Hash, out *bytes.Buffer) {
	t.Helper()
	schema, err := db.RDBMS().TableSchema(table)
	if err != nil {
		t.Fatal(err)
	}
	recCols := map[int][][]byte{}
	var key []byte
	err = db.RDBMS().ScanTable(table, func(_ storage.RowID, row storage.Row) bool {
		for j, d := range row {
			key = d.HashKey(key[:0])
			fmt.Fprintf(rowSum, "%s=%x;", schema.Cols[j].Name, key)
			if schema.Cols[j].Typ == types.Bytes {
				recCols[j] = append(recCols[j], d.Bytes())
			}
		}
		rowSum.Write([]byte{'\n'})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range schema.Cols {
		recs := recCols[j]
		for at := 0; at+storage.PageCapacity <= len(recs); at += storage.PageCapacity {
			seg, err := serial.EncodeSegment(recs[at:at+storage.PageCapacity], db.dict())
			if err != nil {
				fmt.Fprintf(segSum, "segment %s %d: not encodable\n", c.Name, at)
				continue
			}
			fmt.Fprintf(segSum, "segment %s %d: %x\n", c.Name, at, sha256.Sum256(seg))
		}
	}

	size, _ := db.RDBMS().TableSizeBytes(table)
	heap, stats, err := db.RDBMS().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(out, "table %s rows=%d bytes=%d frozen_pages=%d columns=%d\n",
		table, stats.RowCount, size, heap.CurrentSnapshot().NumFrozenPages(), len(schema.Cols))
	names := make([]string, 0, len(stats.Columns))
	for n := range stats.Columns {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cs := stats.Columns[n]
		fmt.Fprintf(out, "  %s rows=%d nulls=%d ndistinct=%d", n, cs.RowCount, cs.NullCount, cs.NDistinct)
		if cs.HasMinMax {
			fmt.Fprintf(out, " min=%s max=%s", goldenDatum(cs.Min), goldenDatum(cs.Max))
		}
		out.WriteByte('\n')
		for _, m := range cs.MCVs {
			fmt.Fprintf(out, "    mcv %s %.6g\n", goldenDatum(m.Val), m.Freq)
		}
	}
}

// goldenDatum renders a statistic's value on one line; records and long
// strings as a checksum.
func goldenDatum(d types.Datum) string {
	s := d.String()
	if d.Typ == types.Bytes || len(s) > 60 || strings.ContainsAny(s, "\n\r") {
		return fmt.Sprintf("%s[%d]#%x", d.Typ, len(s), sha256.Sum256([]byte(s)))
	}
	return fmt.Sprintf("%s:%s", d.Typ, s)
}
