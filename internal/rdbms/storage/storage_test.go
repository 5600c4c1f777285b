package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Column{Name: "id", Typ: types.Int, NotNull: true},
		Column{Name: "name", Typ: types.Text},
		Column{Name: "score", Typ: types.Float},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if s.ColumnIndex("name") != 1 || s.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex")
	}
	if _, err := NewSchema(Column{Name: "a"}, Column{Name: "a"}); err == nil {
		t.Error("duplicate columns should error")
	}
	if err := s.AddColumn(Column{Name: "extra", Typ: types.Bool}); err != nil {
		t.Fatal(err)
	}
	if s.ColumnIndex("extra") != 3 {
		t.Error("added column index")
	}
	if err := s.AddColumn(Column{Name: "extra"}); err == nil {
		t.Error("re-adding column should error")
	}
	if err := s.DropColumn("name"); err != nil {
		t.Fatal(err)
	}
	if s.ColumnIndex("name") != -1 || s.ColumnIndex("score") != 1 || s.ColumnIndex("extra") != 2 {
		t.Error("indices after drop")
	}
	if err := s.DropColumn("name"); err == nil {
		t.Error("double drop should error")
	}
}

func mkRow(id int64, name string, score float64) Row {
	return Row{types.NewInt(id), types.NewText(name), types.NewFloat(score)}
}

func TestHeapInsertScanCount(t *testing.T) {
	h := NewHeap(testSchema(t), nil)
	for i := 0; i < 300; i++ { // spans multiple pages (128 rows/page)
		if err := h.Insert(mkRow(int64(i), fmt.Sprintf("n%d", i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumRows() != 300 {
		t.Errorf("rows = %d", h.NumRows())
	}
	var seen int
	h.Scan(func(_ RowID, r Row) bool {
		seen++
		return true
	})
	if seen != 300 {
		t.Errorf("scanned = %d", seen)
	}
	// Early-exit scan.
	seen = 0
	h.Scan(func(_ RowID, _ Row) bool { seen++; return seen < 10 })
	if seen != 10 {
		t.Errorf("early exit = %d", seen)
	}
}

func TestHeapConstraints(t *testing.T) {
	h := NewHeap(testSchema(t), nil)
	if err := h.Insert(Row{types.NewInt(1)}); err == nil {
		t.Error("short row should error")
	}
	if err := h.Insert(Row{types.NewNull(types.Int), types.NewText("x"), types.NewFloat(1)}); err == nil {
		t.Error("NOT NULL violation should error")
	}
}

func TestHeapUpdateDeleteRestore(t *testing.T) {
	h := NewHeap(testSchema(t), nil)
	for i := 0; i < 5; i++ {
		h.Insert(mkRow(int64(i), "x", 0))
	}
	id := RowID{Page: 0, Slot: 2}
	old, err := h.Update(id, mkRow(2, "updated", 9))
	if err != nil || old[1].Text() != "x" {
		t.Fatalf("update: %v %v", old, err)
	}
	got, ok, _ := h.Get(id)
	if !ok || got[1].Text() != "updated" {
		t.Errorf("get after update = %v", got)
	}
	deleted, err := h.Delete(id)
	if err != nil || deleted[1].Text() != "updated" {
		t.Fatalf("delete: %v %v", deleted, err)
	}
	if h.NumRows() != 4 {
		t.Errorf("rows after delete = %d", h.NumRows())
	}
	if _, ok, _ := h.Get(id); ok {
		t.Error("deleted row should be gone")
	}
	if _, err := h.Update(id, mkRow(2, "z", 0)); err == nil {
		t.Error("update of deleted row should error")
	}
	if err := h.Restore(id, deleted); err != nil {
		t.Fatal(err)
	}
	if h.NumRows() != 5 {
		t.Errorf("rows after restore = %d", h.NumRows())
	}
	if err := h.Restore(id, deleted); err == nil {
		t.Error("restore into occupied slot should error")
	}
}

func TestChunkIterSkipsDeleted(t *testing.T) {
	h := NewHeap(testSchema(t), nil)
	for i := 0; i < 10; i++ {
		h.Insert(mkRow(int64(i), "x", 0))
	}
	h.Delete(RowID{Page: 0, Slot: 3})
	h.Delete(RowID{Page: 0, Slot: 7})
	ids, rows := readIDs(t, h.IterateChunks(), rowsPerPage)
	if len(rows) != 8 {
		t.Errorf("iterated %d rows, want 8", len(rows))
	}
	for k, r := range rows {
		if r[0].I == 3 || r[0].I == 7 {
			t.Errorf("deleted row %d visible", r[0].I)
		}
		// Row i was inserted into slot i of page 0.
		if ids[k] != (RowID{Page: 0, Slot: int(r[0].I)}) {
			t.Errorf("row %d reported at %v", r[0].I, ids[k])
		}
	}
}

func TestLastRowID(t *testing.T) {
	h := NewHeap(testSchema(t), nil)
	if h.LastRowID().Page != -1 {
		t.Error("empty heap LastRowID")
	}
	for i := 0; i < 130; i++ { // crosses a page boundary
		h.Insert(mkRow(int64(i), "x", 0))
	}
	id := h.LastRowID()
	row, ok, _ := h.Get(id)
	if !ok || row[0].I != 129 {
		t.Errorf("last row = %v %v", row, ok)
	}
}

func TestSizeAccountingAndNullBitmap(t *testing.T) {
	h := NewHeap(testSchema(t), nil)
	h.Insert(mkRow(1, "abc", 1.5))
	full := h.SizeBytes()
	h2 := NewHeap(testSchema(t), nil)
	h2.Insert(Row{types.NewInt(1), types.NewNull(types.Text), types.NewNull(types.Float)})
	sparse := h2.SizeBytes()
	if sparse >= full {
		t.Errorf("NULLs should be nearly free: sparse %d vs full %d", sparse, full)
	}
	// The difference is exactly the non-null payloads (text hdr+3, float 8).
	if full-sparse != (4+3)+8 {
		t.Errorf("delta = %d", full-sparse)
	}
}

func TestAddDropColumnData(t *testing.T) {
	h := NewHeap(testSchema(t), nil)
	for i := 0; i < 3; i++ {
		h.Insert(mkRow(int64(i), "x", 1))
	}
	h.Schema().AddColumn(Column{Name: "new", Typ: types.Bool})
	h.AddColumnData(1)
	h.Scan(func(_ RowID, r Row) bool {
		if len(r) != 4 || !r[3].IsNull() {
			t.Errorf("row = %v", r)
		}
		return true
	})
	idx := h.Schema().ColumnIndex("name")
	h.Schema().DropColumn("name")
	h.DropColumnData(idx)
	h.Scan(func(_ RowID, r Row) bool {
		if len(r) != 3 || r[1].Typ != types.Float {
			t.Errorf("row after drop = %v", r)
		}
		return true
	})
}

func TestPagerAccounting(t *testing.T) {
	p := NewPager()
	h := NewHeap(testSchema(t), p)
	for i := 0; i < 10; i++ {
		h.Insert(mkRow(int64(i), "hello", 1))
	}
	_, w := p.Stats()
	if w <= 0 {
		t.Error("writes not recorded")
	}
	p.Reset()
	h.Scan(func(_ RowID, _ Row) bool { return true })
	r, _ := p.Stats()
	if r != h.SizeBytes() {
		t.Errorf("scan read %d bytes, heap size %d", r, h.SizeBytes())
	}
}

func TestAnalyzeStats(t *testing.T) {
	h := NewHeap(testSchema(t), nil)
	for i := 0; i < 1000; i++ {
		name := types.NewText(fmt.Sprintf("name%d", i%10)) // 10 distinct, skewed below
		if i%2 == 0 {
			name = types.NewText("common")
		}
		score := types.NewFloat(float64(i))
		if i%5 == 0 {
			score = types.NewNull(types.Float)
		}
		h.Insert(Row{types.NewInt(int64(i)), name, score})
	}
	stats := Analyze(h)
	if stats.RowCount != 1000 {
		t.Fatalf("rowcount = %d", stats.RowCount)
	}
	id := stats.Columns["id"]
	if id.NDistinct != 1000 || id.NullCount != 0 {
		t.Errorf("id stats = %+v", id)
	}
	if !id.HasMinMax || id.Min.I != 0 || id.Max.I != 999 {
		t.Errorf("id min/max = %v %v", id.Min, id.Max)
	}
	name := stats.Columns["name"]
	// Odd rows cycle name1/3/5/7/9 (5 values); even rows are "common".
	if name.NDistinct != 6 {
		t.Errorf("name ndistinct = %d", name.NDistinct)
	}
	if len(name.MCVs) == 0 || name.MCVs[0].Val.Text() != "common" || name.MCVs[0].Freq < 0.45 {
		t.Errorf("name MCVs = %+v", name.MCVs)
	}
	score := stats.Columns["score"]
	if score.NullCount != 200 {
		t.Errorf("score nulls = %d", score.NullCount)
	}
}

func TestAnalyzeEmptyTable(t *testing.T) {
	stats := Analyze(NewHeap(testSchema(t), nil))
	if stats.RowCount != 0 || len(stats.Columns) != 3 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRowFootprintTracksUpdates(t *testing.T) {
	h := NewHeap(testSchema(t), nil)
	h.Insert(mkRow(1, "short", 1))
	before := h.SizeBytes()
	h.Update(RowID{0, 0}, mkRow(1, "a much longer name value", 1))
	if h.SizeBytes() <= before {
		t.Error("size should grow with a longer value")
	}
	h.Delete(RowID{0, 0})
	if h.SizeBytes() != 0 {
		t.Errorf("size after delete = %d", h.SizeBytes())
	}
}

// TestTopNSkipBound checks the Top-N page bound over random heaps — page
// windows that overlap, NULL keys, deleted slots, more pages than the
// bound's fixed buffer — against its definition: T is the key at which
// the best-first running count of the summarized pages' live rows reaches
// n, and a page is skipped exactly when its range is strictly worse.
// Every row of a skipped page must rank behind n rows of the heap.
func TestTopNSkipBound(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		h := NewHeap(testSchema(t), nil)
		for p := 0; p < 1+r.Intn(40); p++ {
			base, nulls := r.Intn(2000), r.Intn(5) == 0
			for j := 0; j < rowsPerPage; j++ {
				// The key column holds Int and Float datums side by side.
				row := mkRow(int64(j), "x", float64(base+r.Intn(150))+0.5*float64(r.Intn(2)))
				if r.Intn(2) == 0 {
					row[2] = types.NewInt(int64(base + r.Intn(150)))
				}
				if nulls && r.Intn(3) == 0 {
					row[2] = types.NewNull(types.Float)
				}
				if err := h.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			if r.Intn(4) == 0 {
				for j := 0; j < r.Intn(rowsPerPage); j++ {
					_, _ = h.Delete(RowID{Page: p, Slot: r.Intn(rowsPerPage)})
				}
			}
		}
		Analyze(h)
		desc, n := r.Intn(2) == 0, int64(1+r.Intn(40*rowsPerPage))
		if r.Intn(2) == 0 { // whole pages: the running count meets n exactly
			n = int64(rowsPerPage * (1 + r.Intn(40)))
		}

		// The definition, by sorting every eligible page.
		type bound struct {
			key  types.Datum
			live int64
		}
		var bounds []bound
		for _, p := range h.pages {
			rg := p.sum.usableRange(2)
			if rg == nil || rg.nulls {
				continue
			}
			b := bound{rg.max, liveRows(p)}
			if desc {
				b.key = rg.min
			}
			bounds = append(bounds, b)
		}
		sort.SliceStable(bounds, func(a, b int) bool { return orderCmp(bounds[a].key, bounds[b].key, desc) < 0 })
		var tk *types.Datum
		left := n
		for i := range bounds {
			if left -= bounds[i].live; left <= 0 {
				tk = &bounds[i].key
				break
			}
		}

		skip := h.IterateChunks().TopNSkip(2, desc, n)
		var kept []types.Datum
		var skippedKeys []types.Datum
		for pi, p := range h.pages {
			want := tk != nil && topNSkips(p.sum, 2, desc, *tk)
			got := skip != nil && p.sum.usable() && skip(p.sum)
			if got != want {
				t.Fatalf("iter %d page %d (desc %v, n %d): skipped %v, want %v", iter, pi, desc, n, got, want)
			}
			for _, row := range p.rows { // no segmenter: no page froze
				if row == nil {
					continue
				}
				if got {
					skippedKeys = append(skippedKeys, row[2])
				} else {
					kept = append(kept, row[2])
				}
			}
		}
		// Soundness: n kept keys each rank strictly ahead of every skipped one
		// (a NULL ranks first under DESC, last under ASC).
		ahead := func(a, b types.Datum) bool {
			switch {
			case a.IsNull() || b.IsNull():
				return !b.IsNull() == desc && a.IsNull() != b.IsNull()
			default:
				return orderCmp(a, b, desc) < 0
			}
		}
		for _, s := range skippedKeys {
			var c int64
			for _, k := range kept {
				if ahead(k, s) {
					c++
				}
			}
			if c < n {
				t.Fatalf("iter %d (desc %v, n %d): skipped key %v has only %d kept keys ahead", iter, desc, n, s, c)
			}
		}
	}
}
