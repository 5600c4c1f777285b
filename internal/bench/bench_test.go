package bench

import (
	"strings"
	"testing"
	"time"
)

func TestNoBenchFixtureAndFigures(t *testing.T) {
	f, err := SetupNoBench(2000, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	io := IOModel{} // warm cache

	// Cross-system row-count agreement for Q1..Q11.
	counts := map[string]map[string]int64{}
	for _, qid := range []string{"Q1", "Q2", "Q5", "Q6", "Q8", "Q9", "Q10", "Q11"} {
		counts[qid] = map[string]int64{}
		for _, sys := range SystemOrder() {
			o := f.RunQuery(sys, qid)
			if o.Err != nil {
				t.Fatalf("%s %s: %v", sys, qid, o.Err)
			}
			counts[qid][sys] = o.Rows
		}
		base := counts[qid][SysSinew]
		for sys, n := range counts[qid] {
			if sys == SysEAV && (qid == "Q1" || qid == "Q2") {
				continue // EAV inner-join projection drops nothing here, but see below
			}
			if n != base {
				t.Errorf("%s: %s returned %d rows, Sinew %d", qid, sys, n, base)
			}
		}
	}
	// Q5 must match exactly one record.
	if counts["Q5"][SysSinew] != 1 {
		t.Errorf("Q5 rows = %d, want 1", counts["Q5"][SysSinew])
	}
	// Q6 selects ~0.1%.
	if n := counts["Q6"][SysSinew]; n < 1 || n > int64(f.N/100) {
		t.Errorf("Q6 rows = %d out of %d", n, f.N)
	}

	// Q7: Sinew and Mongo agree; PG JSON must fail with a type error.
	sq7 := f.RunQuery(SysSinew, "Q7")
	mq7 := f.RunQuery(SysMongo, "Q7")
	if sq7.Err != nil || mq7.Err != nil {
		t.Fatalf("Q7 errors: sinew=%v mongo=%v", sq7.Err, mq7.Err)
	}
	if sq7.Rows != mq7.Rows {
		t.Errorf("Q7: sinew %d vs mongo %d", sq7.Rows, mq7.Rows)
	}
	if pg := f.RunQuery(SysPG, "Q7"); pg.Err == nil {
		t.Error("PG JSON Q7 should fail on multi-typed CAST")
	}

	// Q3/Q4 sparse projections: Sinew returns all rows (NULLs for absent).
	if o := f.RunQuery(SysSinew, "Q3"); o.Err != nil || o.Rows != int64(f.N) {
		t.Errorf("Q3 sinew rows=%d err=%v", o.Rows, o.Err)
	}

	// Tables render without error.
	for _, tbl := range []*Table{Table3(f), Figure6(f, io, 1), Figure7(f, io, 1), Figure8(f, io, 1)} {
		if !strings.Contains(tbl.String(), "Sinew") {
			t.Errorf("table missing Sinew column:\n%s", tbl)
		}
	}
}

func TestFigure7MongoScratchExhaustion(t *testing.T) {
	// Budget scratch below what the client-side join needs: the Mongo join
	// must DNF while the SQL systems complete (the paper's Figure 7).
	f, err := SetupNoBench(1000, 7, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	mongo := f.RunQuery(SysMongo, "Q11")
	if mongo.Err == nil {
		t.Error("expected Mongo Q11 to exhaust scratch budget")
	}
	sinew := f.RunQuery(SysSinew, "Q11")
	if sinew.Err != nil {
		t.Errorf("Sinew Q11 failed: %v", sinew.Err)
	}
}

func TestTable2PlanFlips(t *testing.T) {
	f, err := SetupTwitter(4000, 11)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Table2(f, false)
	if err != nil {
		t.Fatal(err)
	}
	find := func(q string) (virtual, physical string) {
		for _, row := range tbl.Rows {
			if row[0] == q {
				return row[1], row[2]
			}
		}
		t.Fatalf("row %s missing", q)
		return "", ""
	}
	// Q1: DISTINCT — HashAggregate virtual, Unique physical (Table 2 row 1).
	v, p := find("T1-1")
	if !strings.Contains(v, "HashAggregate") {
		t.Errorf("T1-1 virtual = %q, want HashAggregate", v)
	}
	if !strings.Contains(p, "Unique") {
		t.Errorf("T1-1 physical = %q, want Unique", p)
	}
	// Q2: GROUP BY — HashAggregate virtual, GroupAggregate physical.
	v, p = find("T1-2")
	if !strings.Contains(v, "HashAggregate") {
		t.Errorf("T1-2 virtual = %q, want HashAggregate", v)
	}
	if !strings.Contains(p, "GroupAggregate") {
		t.Errorf("T1-2 physical = %q, want GroupAggregate", p)
	}
	// Q3: the join algorithm flips — the virtual-column misestimate pushes
	// the second join past the hash work_mem threshold (merge join), while
	// correct estimates keep it hashed.
	v, p = find("T1-3")
	if !strings.Contains(v, "Merge Join") {
		t.Errorf("T1-3 virtual = %q, want a Merge Join", v)
	}
	if strings.Contains(p, "Merge Join") {
		t.Errorf("T1-3 physical = %q, want hash joins only", p)
	}
	// Q4 plans successfully in both states.
	v, p = find("T1-4")
	if v == "" || p == "" {
		t.Errorf("T1-4: empty plans (v=%q p=%q)", v, p)
	}
}

func TestTable4Serialization(t *testing.T) {
	tbl, err := Table4(500, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "Serialization (s)") || !strings.Contains(out, "Avro") {
		t.Errorf("table 4 malformed:\n%s", out)
	}
}

func TestTable5VirtualOverhead(t *testing.T) {
	f, err := SetupTwitter(1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Table5(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("table 5 rows: %v", tbl.Rows)
	}
}

func TestAblationsSmoke(t *testing.T) {
	// Tiny scales: these verify the ablation drivers end to end; the real
	// numbers come from the benchmarks.
	for name, fn := range map[string]func() (*Table, error){
		"hybrid":  func() (*Table, error) { return AblationHybrid(300, 1) },
		"dirty":   func() (*Table, error) { return AblationDirtyCoalesce(400, 2, 1) },
		"policy":  func() (*Table, error) { return AblationPolicy(300, 3) },
		"binsrch": func() (*Table, error) { return AblationBinarySearch(200, 4) },
		"arrays":  func() (*Table, error) { return AblationArrays(300, 5) },
	} {
		tbl, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", name)
		}
	}
}

func TestRowCountsTable(t *testing.T) {
	f, err := SetupNoBench(800, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := RowCounts(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 11 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
}

func TestIOModel(t *testing.T) {
	m := IOModel{BandwidthBytesPerSec: 100e6, MemoryBytes: 1000}
	// Below memory: CPU time stands.
	if got := m.Effective(time.Second, 1e9, 500); got != time.Second {
		t.Errorf("warm = %v", got)
	}
	// Above memory, IO dominates: 1e9 bytes / 100MB/s = 10s.
	if got := m.Effective(time.Second, 1e9, 2000); got != 10*time.Second {
		t.Errorf("io-bound = %v", got)
	}
	// Above memory, CPU dominates.
	if got := m.Effective(time.Minute, 1e6, 2000); got != time.Minute {
		t.Errorf("cpu-bound = %v", got)
	}
	// Zero-valued model is a no-op.
	if got := (IOModel{}).Effective(time.Second, 1e12, 1e12); got != time.Second {
		t.Errorf("zero model = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"A", "BBBB"}}
	tbl.AddRow("x", "1")
	tbl.AddRow("longer", "22")
	tbl.AddNote("note %d", 7)
	out := tbl.String()
	for _, w := range []string{"T\n", "A", "BBBB", "longer", "note: note 7"} {
		if !strings.Contains(out, w) {
			t.Errorf("rendering missing %q:\n%s", w, out)
		}
	}
}
