package rdbms

import (
	"math"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// TestStatsDistinctMatchesCountDistinct holds ANALYZE's n_distinct to the
// executor's equality rule on the values where a byte key and SQL equality
// part ways: 2^53 and 2^53+1 are two BIGINTs (one float64), and -0.0 and
// 0.0 are one DOUBLE (two bit patterns).
func TestStatsDistinctMatchesCountDistinct(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (b bigint, d double precision)`)
	var rows []storage.Row
	for i := 0; i < 3; i++ {
		rows = append(rows,
			storage.Row{types.NewInt(1 << 53), types.NewFloat(math.Copysign(0, -1))},
			storage.Row{types.NewInt(1<<53 + 1), types.NewFloat(0)},
		)
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	_, stats, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"b", "d"} {
		res := mustExec(t, db, `SELECT COUNT(DISTINCT `+col+`) FROM t`)
		if want, got := res.Rows[0][0].I, stats.Columns[col].NDistinct; got != want {
			t.Errorf("%s: n_distinct %d, COUNT(DISTINCT) %d", col, got, want)
		}
	}
	if b := stats.Columns["b"]; b.NDistinct != 2 || len(b.MCVs) != 2 || b.MCVs[0].Freq != 0.5 {
		t.Errorf("b: n_distinct %d, MCVs %v; want 2 values of frequency 0.5", b.NDistinct, b.MCVs)
	}
	if d := stats.Columns["d"]; d.NDistinct != 1 || len(d.MCVs) != 1 || d.MCVs[0].Freq != 1 {
		t.Errorf("d: n_distinct %d, MCVs %v; want 1 value of frequency 1", d.NDistinct, d.MCVs)
	}
}
