package rdbms

import (
	"fmt"
	"strings"
	"testing"
)

// benchDB builds a table of n rows for engine micro-benchmarks.
func benchDB(b *testing.B, n int) *DB {
	b.Helper()
	db := Open()
	if _, err := db.Exec(`CREATE TABLE t (id integer, grp integer, name text, score real)`); err != nil {
		b.Fatal(err)
	}
	const batch = 500
	for base := 0; base < n; base += batch {
		var sb strings.Builder
		sb.WriteString(`INSERT INTO t VALUES `)
		for i := 0; i < batch && base+i < n; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			id := base + i
			fmt.Fprintf(&sb, "(%d, %d, 'name%d', %g)", id, id%100, id%1000, float64(id)/3)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Exec(`ANALYZE t`); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchQuery(b *testing.B, sql string) {
	db := benchDB(b, 10000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeqScanFilter(b *testing.B) {
	benchQuery(b, `SELECT id FROM t WHERE score > 3000`)
}

func BenchmarkHashAggregate(b *testing.B) {
	benchQuery(b, `SELECT grp, COUNT(*), SUM(score) FROM t GROUP BY grp`)
}

func BenchmarkSortHeavy(b *testing.B) {
	benchQuery(b, `SELECT id FROM t ORDER BY score DESC LIMIT 10`)
}

// BenchmarkSortFull is an ORDER BY without a LIMIT: a full sort.
func BenchmarkSortFull(b *testing.B) {
	benchQuery(b, `SELECT id, name FROM t ORDER BY score DESC`)
}

func BenchmarkHashJoinSelf(b *testing.B) {
	benchQuery(b, `SELECT COUNT(*) FROM t a, t b WHERE a.id = b.id`)
}

func BenchmarkPointUpdate(b *testing.B) {
	db := benchDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(fmt.Sprintf(`UPDATE t SET score = 0 WHERE id = %d`, i%10000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanOnly(b *testing.B) {
	db := benchDB(b, 1000)
	stmt := `SELECT grp, COUNT(*) FROM t WHERE score > 10 GROUP BY grp ORDER BY grp LIMIT 5`
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(`EXPLAIN ` + stmt); err != nil {
			b.Fatal(err)
		}
	}
}
