package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
)

// benchFixture loads n simple documents with one materialized and one
// virtual column.
func benchFixture(b *testing.B, n int) *DB {
	b.Helper()
	db := Open(DefaultConfig())
	if err := db.CreateCollection("b"); err != nil {
		b.Fatal(err)
	}
	docs := make([]*jsonx.Doc, n)
	for i := range docs {
		d := jsonx.NewDoc()
		d.Set("phys", jsonx.IntValue(int64(i)))
		d.Set("virt", jsonx.IntValue(int64(i)))
		d.Set("pad", jsonx.StringValue("some padding text to scan past"))
		docs[i] = d
	}
	if _, err := db.LoadDocuments("b", docs); err != nil {
		b.Fatal(err)
	}
	if err := db.SetMaterialized("b", "phys", true); err != nil {
		b.Fatal(err)
	}
	if _, err := NewMaterializer(db).RunOnce("b"); err != nil {
		b.Fatal(err)
	}
	if err := db.RDBMS().Analyze("b"); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkQueryPhysicalColumn is the Appendix B physical baseline.
func BenchmarkQueryPhysicalColumn(b *testing.B) {
	db := benchFixture(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT COUNT(*) FROM b WHERE phys >= 2500`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryVirtualColumn is the Appendix B virtual counterpart.
func BenchmarkQueryVirtualColumn(b *testing.B) {
	db := benchFixture(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT COUNT(*) FROM b WHERE virt >= 2500`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad measures loader throughput (docs/op reported via N).
func BenchmarkLoad(b *testing.B) {
	docs := make([]*jsonx.Doc, 1000)
	for i := range docs {
		d := jsonx.NewDoc()
		d.Set("k", jsonx.IntValue(int64(i)))
		d.Set("s", jsonx.StringValue(fmt.Sprintf("value %d", i)))
		docs[i] = d
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := Open(DefaultConfig())
		if err := db.CreateCollection("l"); err != nil {
			b.Fatal(err)
		}
		if _, err := db.LoadDocuments("l", docs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterializerPass measures one full materialization pass.
func BenchmarkMaterializerPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := Open(DefaultConfig())
		db.CreateCollection("m")
		docs := make([]*jsonx.Doc, 2000)
		for j := range docs {
			d := jsonx.NewDoc()
			d.Set("v", jsonx.IntValue(int64(j)))
			docs[j] = d
		}
		db.LoadDocuments("m", docs)
		db.SetMaterialized("m", "v", true)
		m := NewMaterializer(db)
		b.StartTimer()
		if _, err := m.RunOnce("m"); err != nil {
			b.Fatal(err)
		}
	}
}

// wideCatalogFixture loads n NoBench documents, keeping only the first
// keepSparse keys of the sparse pool, and lays the collection out the way
// the schema analyzer's policy decides (analyze, materialize, ANALYZE).
func wideCatalogFixture(b *testing.B, n, keepSparse int) *DB {
	b.Helper()
	docs := nobench.Generate(n, 1)
	for _, d := range docs {
		for _, k := range d.Keys() {
			if num, ok := strings.CutPrefix(k, "sparse_"); ok {
				if i, err := strconv.Atoi(num); err == nil && i >= keepSparse {
					d.Delete(k)
				}
			}
		}
	}
	db := Open(DefaultConfig())
	const table = "nobench_main"
	if err := db.CreateCollection(table); err != nil {
		b.Fatal(err)
	}
	if _, err := db.LoadDocuments(table, docs); err != nil {
		b.Fatal(err)
	}
	if _, err := db.AnalyzeSchema(table); err != nil {
		b.Fatal(err)
	}
	if _, err := NewMaterializer(db).RunOnce(table); err != nil {
		b.Fatal(err)
	}
	if err := db.RDBMS().Analyze(table); err != nil {
		b.Fatal(err)
	}
	return db
}

var rewriteSink sqlparse.Statement

// BenchmarkRewriteWideCatalog measures the plan-cache-miss front end on the
// three sinewd_point shapes (NoBench Q5, Q6, Q10 with rotating constants):
// the rewrite alone, and DB.Query end to end with four times more distinct
// texts than the plan cache holds, so every statement misses. The narrow
// and wide catalogs differ only in attribute count (~35 vs 1 000+): after
// bind the rewriter reads one immutable catalog view, so its ns/op and
// allocs/op must not grow with the catalog.
func BenchmarkRewriteWideCatalog(b *testing.B) {
	const n, texts = 20000, 1024
	shapes := []struct {
		name string
		text func(k int) string
	}{
		{"Q5", func(k int) string {
			return fmt.Sprintf(`SELECT * FROM nobench_main WHERE str1 = '%s'`, nobench.StrValue(int64(k)))
		}},
		{"Q6", func(k int) string {
			return fmt.Sprintf(`SELECT * FROM nobench_main WHERE num BETWEEN %d AND %d`, k, k+n/1000)
		}},
		{"Q10", func(k int) string {
			return fmt.Sprintf(`SELECT thousandth, COUNT(*) FROM nobench_main WHERE num BETWEEN %d AND %d GROUP BY thousandth`, k, k+n/1000)
		}},
	}
	for _, cat := range []struct {
		name       string
		keepSparse int
	}{{"narrow", 20}, {"wide", nobench.SparsePool}} {
		db := wideCatalogFixture(b, n, cat.keepSparse)
		tc, _ := db.cat.Lookup("nobench_main")
		b.Logf("%s catalog: %s", cat.name, tc)
		for _, sh := range shapes {
			sqls := make([]string, texts)
			stmts := make([]sqlparse.Statement, texts)
			for i := range sqls {
				sqls[i] = sh.text(i * 17 % (n - n/1000 - 1))
				st, err := sqlparse.Parse(sqls[i])
				if err != nil {
					b.Fatal(err)
				}
				stmts[i] = st
			}
			b.Run(cat.name+"/"+sh.name+"/rewrite", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, cleanup, err := db.RewriteStmt(stmts[i%texts])
					if err != nil {
						b.Fatal(err)
					}
					cleanup()
					rewriteSink = out
				}
			})
			b.Run(cat.name+"/"+sh.name+"/query", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(sqls[i%texts]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
