package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/twittergen"
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

// ndjsonBatches renders docs as newline-delimited JSON, size documents per
// batch.
func ndjsonBatches(docs []*jsonx.Doc, size int) [][]byte {
	var out [][]byte
	for i := 0; i < len(docs); i += size {
		var batch []byte
		for _, d := range docs[i:min(i+size, len(docs))] {
			batch = append(batch, jsonx.ObjectValue(d).String()...)
			batch = append(batch, '\n')
		}
		out = append(out, batch)
	}
	return out
}

// BenchmarkLoadJSONLines measures the write path the way the repository's
// benchmark drives it: a fresh collection, then the corpus through
// LoadJSONLines in 1 000-document batches, so the first batches pay for
// schema evolution and the rest run against a known dictionary. One
// iteration is one whole corpus; the per-document figures include
// InsertRows.
func BenchmarkLoadJSONLines(b *testing.B) {
	for _, corpus := range []struct {
		name string
		docs []*jsonx.Doc
	}{
		{"nobench", nobench.Generate(20000, 20140622)},
		{"tweets", twittergen.GenerateTweets(5000, 20140622, twittergen.DefaultConfig(5000))},
	} {
		batches := ndjsonBatches(corpus.docs, 1000)
		var userBytes int64
		for _, batch := range batches {
			userBytes += int64(len(batch))
		}
		b.Run(corpus.name, func(b *testing.B) {
			b.SetBytes(userBytes)
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db := Open(DefaultConfig())
				if err := db.CreateCollection("l"); err != nil {
					b.Fatal(err)
				}
				for _, batch := range batches {
					if _, err := db.LoadJSONLines("l", bytes.NewReader(batch)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			docs := float64(b.N * len(corpus.docs))
			b.ReportMetric(docs/b.Elapsed().Seconds(), "docs/s")
			b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/docs, "B/doc")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/docs, "allocs/doc")
		})
	}
}

// benchOptimizeStep times one step of the optimize sequence — schema
// analysis, a materializer pass, ANALYZE with its freeze — on 20 000 NoBench
// documents loaded the way the repository's benchmark loads them, laid out
// as the schema analyzer's policy decides. prepare runs untimed on the
// loaded collection, step is what is measured; figures are per document.
func benchOptimizeStep(b *testing.B, prepare, step func(db *DB) error) {
	const table, docs = "nobench_main", 20000
	b.StopTimer() // only step is timed
	batches := ndjsonBatches(nobench.Generate(docs, 20140622), 1000)
	var mallocs, bytes uint64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < b.N; i++ {
		db := Open(DefaultConfig())
		if err := db.CreateCollection(table); err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if _, err := db.LoadJSONLines(table, strings.NewReader(string(batch))); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := db.AnalyzeSchema(table); err != nil {
			b.Fatal(err)
		}
		if err := prepare(db); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms0)
		b.StartTimer()
		if err := step(db); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	n := float64(b.N * docs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/doc")
	b.ReportMetric(float64(mallocs)/n, "allocs/doc")
	b.ReportMetric(float64(bytes)/n, "B/doc")
}

// BenchmarkMaterializerPass measures one full materializer pass under the
// policy's layout: 8 columns, 160 000 values moved, every page un-frozen.
func BenchmarkMaterializerPass(b *testing.B) {
	benchOptimizeStep(b,
		func(*DB) error { return nil },
		func(db *DB) error {
			moved, err := NewMaterializer(db).RunOnce("nobench_main")
			if err == nil && moved != 160000 {
				err = fmt.Errorf("the pass moved %d values, want 160000", moved)
			}
			return err
		})
}

// BenchmarkAnalyzeFreeze measures ANALYZE after that pass: page summaries,
// per-column statistics, and every full page frozen into segments.
func BenchmarkAnalyzeFreeze(b *testing.B) {
	benchOptimizeStep(b,
		func(db *DB) error {
			_, err := NewMaterializer(db).RunOnce("nobench_main")
			return err
		},
		func(db *DB) error { return db.RDBMS().Analyze("nobench_main") })
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

// BenchmarkRewriteWideCatalog measures the front end on the three
// sinewd_point shapes (NoBench Q5, Q6, Q10 with rotating constants): the
// rewrite alone; DB.Query end to end over four times more distinct texts
// than the plan cache holds, which all hit their shape's plan (query); and
// DB.Query with the epoch bumped before every statement, so each one
// parses, rewrites and plans its shape (query-miss). The narrow and wide
// catalogs differ only in attribute count (~35 vs 1 000+): after bind the
// rewriter reads one immutable catalog view, so its ns/op and allocs/op
// must not grow with the catalog.
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
			b.Run(cat.name+"/"+sh.name+"/query-miss", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					db.rdb.BumpCatalogEpoch() // invalidate: every statement re-plans
					if _, err := db.Query(sqls[i%texts]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
