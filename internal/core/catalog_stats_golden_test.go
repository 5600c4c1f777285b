package core

import (
	"bytes"
	"flag"
	"fmt"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/twittergen"
)

var updateCatalogGolden = flag.Bool("update-catalog-golden", false, "rewrite testdata/catalog_stats_golden.txt")

// TestCatalogStatsGolden pins what the loader leaves in the catalog and what
// the schema analyzer decides from it — per column: occurrence count,
// (saturating) cardinality, target storage mode — on 20 000 NoBench records
// plus 5 000 tweets loaded in 1 000-document batches. The golden file was
// captured before the loader stopped building value keys for columns whose
// cardinality had saturated; the statistics must not notice.
func TestCatalogStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 25 000 documents")
	}
	db := Open(DefaultConfig())
	load := func(table string, docs []*jsonx.Doc) {
		t.Helper()
		if err := db.CreateCollection(table); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(docs); i += 1000 {
			if _, err := db.LoadDocuments(table, docs[i:min(i+1000, len(docs))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var nb []*jsonx.Doc
	for g := nobench.NewGenerator(20000, 20140622); ; {
		d, ok := g.Next()
		if !ok {
			break
		}
		nb = append(nb, d)
	}
	load("nobench_main", nb)
	load("tweets", twittergen.GenerateTweets(5000, 20140622, twittergen.DefaultConfig(5000)))

	var got bytes.Buffer
	for _, table := range []string{"nobench_main", "tweets"} {
		tc, _ := db.Catalog().Lookup(table)
		fmt.Fprintf(&got, "collection %s docs=%d\n", table, tc.DocCount())
		cols := tc.Columns()
		decisions, err := db.AnalyzeSchema(table)
		if err != nil {
			t.Fatal(err)
		}
		decided := make(map[string]AnalyzeDecision, len(decisions))
		for _, d := range decisions {
			decided[d.Key+" "+d.Type] = d
		}
		for _, c := range cols {
			d := decided[c.Key+" "+c.Type.String()]
			fmt.Fprintf(&got, "%s %s n=%d card=%d | density=%.4f card=%d mat=%t\n",
				c.Key, c.Type, c.Count, c.Cardinality(), d.Density, d.Cardinality, d.Materialize)
		}
	}

	checkGolden(t, "testdata/catalog_stats_golden.txt", got.String(), *updateCatalogGolden)
}
