package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/twittergen"
)

var updateCatalogGolden = flag.Bool("update-catalog-golden", false, "rewrite testdata/catalog_stats_golden.txt")

// TestCatalogStatsGolden pins what the loader leaves in the catalog and what
// the schema analyzer decides from it — per column: occurrence count,
// (saturating) cardinality, target storage mode — on 20 000 NoBench records
// plus 5 000 tweets loaded in 1 000-document batches. The golden file was
// captured when the loader still walked a document tree four times and
// keyed distinct values by their datum's hash key; LoadDocuments and
// LoadJSONLines (records straight from the bytes, distinct values keyed by
// their serialized bytes) must both reproduce it, and leave the same
// dictionary and the same reservoir bytes.
func TestCatalogStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 25 000 documents twice")
	}
	var nb []*jsonx.Doc
	for g := nobench.NewGenerator(20000, 20140622); ; {
		d, ok := g.Next()
		if !ok {
			break
		}
		nb = append(nb, d)
	}
	corpora := []struct {
		table string
		docs  []*jsonx.Doc
	}{
		{"nobench_main", nb},
		{"tweets", twittergen.GenerateTweets(5000, 20140622, twittergen.DefaultConfig(5000))},
	}

	stored := map[string]string{}
	for _, path := range []string{"LoadDocuments", "LoadJSONLines"} {
		db := Open(DefaultConfig())
		for _, c := range corpora {
			if err := db.CreateCollection(c.table); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(c.docs); i += 1000 {
				batch := c.docs[i:min(i+1000, len(c.docs))]
				var err error
				if path == "LoadDocuments" {
					_, err = db.LoadDocuments(c.table, batch)
				} else {
					_, err = db.LoadJSONLines(c.table, bytes.NewReader(ndjsonBatches(batch, len(batch))[0]))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}

		// Reservoir bytes and dictionary, before the analyzer touches
		// anything: equal across the two paths.
		sum := sha256.New()
		for _, c := range corpora {
			err := db.RDBMS().ScanTable(c.table, func(_ storage.RowID, row storage.Row) bool {
				fmt.Fprintf(sum, "%d %x\n", row[0].I, row[1].Bytes())
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range db.Catalog().Dict().All() {
			fmt.Fprintf(sum, "%d %s %s\n", a.ID, a.Key, a.Type)
		}
		stored[path] = fmt.Sprintf("%x", sum.Sum(nil))

		var got bytes.Buffer
		for _, c := range corpora {
			tc, _ := db.Catalog().Lookup(c.table)
			fmt.Fprintf(&got, "collection %s docs=%d\n", c.table, tc.DocCount())
			cols := tc.Columns()
			decisions, err := db.AnalyzeSchema(c.table)
			if err != nil {
				t.Fatal(err)
			}
			decided := make(map[string]AnalyzeDecision, len(decisions))
			for _, d := range decisions {
				decided[d.Key+" "+d.Type] = d
			}
			for _, col := range cols {
				d := decided[col.Key+" "+col.Type.String()]
				fmt.Fprintf(&got, "%s %s n=%d card=%d | density=%.4f card=%d mat=%t\n",
					col.Key, col.Type, col.Count, col.Cardinality(), d.Density, d.Cardinality, d.Materialize)
			}
		}
		// Only the tree path may rewrite the golden file: it is the one
		// the file was captured from.
		checkGolden(t, "testdata/catalog_stats_golden.txt", got.String(), *updateCatalogGolden && path == "LoadDocuments")
	}
	// SHA-256 over every row's (_id, reservoir bytes) and the dictionary,
	// from the commit before the one-pass loader (PR 13).
	const parentStored = "0b24445844a9c7ff1d73a0fc8a368be28b753c9df7f02118c949d0084d3bf82a"
	for path, got := range stored {
		if got != parentStored {
			t.Errorf("%s: reservoir bytes or dictionary drifted: sha256 %s, want %s", path, got, parentStored)
		}
	}
}
