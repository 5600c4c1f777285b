package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/sinewdata/sinew/internal/serial"
)

// TestCardinalityMatchesExactCount: the catalog's distinct sets hold value
// fingerprints, not values, and still count exactly what a map of the
// values themselves counts — up to cardTrackLimit, past which the count
// saturates. The corpora are drawn from a small alphabet whose pieces run
// together ("a"+"ba" is "ab"+"a"), so the same value arrives by many
// routes, and are loaded over several batches so that saturation carries
// across them.
func TestCardinalityMatchesExactCount(t *testing.T) {
	pieces := []string{"", "a", "b", "ab", "ba"}
	for _, tc := range []struct {
		name      string
		docs      int
		maxPieces int
	}{
		{"few", 3000, 3},
		{"near-limit", 6000, 6},
		{"saturating", 12000, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(tc.docs)))
			word := func() string {
				var sb strings.Builder
				for n := r.Intn(tc.maxPieces + 1); n > 0; n-- {
					sb.WriteString(pieces[r.Intn(len(pieces))])
				}
				return sb.String()
			}
			db := Open(DefaultConfig())
			if err := db.CreateCollection("c"); err != nil {
				t.Fatal(err)
			}
			// exact counts distinct values per (key, type) column.
			exact := map[string]map[string]bool{}
			see := func(col, v string) {
				if exact[col] == nil {
					exact[col] = map[string]bool{}
				}
				exact[col][v] = true
			}
			for batch := 0; batch < 4; batch++ {
				var lines bytes.Buffer
				for i := 0; i < tc.docs/4; i++ {
					s, n := word(), len(word())*7+r.Intn(7)
					arr := fmt.Sprintf(`[%q,%q]`, word(), word())
					fmt.Fprintf(&lines, `{"s":%q,"n":%d,"arr":%s`, s, n, arr)
					see("s", s)
					see("n", fmt.Sprint(n))
					see("arr", arr)
					// m is text or integer: two columns, one per type.
					if r.Intn(2) == 0 {
						fmt.Fprintf(&lines, `,"m":%q`, s)
						see("m/text", s)
					} else {
						fmt.Fprintf(&lines, `,"m":%d`, n)
						see("m/int", fmt.Sprint(n))
					}
					lines.WriteString("}\n")
				}
				if _, err := db.LoadJSONLines("c", &lines); err != nil {
					t.Fatal(err)
				}
			}
			cat, _ := db.cat.Lookup("c")
			saturated := false
			for _, c := range cat.Columns() {
				col := c.Key
				if c.Key == "m" {
					col = "m/text"
					if c.Type == serial.TypeInt {
						col = "m/int"
					}
				}
				if exact[col] == nil {
					t.Fatalf("unexpected column %s (%v)", c.Key, c.Type)
				}
				want := min(int64(len(exact[col])), cardTrackLimit+1)
				if got := c.Cardinality(); got != want {
					t.Errorf("%s: Cardinality() = %d, want %d (%d distinct values)", col, got, want, len(exact[col]))
				}
				saturated = saturated || want > cardTrackLimit
				delete(exact, col)
			}
			if len(exact) != 0 {
				t.Fatalf("columns missing from the catalog: %v", exact)
			}
			if saturated != (tc.name == "saturating") {
				t.Fatalf("corpus %s: saturated = %v", tc.name, saturated)
			}
		})
	}
}
