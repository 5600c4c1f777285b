package core

import (
	"fmt"
	"strings"
)

// AnalyzeDecision records one schema-analyzer outcome for observability.
type AnalyzeDecision struct {
	Key          string
	Type         string
	Density      float64
	Cardinality  int64
	Materialize  bool // target state after the decision
	Changed      bool // whether the decision flipped the column's state
	PhysicalName string
}

// AnalyzeSchema runs the schema analyzer (§3.1.3) over one collection: it
// evaluates every cataloged column against the density and cardinality
// thresholds and flips target storage modes, marking flipped columns dirty
// for the materializer. Columns whose characteristics drop back below
// threshold are marked for dematerialization.
//
// It returns the per-column decisions (changed ones first).
func (db *DB) AnalyzeSchema(collection string) ([]AnalyzeDecision, error) {
	collection = strings.ToLower(collection)
	tc, ok := db.cat.Lookup(collection)
	if !ok {
		return nil, fmt.Errorf("core: collection %q does not exist", collection)
	}
	docCount := tc.DocCount()
	if docCount == 0 {
		return nil, nil
	}
	var decisions []AnalyzeDecision
	for _, col := range tc.Columns() {
		density := float64(col.Count) / float64(docCount)
		card := col.Cardinality()
		want := density >= db.cfg.DensityThreshold && card > db.cfg.CardinalityThreshold
		d := AnalyzeDecision{
			Key: col.Key, Type: col.Type.String(),
			Density: density, Cardinality: card, Materialize: want,
		}
		d.Changed = tc.setTarget(col.AttrID, want)
		d.PhysicalName = col.PhysicalName
		decisions = append(decisions, d)
	}
	// Changed first, then by key, for readable reports.
	for i := 0; i < len(decisions); i++ {
		for j := i + 1; j < len(decisions); j++ {
			a, b := decisions[i], decisions[j]
			if (b.Changed && !a.Changed) || (a.Changed == b.Changed && b.Key < a.Key) {
				decisions[i], decisions[j] = b, a
			}
		}
	}
	for _, d := range decisions {
		if d.Changed {
			// Flipped storage targets change the rewriter's output (COALESCE
			// over dirty columns); cached plans are stale.
			db.rdb.BumpCatalogEpoch()
			break
		}
	}
	return decisions, nil
}

// SetMaterialized overrides the analyzer for one key, setting its target
// storage mode explicitly and marking it dirty when the mode flips.
// Benchmarks and the ablation studies use it to pin the paper's exact
// materialization set; typo-free operation requires the key to exist.
func (db *DB) SetMaterialized(collection, key string, want bool) error {
	tc, ok := db.cat.Lookup(strings.ToLower(collection))
	if !ok {
		return fmt.Errorf("core: collection %q does not exist", collection)
	}
	cols := tc.schemaView().byKey[key]
	if len(cols) == 0 {
		return fmt.Errorf("core: key %q has never been observed in %q", key, collection)
	}
	flipped := false
	for _, col := range cols {
		if tc.setTarget(col.AttrID, want) {
			flipped = true
		}
	}
	if flipped {
		db.rdb.BumpCatalogEpoch()
	}
	return nil
}

// MaterializedColumns lists the physical (non-reservoir) logical columns of
// a collection in catalog order.
func (db *DB) MaterializedColumns(collection string) []*ColumnInfo {
	tc, ok := db.cat.Lookup(strings.ToLower(collection))
	if !ok {
		return nil
	}
	var out []*ColumnInfo
	cols := tc.Columns()
	for i := range cols {
		if c := &cols[i]; c.Materialized || c.PhysicalName != "" {
			out = append(out, c)
		}
	}
	return out
}
