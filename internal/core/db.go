package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/sinewdata/sinew/internal/rdbms"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
	"github.com/sinewdata/sinew/internal/textindex"
)

// ReservoirColumn is the physical column holding each document's serialized
// virtual attributes (§3.1.1's "column reservoir").
const ReservoirColumn = "data"

// IDColumn is the per-document row identity column.
const IDColumn = "_id"

// Config holds Sinew's tunables.
type Config struct {
	// DensityThreshold is the minimum fraction of documents containing a
	// key for it to be materialized (§6.1 used 0.6).
	DensityThreshold float64
	// CardinalityThreshold is the minimum distinct-value count for
	// materialization (§6.1 used 200): low-cardinality columns are exactly
	// where the optimizer's fixed default estimate is least harmful.
	CardinalityThreshold int64
	// EnableTextIndex maintains the inverted index at load time (§4.3).
	EnableTextIndex bool
}

// DefaultConfig mirrors the paper's §6.1 materialization policy.
func DefaultConfig() Config {
	return Config{DensityThreshold: 0.6, CardinalityThreshold: 200}
}

// ArrayMode selects the physical strategy for array-valued keys (§4.2).
type ArrayMode int

// Array strategies.
const (
	// ArrayAsDatum stores the array as an RDBMS array value (default).
	ArrayAsDatum ArrayMode = iota
	// ArrayPositional additionally catalogs fixed positions as dot-indexed
	// attributes ("key.0", "key.1", ...) which may then be materialized as
	// their own columns.
	ArrayPositional
	// ArraySeparateTable shreds array elements into a side table
	// <collection>__<key>_elems(parent_id, idx, elem_*).
	ArraySeparateTable
)

// CollectionOptions customize one collection's load behaviour.
type CollectionOptions struct {
	// ArrayModes maps a key to its strategy; keys not listed use
	// ArrayAsDatum.
	ArrayModes map[string]ArrayMode
	// PositionalLimit caps positions cataloged under ArrayPositional.
	PositionalLimit int
	// SplitNested lists nested-object keys stored in their own
	// sub-collection instead of inline (§4.2's relaxation of the universal
	// relation: "logical groups … put in separate tables and joined
	// together at query time"). The sub-collection is named
	// <collection>__<key>, carries a parent_id key referencing the parent
	// _id, and is itself a full Sinew collection (analyzable,
	// materializable, queryable).
	SplitNested []string
}

// QueryResult is the materialized result of a Sinew query (an alias of the
// underlying RDBMS result type).
type QueryResult = rdbms.Result

// DB is a Sinew database: a universal-relation view over multi-structured
// documents stored in an unmodified RDBMS.
type DB struct {
	rdb *rdbms.DB
	cat *Catalog
	cfg Config

	index *textindex.Index

	optsMu   sync.RWMutex
	collOpts map[string]CollectionOptions

	matchMu   sync.Mutex
	matchSets map[int64]map[int64]struct{}
	nextSet   int64
}

// Open creates a Sinew database over a fresh embedded RDBMS.
func Open(cfg Config) *DB {
	db := &DB{
		rdb:       rdbms.Open(),
		cat:       NewCatalog(),
		cfg:       cfg,
		collOpts:  make(map[string]CollectionOptions),
		matchSets: make(map[int64]map[int64]struct{}),
	}
	if cfg.EnableTextIndex {
		db.index = textindex.New()
	}
	db.registerUDFs()
	return db
}

// RDBMS exposes the underlying database (EXPLAIN, plan-config tweaks, and
// the baselines' shared substrate in benchmarks).
func (db *DB) RDBMS() *rdbms.DB { return db.rdb }

// Catalog exposes Sinew's catalog.
func (db *DB) Catalog() *Catalog { return db.cat }

// Config returns the active configuration.
func (db *DB) Config() Config { return db.cfg }

// CreateCollection creates the backing table: (_id bigint NOT NULL,
// data bytea) — the all-virtual starting point of the hybrid schema.
func (db *DB) CreateCollection(name string, opts ...CollectionOptions) error {
	name = strings.ToLower(name)
	if err := validateCollectionName(name); err != nil {
		return err
	}
	err := db.rdb.CreateTable(name, []storage.Column{
		{Name: IDColumn, Typ: types.Int, NotNull: true},
		{Name: ReservoirColumn, Typ: types.Bytes},
	}, false)
	if err != nil {
		return err
	}
	// Maintain per-page attribute-presence summaries over the reservoir
	// column (index 1 above): sparse-key selections skip whole pages whose
	// summary proves the key absent. The segmenter lets ANALYZE freeze
	// cold pages into column-striped segments the batch pipeline reads
	// directly.
	if heap, _, terr := db.rdb.Table(name); terr == nil {
		heap.SetAttrSummarizer(1, reservoirSummarizer)
		heap.SetColumnSegmenter(db.reservoirSegmenter())
	}
	db.cat.Collection(name)
	if len(opts) > 0 {
		db.optsMu.Lock()
		db.collOpts[name] = opts[0]
		db.optsMu.Unlock()
	}
	return nil
}

func validateCollectionName(name string) error {
	if name == "" {
		return fmt.Errorf("core: empty collection name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9') {
			return fmt.Errorf("core: invalid collection name %q", name)
		}
	}
	return nil
}

func (db *DB) options(name string) CollectionOptions {
	db.optsMu.RLock()
	defer db.optsMu.RUnlock()
	return db.collOpts[name]
}

// DatabaseSizeBytes reports total storage (Table 3).
func (db *DB) DatabaseSizeBytes() int64 { return db.rdb.TotalSizeBytes() }

// physicalColumnName picks the RDBMS column name for an attribute: the raw
// key unless it collides with the fixed columns or with a sibling attribute
// of another type — one that has a column, or is about to get one among
// pending — in which case the type name is appended.
func (db *DB) physicalColumnName(tc *CollectionCatalog, col ColumnState, pending []storage.Column) string {
	name := col.Key
	clash := name == IDColumn || name == ReservoirColumn ||
		slices.ContainsFunc(pending, func(c storage.Column) bool { return c.Name == name })
	for _, sibling := range tc.schemaView().byKey[col.Key] {
		if sibling.AttrID != col.AttrID && sibling.PhysicalName == name {
			clash = true
		}
	}
	if clash {
		return name + "$" + col.Type.String()
	}
	return name
}

// registerMatchSet caches a text-index result set for the rewritten query
// to probe; it returns the set handle.
func (db *DB) registerMatchSet(ids []textindex.DocID) int64 {
	set := make(map[int64]struct{}, len(ids))
	for _, id := range ids {
		set[int64(id)] = struct{}{}
	}
	db.matchMu.Lock()
	defer db.matchMu.Unlock()
	handle := db.nextSet
	db.nextSet++
	db.matchSets[handle] = set
	return handle
}

func (db *DB) lookupMatchSet(handle int64) (map[int64]struct{}, bool) {
	db.matchMu.Lock()
	defer db.matchMu.Unlock()
	s, ok := db.matchSets[handle]
	return s, ok
}

// releaseMatchSet frees a cached result set after the statement runs.
func (db *DB) releaseMatchSet(handle int64) {
	db.matchMu.Lock()
	delete(db.matchSets, handle)
	db.matchMu.Unlock()
}

// dictTyped is a convenience for UDF closures.
func (db *DB) dict() *serial.Dictionary { return db.cat.Dict() }

// reservoirSummarizer lists the attribute IDs present in one serialized
// reservoir value (the record header's sorted ID array). A non-bytes value
// or a corrupt header invalidates the page summary rather than risking a
// wrong skip.
func reservoirSummarizer(d types.Datum) ([]uint32, bool) {
	if d.Typ != types.Bytes {
		return nil, false
	}
	ids, err := serial.AttrIDs(d.Bytes())
	if err != nil {
		return nil, false
	}
	return ids, true
}
