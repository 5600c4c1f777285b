// Package sinew is a Go implementation of Sinew (Tahara, Diamond, Abadi —
// SIGMOD 2014): a SQL system for multi-structured data. It stores arbitrary
// JSON documents inside physical and virtual columns of an embedded
// relational database and presents a dynamic universal-relation view the
// user queries with standard SQL — no schema declaration at any point.
//
// # Quick start
//
//	db := sinew.Open(sinew.DefaultConfig())
//	db.CreateCollection("webrequests")
//	db.LoadJSONLines("webrequests", strings.NewReader(
//		`{"url":"www.sample-site.com","hits":22,"country":"pl"}`+"\n"+
//		`{"url":"www.sample-site2.com","hits":15,"owner":"John P. Smith"}`))
//	res, err := db.Query(`SELECT url FROM webrequests WHERE hits > 20`)
//
// Every unique key (nested keys dot-delimited, e.g. "user.id") is a column
// of the logical view. Behind the scenes the schema analyzer
// (DB.AnalyzeSchema) decides which keys earn physical columns, and a
// background column materializer (NewMaterializer) moves values between the
// serialized column reservoir and physical columns one atomic row update at
// a time; queries remain correct throughout via automatic
// COALESCE-rewriting of partially materialized ("dirty") columns.
//
// LoadJSONLines takes each line from bytes to its stored record in one pass
// (no document tree unless the line introduces an attribute) and loads all
// of its lines or none: a malformed line is a *LoadError naming it. The
// sinewd service exposes the same call as POST /load?collection=….
//
// The package re-exports the implementation in internal/core; the embedded
// RDBMS substrate lives in internal/rdbms and is reachable through
// DB.RDBMS for EXPLAIN and optimizer tuning.
package sinew

import (
	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/rdbms"
)

// DB is a Sinew database handle. See the package documentation for the
// lifecycle: Open → CreateCollection → LoadJSONLines/LoadDocuments →
// Query/Explain, with AnalyzeSchema + Materializer runs interleaved at any
// point.
type DB = core.DB

// Config carries Sinew's tunables: the §3.1.3 materialization thresholds
// and the optional §4.3 text index.
type Config = core.Config

// CollectionOptions customize per-collection load behaviour (array
// strategies, §4.2).
type CollectionOptions = core.CollectionOptions

// ArrayMode selects an array storage strategy (§4.2).
type ArrayMode = core.ArrayMode

// Array strategies.
const (
	ArrayAsDatum       = core.ArrayAsDatum
	ArrayPositional    = core.ArrayPositional
	ArraySeparateTable = core.ArraySeparateTable
)

// Materializer is the background column materializer (§3.1.4).
type Materializer = core.Materializer

// LoadResult summarizes a bulk load.
type LoadResult = core.LoadResult

// LoadError is LoadJSONLines rejecting its input; it names the line.
type LoadError = core.LoadError

// AnalyzeDecision is one schema-analyzer outcome (§3.1.3).
type AnalyzeDecision = core.AnalyzeDecision

// Result is a query result: column names, types, and materialized rows.
type Result = rdbms.Result

// Open creates an in-memory Sinew database.
func Open(cfg Config) *DB { return core.Open(cfg) }

// DefaultConfig returns the paper's §6.1 policy: materialize keys present
// in ≥60% of documents with cardinality >200; text index off.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewMaterializer returns a column materializer for db. Run it in the
// background with Run, or drive it explicitly with RunOnce; Pause/Resume
// interrupt it between atomic row updates.
func NewMaterializer(db *DB) *Materializer { return core.NewMaterializer(db) }
