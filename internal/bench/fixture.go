package bench

import (
	"fmt"
	"time"

	"github.com/sinewdata/sinew/internal/core"
	"github.com/sinewdata/sinew/internal/docstore"
	"github.com/sinewdata/sinew/internal/eav"
	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/nobench"
	"github.com/sinewdata/sinew/internal/pgjson"
)

// PaperMaterializedKeys is the §6.1 materialization outcome: "str1, num,
// nested_array, nested_object (itself a serialized data column), and
// thousandth"; the other keys (dynamic and sparse included) stay virtual.
var PaperMaterializedKeys = []string{"str1", "num", "nested_arr", "nested_obj", "thousandth"}

// NoBenchFixture holds the four benchmarked systems loaded with one
// NoBench dataset.
type NoBenchFixture struct {
	N   int
	Par nobench.Params

	Sinew     *core.DB
	Mongo     *docstore.Store
	MongoColl *docstore.Collection
	EAV       *eav.DB
	PG        *pgjson.DB

	// LoadTime and SizeBytes index by system name (Table 3).
	LoadTime  map[string]time.Duration
	SizeBytes map[string]int64
	// OriginalBytes is the raw JSON input size (Table 3's last row).
	OriginalBytes int64
}

// SetupNoBench generates n records and loads all four systems, recording
// load times and storage sizes. scratchBudget caps MongoDB's intermediate
// collections (0 = unlimited); the paper's 40 GB runs exhausted disk, which
// the Figure 7 experiment reproduces by budgeting scratch space.
func SetupNoBench(n int, seed int64, scratchBudget int64) (*NoBenchFixture, error) {
	f := &NoBenchFixture{
		N:         n,
		Par:       nobench.NewParams(n),
		LoadTime:  make(map[string]time.Duration),
		SizeBytes: make(map[string]int64),
	}
	docs := nobench.Generate(n, seed)
	jsonLines := make([]string, len(docs))
	for i, d := range docs {
		jsonLines[i] = jsonx.ObjectValue(d).String()
		f.OriginalBytes += int64(len(jsonLines[i])) + 1
	}
	table := f.Par.Table

	// --- Sinew ---
	var err error
	if f.Sinew, f.LoadTime[SysSinew], err = loadSinewNoBench(table, docs); err != nil {
		return nil, err
	}
	f.SizeBytes[SysSinew] = f.Sinew.DatabaseSizeBytes()

	// --- MongoDB stand-in ---
	f.Mongo = docstore.Open()
	f.Mongo.ScratchBudget = scratchBudget
	f.MongoColl = f.Mongo.Create(table)
	start := time.Now()
	for _, d := range docs {
		if _, err := f.MongoColl.Insert(cloneDoc(d)); err != nil {
			return nil, fmt.Errorf("bench: mongo load: %w", err)
		}
	}
	f.LoadTime[SysMongo] = time.Since(start)
	f.SizeBytes[SysMongo] = f.Mongo.TotalSizeBytes()

	// --- EAV ---
	f.EAV = eav.Open()
	if err := f.EAV.CreateCollection(table); err != nil {
		return nil, err
	}
	start = time.Now()
	if _, err := f.EAV.LoadDocuments(table, docs); err != nil {
		return nil, fmt.Errorf("bench: eav load: %w", err)
	}
	f.LoadTime[SysEAV] = time.Since(start)
	if err := f.EAV.Analyze(table); err != nil {
		return nil, err
	}
	f.SizeBytes[SysEAV] = f.EAV.SizeBytes(table)

	// --- Postgres JSON ---
	f.PG = pgjson.Open()
	if err := f.PG.CreateCollection(table); err != nil {
		return nil, err
	}
	start = time.Now()
	if err := f.PG.LoadJSON(table, jsonLines); err != nil {
		return nil, fmt.Errorf("bench: pgjson load: %w", err)
	}
	f.LoadTime[SysPG] = time.Since(start)
	f.SizeBytes[SysPG] = f.PG.RDBMS().TotalSizeBytes()

	return f, nil
}

// loadSinewNoBench loads docs into a fresh Sinew collection, pins the
// paper's materialization outcome, runs the materializer to completion and
// refreshes optimizer statistics (ANALYZE freezes the full pages). It
// returns the database and the time the load itself took.
func loadSinewNoBench(table string, docs []*jsonx.Doc) (*core.DB, time.Duration, error) {
	db := core.Open(core.DefaultConfig())
	if err := db.CreateCollection(table); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if _, err := db.LoadDocuments(table, docs); err != nil {
		return nil, 0, fmt.Errorf("bench: sinew load: %w", err)
	}
	loadTime := time.Since(start)
	for _, key := range PaperMaterializedKeys {
		if err := db.SetMaterialized(table, key, true); err != nil {
			return nil, 0, err
		}
	}
	if _, err := core.NewMaterializer(db).RunOnce(table); err != nil {
		return nil, 0, fmt.Errorf("bench: sinew materialize: %w", err)
	}
	if err := db.RDBMS().Analyze(table); err != nil {
		return nil, 0, err
	}
	return db, loadTime, nil
}

// cloneDoc copies a document so Mongo's _id insertion does not mutate the
// shared generated docs.
func cloneDoc(d *jsonx.Doc) *jsonx.Doc {
	out := jsonx.NewDoc()
	for _, m := range d.Members() {
		out.Set(m.Key, m.Val)
	}
	return out
}

// DatasetBytes returns the stored dataset size for a system (the I/O
// model's dataset parameter).
func (f *NoBenchFixture) DatasetBytes(system string) int64 { return f.SizeBytes[system] }
