package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
	"github.com/sinewdata/sinew/internal/textindex"
)

// LoadResult summarizes a bulk load.
type LoadResult struct {
	Documents     int64
	NewAttributes int
	BytesStored   int64
}

// LoadJSONLines bulk-loads newline-delimited JSON documents (§3.2.1): each
// document is validated, serialized into Sinew's format, its attributes
// cataloged, and the row inserted with everything in the column reservoir
// regardless of the current physical schema. Any materialized column whose
// key appears in the batch is marked dirty for the materializer to pick up.
func (db *DB) LoadJSONLines(collection string, r io.Reader) (*LoadResult, error) {
	collection = strings.ToLower(collection)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var docs []*jsonx.Doc
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		doc, err := jsonx.ParseDocument(raw)
		if err != nil {
			return nil, fmt.Errorf("core: line %d: %w", line, err)
		}
		docs = append(docs, doc)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return db.LoadDocuments(collection, docs)
}

// LoadDocuments bulk-loads parsed documents.
func (db *DB) LoadDocuments(collection string, docs []*jsonx.Doc) (*LoadResult, error) {
	collection = strings.ToLower(collection)
	tc, ok := db.cat.Lookup(collection)
	if !ok {
		return nil, fmt.Errorf("core: collection %q does not exist", collection)
	}
	schema, err := db.rdb.TableSchema(collection)
	if err != nil {
		return nil, err
	}
	opts := db.options(collection)
	dict := db.dict()
	attrsBefore := dict.Len()

	// The loader holds the catalog latch for the batch so the materializer
	// never runs concurrently (§3.1.4).
	tc.Latch()
	defer tc.Unlatch()

	firstID := tc.NextID(int64(len(docs)))
	rows := make([]storage.Row, 0, len(docs))
	var hashBuf []byte
	// touched collects the materialized columns the batch adds values for;
	// schemaChanged records that the batch changed what the rewriter emits
	// for an unchanged statement (a new column record, a clean column
	// turned dirty).
	touched := map[uint32]bool{}
	schemaChanged := false
	var bytesStored int64
	splitPending := map[string][]*jsonx.Doc{}

	for i, doc := range docs {
		id := firstID + int64(i)
		// §4.2: configured nested objects go to their own sub-collection.
		if len(opts.SplitNested) > 0 {
			doc = db.splitNested(collection, id, doc, opts, splitPending)
		}
		// Serialization also allocates attribute IDs for new keys — the
		// only schema-evolution cost (§3.2.1).
		data, err := serial.Serialize(doc, dict)
		if err != nil {
			return nil, err
		}
		bytesStored += int64(len(data))

		// Catalog every flattened attribute (top-level and nested paths).
		for _, f := range jsonx.Flatten(doc) {
			at, typed := serial.AttrTypeOf(f.Val)
			if !typed {
				continue
			}
			attr := serial.Attr{ID: dict.IDFor(f.Path, at), Key: f.Path, Type: at}
			materialized, created, err := tc.observe(attr, f.Val, dict, &hashBuf)
			if err != nil {
				return nil, err
			}
			if materialized {
				touched[attr.ID] = true
			}
			schemaChanged = schemaChanged || created
		}

		// Array strategies beyond the default (§4.2).
		if len(opts.ArrayModes) > 0 {
			if err := db.applyArrayModes(collection, tc, id, doc, opts); err != nil {
				return nil, err
			}
		}

		// Build the physical row: _id, reservoir, NULL for every physical
		// column — the loader never touches the physical schema (§3.2.1).
		row := make(storage.Row, len(schema.Cols))
		for ci, c := range schema.Cols {
			row[ci] = types.NewNull(c.Typ)
		}
		row[schema.ColumnIndex(IDColumn)] = types.NewInt(id)
		row[schema.ColumnIndex(ReservoirColumn)] = types.NewBytes(data)
		rows = append(rows, row)

		if db.index != nil {
			db.indexDocument(id, doc)
		}
	}

	// The new values land in the reservoir, so materialized columns they
	// belong to turn dirty; a column that already was changes nothing.
	for attrID := range touched {
		if tc.setDirty(attrID, true) {
			schemaChanged = true
		}
	}
	// New attributes or freshly dirtied columns change what the rewriter
	// emits for the same statement; drop cached plans. This comes before
	// the rows are published: a cached plan replayed against the new rows
	// would read a just-dirtied column's physical half only.
	if schemaChanged || dict.Len() != attrsBefore {
		db.rdb.BumpCatalogEpoch()
	}
	if err := db.rdb.InsertRows(collection, rows); err != nil {
		return nil, err
	}
	tc.addDocs(int64(len(docs)))
	if len(splitPending) > 0 {
		// Release this collection's latch before loading sub-collections
		// (they latch themselves).
		tc.Unlatch()
		err := db.ensureSplitCollections(splitPending)
		tc.Latch() // re-acquire for the deferred Unlatch
		if err != nil {
			return nil, err
		}
	}
	return &LoadResult{
		Documents:     int64(len(docs)),
		NewAttributes: dict.Len() - attrsBefore,
		BytesStored:   bytesStored,
	}, nil
}

// observe catalogs one occurrence of attr with value v. The value key (the
// HashKey of v's datum, which re-serializes nested objects and converts
// arrays element-wise) is built only while the column still tracks
// distinct values; past cardTrackLimit an occurrence is a counter bump.
// buf is the caller's reusable key buffer.
func (tc *CollectionCatalog) observe(attr serial.Attr, v jsonx.Value, dict serial.Dict, buf *[]byte) (materialized, created bool, err error) {
	return tc.recordObservation(attr, func() ([]byte, error) {
		d, err := datumFromJSON(v, dict)
		if err != nil {
			return nil, err
		}
		*buf = d.HashKey((*buf)[:0])
		return *buf, nil
	})
}

// indexDocument adds every flattened text value to the inverted index,
// faceted by attribute (§4.3).
func (db *DB) indexDocument(id int64, doc *jsonx.Doc) {
	for _, f := range jsonx.Flatten(doc) {
		switch f.Val.Kind {
		case jsonx.String:
			db.index.Add(textindex.DocID(id), f.Path, f.Val.S)
		case jsonx.Array:
			for _, e := range f.Val.A {
				if e.Kind == jsonx.String {
					db.index.Add(textindex.DocID(id), f.Path, e.S)
				}
			}
		default:
			// Numbers, booleans, and nulls carry no searchable text;
			// objects were already flattened away by jsonx.Flatten.
		}
	}
}
