package core

import (
	"bufio"
	"bytes"
	"errors"
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

// maxLineBytes caps one line of LoadJSONLines input, i.e. one document.
const maxLineBytes = 1 << 24

// LoadError is LoadJSONLines rejecting its input: the 1-based line, and
// what is wrong with it (a *jsonx.SyntaxError, or the line's length).
type LoadError struct {
	Line int
	Err  error
}

func (e *LoadError) Error() string { return fmt.Sprintf("core: line %d: %v", e.Line, e.Err) }

func (e *LoadError) Unwrap() error { return e.Err }

// LoadJSONLines bulk-loads newline-delimited JSON documents (§3.2.1): each
// document is validated, serialized into Sinew's format, its attributes
// cataloged, and the row inserted with everything in the column reservoir
// regardless of the current physical schema. Any materialized column whose
// key appears in the batch is marked dirty for the materializer to pick up.
//
// The call loads every line or none: a syntax error on any line inserts no
// row and moves no catalog count (attribute IDs minted for the lines before
// it stay minted; they describe nothing until a document uses them).
//
// Lines go from bytes to record in one pass (serial.Encoder.EncodeJSON),
// without a document tree, unless the collection's options need random
// access to the document.
func (db *DB) LoadJSONLines(collection string, r io.Reader) (*LoadResult, error) {
	collection = strings.ToLower(collection)
	tc, ok := db.cat.Lookup(collection)
	if !ok {
		return nil, fmt.Errorf("core: collection %q does not exist", collection)
	}
	tree := db.loadsFromTree(db.options(collection))
	var docs []*jsonx.Doc
	var b *loadBatch
	if !tree {
		b = db.newLoadBatch(tc)
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		raw := trimJSONSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var err error
		if tree {
			var doc *jsonx.Doc
			if doc, err = jsonx.ParseDocument(raw); err == nil {
				docs = append(docs, doc)
			}
		} else {
			var rec []byte
			if rec, err = b.enc.EncodeJSON(raw); err == nil {
				b.add(rec)
			}
		}
		// Only the input's fault names a line; anything else is ours.
		var syntax *jsonx.SyntaxError
		if errors.As(err, &syntax) {
			return nil, &LoadError{Line: line, Err: err}
		}
		if err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, &LoadError{Line: line + 1, Err: fmt.Errorf("document exceeds %d bytes", maxLineBytes)}
		}
		return nil, err
	}
	if tree {
		return db.LoadDocuments(collection, docs)
	}
	// The loader holds the catalog latch while it publishes so the
	// materializer never runs concurrently (§3.1.4).
	tc.Latch()
	defer tc.Unlatch()
	return b.commit(tc.NextID(int64(len(b.recs))))
}

// trimJSONSpace trims the four JSON whitespace characters. Anything else
// bytes.TrimSpace would strip (U+0085, U+00A0, …) is a syntax error to
// report, not padding.
func trimJSONSpace(b []byte) []byte {
	return bytes.Trim(b, " \t\r\n")
}

// loadsFromTree reports whether loading a collection needs each document
// as a tree: to split nested objects out, to address arrays by key, or to
// feed the text index.
func (db *DB) loadsFromTree(opts CollectionOptions) bool {
	return len(opts.SplitNested) > 0 || len(opts.ArrayModes) > 0 || db.index != nil
}

// LoadDocuments bulk-loads parsed documents.
func (db *DB) LoadDocuments(collection string, docs []*jsonx.Doc) (*LoadResult, error) {
	collection = strings.ToLower(collection)
	tc, ok := db.cat.Lookup(collection)
	if !ok {
		return nil, fmt.Errorf("core: collection %q does not exist", collection)
	}
	opts := db.options(collection)

	// Splitting and array shredding write to other tables as they go, so
	// this path holds the latch from the first document on.
	tc.Latch()
	defer tc.Unlatch()

	b := db.newLoadBatch(tc)
	firstID := tc.NextID(int64(len(docs)))
	splitPending := map[string][]*jsonx.Doc{}
	for i, doc := range docs {
		id := firstID + int64(i)
		// §4.2: configured nested objects go to their own sub-collection.
		if len(opts.SplitNested) > 0 {
			doc = db.splitNested(collection, id, doc, opts, splitPending)
		}
		rec, err := b.enc.EncodeDoc(doc)
		if err != nil {
			return nil, err
		}
		b.add(rec)
		// Array strategies beyond the default (§4.2).
		if len(opts.ArrayModes) > 0 {
			if err := db.applyArrayModes(collection, b, id, doc, opts); err != nil {
				return nil, err
			}
		}
		if db.index != nil {
			db.indexDocument(id, doc)
		}
	}
	res, err := b.commit(firstID)
	if err != nil {
		return nil, err
	}
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
	return res, nil
}

// loadBatch is one call's worth of encoded documents on their way into a
// collection: the records, and what they add to the catalog.
type loadBatch struct {
	db          *DB
	tc          *CollectionCatalog
	enc         *serial.Encoder
	obs         *observations
	attrsBefore int
	recs        [][]byte
	bytesStored int64
}

func (db *DB) newLoadBatch(tc *CollectionCatalog) *loadBatch {
	return &loadBatch{
		db: db, tc: tc,
		// Encoding also allocates attribute IDs for new keys — the only
		// schema-evolution cost (§3.2.1).
		enc:         serial.NewEncoder(db.dict(), true),
		obs:         tc.newObservations(),
		attrsBefore: db.dict().Len(),
	}
}

// add takes the record the encoder just produced, and its observations:
// every flattened attribute (top-level and nested paths).
func (b *loadBatch) add(rec []byte) {
	b.recs = append(b.recs, rec)
	b.bytesStored += int64(len(rec))
	b.obs.nextDoc()
	for _, o := range b.enc.Observations() {
		b.obs.add(o.ID, o.Val)
	}
}

// commit publishes the batch: catalog first, then the rows, numbered from
// firstID. The caller holds the collection's latch.
func (b *loadBatch) commit(firstID int64) (*LoadResult, error) {
	db, collection := b.db, b.tc.name
	schema, err := db.rdb.TableSchema(collection)
	if err != nil {
		return nil, err
	}
	schemaChanged := b.tc.recordObservations(b.obs, int64(len(b.recs)), db.dict())
	newAttrs := db.dict().Len() - b.attrsBefore
	// New attributes or freshly dirtied columns change what the rewriter
	// emits for the same statement; drop cached plans. This comes before
	// the rows are published: a cached plan replayed against the new rows
	// would read a just-dirtied column's physical half only.
	if schemaChanged || newAttrs != 0 {
		db.rdb.BumpCatalogEpoch()
	}

	// Build the physical rows: _id, reservoir, NULL for every physical
	// column — the loader never touches the physical schema (§3.2.1).
	idCol, dataCol := schema.ColumnIndex(IDColumn), schema.ColumnIndex(ReservoirColumn)
	rows := make([]storage.Row, len(b.recs))
	for i, rec := range b.recs {
		row := make(storage.Row, len(schema.Cols))
		for ci, c := range schema.Cols {
			row[ci] = types.NewNull(c.Typ)
		}
		row[idCol] = types.NewInt(firstID + int64(i))
		row[dataCol] = types.NewBytes(rec)
		rows[i] = row
	}
	if err := db.rdb.InsertRows(collection, rows); err != nil {
		return nil, err
	}
	return &LoadResult{
		Documents:     int64(len(b.recs)),
		NewAttributes: newAttrs,
		BytesStored:   b.bytesStored,
	}, nil
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
