package core

import (
	"fmt"
	"strings"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/serial"
	"github.com/sinewdata/sinew/internal/textindex"
)

// Search runs a text-index query directly (the programmatic form of the
// matches() SQL function, §4.3): field "*" searches every attribute. It
// returns matching document _ids.
func (db *DB) Search(collection, field, query string) ([]int64, error) {
	if db.index == nil {
		return nil, fmt.Errorf("core: text search requires Config.EnableTextIndex")
	}
	if _, ok := db.cat.Lookup(strings.ToLower(collection)); !ok {
		return nil, fmt.Errorf("core: collection %q does not exist", collection)
	}
	ids, err := db.index.Query(field, query)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out, nil
}

// ReindexCollection rebuilds the text index entries for a collection from
// its current stored state. The loader indexes documents at load time;
// SQL UPDATEs that change text values leave stale postings behind, so
// write-heavy search workloads should reindex periodically (the same
// batch-refresh discipline a production Solr deployment uses).
func (db *DB) ReindexCollection(collection string) error {
	if db.index == nil {
		return fmt.Errorf("core: text search requires Config.EnableTextIndex")
	}
	collection = strings.ToLower(collection)
	tc, ok := db.cat.Lookup(collection)
	if !ok {
		return fmt.Errorf("core: collection %q does not exist", collection)
	}
	schema, err := db.rdb.TableSchema(collection)
	if err != nil {
		return err
	}
	idIdx := schema.ColumnIndex(IDColumn)
	resIdx := schema.ColumnIndex(ReservoirColumn)

	// Snapshot rows (id, reservoir, physical text columns) under the read
	// lock, then rebuild outside it.
	type snap struct {
		id   int64
		data []byte
		phys map[string]string
	}
	var snaps []snap
	textCols := map[int]string{} // column index -> logical key
	for _, col := range tc.schemaView().physical {
		if col.Type != serial.TypeString {
			continue
		}
		if i := schema.ColumnIndex(col.PhysicalName); i >= 0 {
			textCols[i] = col.Key
		}
	}
	scanErr := db.rdb.ScanTable(collection, func(_ storage.RowID, row storage.Row) bool {
		if row[idIdx].IsNull() {
			return true
		}
		s := snap{id: row[idIdx].I}
		if !row[resIdx].IsNull() {
			s.data = append([]byte(nil), row[resIdx].Bytes()...)
		}
		for ci, key := range textCols {
			if !row[ci].IsNull() {
				if s.phys == nil {
					s.phys = map[string]string{}
				}
				s.phys[key] = row[ci].Text()
			}
		}
		snaps = append(snaps, s)
		return true
	})
	if scanErr != nil {
		return scanErr
	}
	for _, s := range snaps {
		db.index.Remove(textindex.DocID(s.id))
		if s.data != nil {
			doc, err := serial.Deserialize(s.data, db.dict())
			if err != nil {
				return err
			}
			db.indexDocument(s.id, doc)
		}
		for key, text := range s.phys {
			db.index.Add(textindex.DocID(s.id), key, text)
		}
	}
	return nil
}
