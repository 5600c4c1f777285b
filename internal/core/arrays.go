package core

import (
	"fmt"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
)

// defaultPositionalLimit caps how many array positions are cataloged as
// dot-indexed attributes under ArrayPositional.
const defaultPositionalLimit = 8

// applyArrayModes implements the §4.2 strategies for one document's arrays.
// ArrayAsDatum needs no work (the array lives in the reservoir and converts
// to an RDBMS array datum on extraction). ArrayPositional catalogs "key.i"
// attributes so the analyzer may materialize hot positions.
// ArraySeparateTable shreds elements to a side table so the RDBMS keeps
// aggregate statistics over elements rather than per-position statistics.
func (db *DB) applyArrayModes(collection string, b *loadBatch, docID int64, doc *jsonx.Doc, opts CollectionOptions) error {
	for key, mode := range opts.ArrayModes {
		v, ok := jsonx.PathGet(doc, key)
		if !ok || v.Kind != jsonx.Array {
			continue
		}
		switch mode {
		case ArrayAsDatum:
			// default storage; nothing extra
		case ArrayPositional:
			limit := opts.PositionalLimit
			if limit <= 0 {
				limit = defaultPositionalLimit
			}
			for i, e := range v.A {
				if i >= limit {
					break
				}
				at, typed := serial.AttrTypeOf(e)
				if !typed {
					continue
				}
				val, err := b.enc.EncodeValue(e)
				if err != nil {
					return err
				}
				b.obs.add(db.dict().IDFor(fmt.Sprintf("%s.%d", key, i), at), val)
			}
		case ArraySeparateTable:
			if err := db.shredArray(collection, key, docID, v.A); err != nil {
				return err
			}
		}
	}
	return nil
}

// ArrayTableName is the side table for a shredded array key.
func ArrayTableName(collection, key string) string {
	return collection + "__" + sanitizeKey(key) + "_elems"
}

// SplitCollectionName is the sub-collection holding a split nested object.
func SplitCollectionName(collection, key string) string {
	return collection + "__" + sanitizeKey(key)
}

// splitNested extracts the configured nested-object keys of doc into
// per-sub-collection document lists (tagged with parent_id) and returns a
// copy of doc without them. When nothing applies, doc is returned as-is.
func (db *DB) splitNested(collection string, docID int64, doc *jsonx.Doc, opts CollectionOptions, out map[string][]*jsonx.Doc) *jsonx.Doc {
	var stripped *jsonx.Doc
	for _, key := range opts.SplitNested {
		v, ok := doc.Get(key)
		if !ok || v.Kind != jsonx.Object {
			continue
		}
		if stripped == nil {
			stripped = jsonx.NewDoc()
			for _, m := range doc.Members() {
				stripped.Set(m.Key, m.Val)
			}
		}
		stripped.Delete(key)
		sub := jsonx.NewDoc()
		sub.Set("parent_id", jsonx.IntValue(docID))
		for _, m := range v.Obj.Members() {
			sub.Set(m.Key, m.Val)
		}
		name := SplitCollectionName(collection, key)
		out[name] = append(out[name], sub)
	}
	if stripped == nil {
		return doc
	}
	return stripped
}

// ensureSplitCollections creates sub-collections and loads their pending
// documents (recursively full Sinew collections, without split options of
// their own).
func (db *DB) ensureSplitCollections(pending map[string][]*jsonx.Doc) error {
	for name, docs := range pending {
		if _, ok := db.cat.Lookup(name); !ok {
			if err := db.CreateCollection(name); err != nil {
				return err
			}
		}
		if _, err := db.LoadDocuments(name, docs); err != nil {
			return err
		}
	}
	return nil
}

func sanitizeKey(key string) string {
	out := make([]byte, 0, len(key))
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c == '_' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			out = append(out, c)
		} else {
			out = append(out, '_')
		}
	}
	return string(out)
}

// shredArray stores elements as (parent_id, idx, elem_text, elem_num,
// elem_bool) tuples; nested-object elements are additionally split per
// sub-attribute into elem_text as JSON (homogeneous-object splitting is the
// caller's schema decision; the element table keeps aggregate statistics
// per §4.2).
func (db *DB) shredArray(collection, key string, docID int64, elems []jsonx.Value) error {
	tbl := ArrayTableName(collection, key)
	if err := db.rdb.CreateTable(tbl, []storage.Column{
		{Name: "parent_id", Typ: types.Int, NotNull: true},
		{Name: "idx", Typ: types.Int, NotNull: true},
		{Name: "elem_text", Typ: types.Text},
		{Name: "elem_num", Typ: types.Float},
		{Name: "elem_bool", Typ: types.Bool},
	}, true); err != nil {
		return err
	}
	rows := make([]storage.Row, 0, len(elems))
	for i, e := range elems {
		row := storage.Row{
			types.NewInt(docID), types.NewInt(int64(i)),
			types.NewNull(types.Text), types.NewNull(types.Float), types.NewNull(types.Bool),
		}
		switch e.Kind {
		case jsonx.String:
			row[2] = types.NewText(e.S)
		case jsonx.Int:
			row[3] = types.NewFloat(float64(e.I))
		case jsonx.Float:
			row[3] = types.NewFloat(e.F)
		case jsonx.Bool:
			row[4] = types.NewBool(e.B)
		case jsonx.Object:
			row[2] = types.NewText(jsonx.ObjectValue(e.Obj).String())
		case jsonx.Array:
			row[2] = types.NewText(e.String())
		case jsonx.Null:
			// keep all NULLs: position exists, value null
		}
		rows = append(rows, row)
	}
	return db.rdb.InsertRows(tbl, rows)
}
