// Package eav is the Entity-Attribute-Value baseline of §6.1: every
// document is shredded into (obj_id, key_name, val_str, val_num, val_bool)
// triples stored in one relation of the same embedded RDBMS Sinew uses,
// with a mapping layer that translates logical queries into self-joins over
// the triple table. Reconstructing any record requires joins (§2), the
// representation is several times larger than the input (§6.2), and large
// queries can exhaust intermediate space (§6.4–6.5), all of which this
// implementation reproduces.
package eav

import (
	"fmt"
	"strings"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/sqlutil"
)

// DB is an EAV store over the embedded RDBMS.
type DB struct {
	rdb    *rdbms.DB
	nextID map[string]int64
}

// Open creates an empty EAV database.
func Open() *DB {
	return &DB{rdb: rdbms.Open(), nextID: make(map[string]int64)}
}

// RDBMS exposes the underlying engine (size accounting, EXPLAIN).
func (db *DB) RDBMS() *rdbms.DB { return db.rdb }

// tableName is the triple relation backing a collection.
func tableName(collection string) string { return collection + "_eav" }

// CreateCollection creates the 5-column triple table (§6.1: one column for
// each primitive type).
func (db *DB) CreateCollection(name string) error {
	name = strings.ToLower(name)
	return db.rdb.CreateTable(tableName(name), []storage.Column{
		{Name: "obj_id", Typ: types.Int, NotNull: true},
		{Name: "key_name", Typ: types.Text, NotNull: true},
		{Name: "val_str", Typ: types.Text},
		{Name: "val_num", Typ: types.Float},
		{Name: "val_bool", Typ: types.Bool},
	}, false)
}

// LoadDocuments shreds documents into triples: one tuple per flattened
// scalar key, one per array element. Nested objects contribute their
// dotted sub-keys (the paper's "over 20 new tuples per record").
func (db *DB) LoadDocuments(collection string, docs []*jsonx.Doc) (int64, error) {
	collection = strings.ToLower(collection)
	tbl := tableName(collection)
	base := db.nextID[collection]
	var rows []storage.Row
	for i, doc := range docs {
		id := base + int64(i)
		for _, f := range jsonx.Flatten(doc) {
			switch f.Val.Kind {
			case jsonx.Object:
				// Children are flattened separately; the parent itself has
				// no scalar value.
			case jsonx.Array:
				for _, e := range f.Val.A {
					rows = append(rows, tripleRow(id, f.Path, e))
				}
			default:
				rows = append(rows, tripleRow(id, f.Path, f.Val))
			}
		}
	}
	db.nextID[collection] = base + int64(len(docs))
	if err := db.rdb.InsertRows(tbl, rows); err != nil {
		return 0, err
	}
	return int64(len(rows)), nil
}

func tripleRow(id int64, key string, v jsonx.Value) storage.Row {
	row := storage.Row{
		types.NewInt(id), types.NewText(key),
		types.NewNull(types.Text), types.NewNull(types.Float), types.NewNull(types.Bool),
	}
	switch v.Kind {
	case jsonx.String:
		row[2] = types.NewText(v.S)
	case jsonx.Int:
		row[3] = types.NewFloat(float64(v.I))
	case jsonx.Float:
		row[3] = types.NewFloat(v.F)
	case jsonx.Bool:
		row[4] = types.NewBool(v.B)
	default:
		// Nulls, arrays, and objects have no scalar column in the triple
		// layout; the row keeps all three value columns NULL.
	}
	return row
}

// Analyze refreshes statistics on the triple table.
func (db *DB) Analyze(collection string) error {
	return db.rdb.Analyze(tableName(strings.ToLower(collection)))
}

// valColumn picks the typed value column for a literal.
func valColumn(v types.Datum) string {
	switch v.Typ {
	case types.Text:
		return "val_str"
	case types.Int, types.Float:
		return "val_num"
	case types.Bool:
		return "val_bool"
	default:
		return "val_str"
	}
}

// ---------- The mapping layer ----------
//
// Each logical operation is translated to SQL over the triple table; the
// SQL is executed by the shared embedded RDBMS so EAV pays its costs
// through exactly the same engine as Sinew.

// ProjectKeys returns SELECT k1, k2, ... for all objects: one self-join per
// additional key (§6.3: "the EAV system adds a join on top of the original
// projection in order to reconstruct the objects"). Objects missing any of
// the keys drop out (inner-join semantics, as in the NoBench EAV setup).
func (db *DB) ProjectKeys(collection string, keys ...string) (*rdbms.Result, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("eav: no keys")
	}
	tbl := tableName(strings.ToLower(collection))
	var sel, from, where []string
	for i, k := range keys {
		alias := fmt.Sprintf("e%d", i)
		sel = append(sel, fmt.Sprintf("%s.val_str, %s.val_num", alias, alias))
		from = append(from, fmt.Sprintf("%s %s", tbl, alias))
		where = append(where, fmt.Sprintf("%s.key_name = %s", alias, sqlutil.QuoteString(k)))
		if i > 0 {
			where = append(where, fmt.Sprintf("e0.obj_id = %s.obj_id", alias))
		}
	}
	sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s",
		strings.Join(sel, ", "), strings.Join(from, ", "), strings.Join(where, " AND "))
	return db.rdb.Query(sql)
}

// SelectEq implements SELECT * WHERE key = value: the predicate scan plus a
// join back to collect every attribute of matching objects.
func (db *DB) SelectEq(collection, key string, val types.Datum) (*rdbms.Result, error) {
	tbl := tableName(strings.ToLower(collection))
	sql := fmt.Sprintf(
		"SELECT e2.obj_id, e2.key_name, e2.val_str, e2.val_num, e2.val_bool "+
			"FROM %s e1, %s e2 WHERE e1.key_name = %s AND e1.%s = %s AND e1.obj_id = e2.obj_id",
		tbl, tbl, sqlutil.QuoteString(key), valColumn(val), literal(val))
	return db.rdb.Query(sql)
}

// SelectRange implements SELECT * WHERE lo <= key <= hi (numeric).
func (db *DB) SelectRange(collection, key string, lo, hi float64) (*rdbms.Result, error) {
	tbl := tableName(strings.ToLower(collection))
	sql := fmt.Sprintf(
		"SELECT e2.obj_id, e2.key_name, e2.val_str, e2.val_num, e2.val_bool "+
			"FROM %s e1, %s e2 WHERE e1.key_name = %s AND e1.val_num BETWEEN %g AND %g AND e1.obj_id = e2.obj_id",
		tbl, tbl, sqlutil.QuoteString(key), lo, hi)
	return db.rdb.Query(sql)
}

// SelectArrayContains implements SELECT * WHERE value IN array-key: array
// elements are individual triples, so containment is an equality scan plus
// the reconstruction join.
func (db *DB) SelectArrayContains(collection, key string, val types.Datum) (*rdbms.Result, error) {
	return db.SelectEq(collection, key, val)
}

// GroupCount implements SELECT COUNT(*) ... WHERE numKey BETWEEN lo AND hi
// GROUP BY groupKey: a self-join bringing the group key and filter key
// together. The group key's typed value columns are all grouped (only one
// is non-NULL per triple), so text, numeric, and boolean group keys all
// work.
func (db *DB) GroupCount(collection, filterKey string, lo, hi float64, groupKey string) (*rdbms.Result, error) {
	tbl := tableName(strings.ToLower(collection))
	sql := fmt.Sprintf(
		"SELECT e2.val_str, e2.val_num, e2.val_bool, COUNT(*) FROM %s e1, %s e2 "+
			"WHERE e1.key_name = %s AND e1.val_num BETWEEN %g AND %g "+
			"AND e2.key_name = %s AND e1.obj_id = e2.obj_id "+
			"GROUP BY e2.val_str, e2.val_num, e2.val_bool",
		tbl, tbl, sqlutil.QuoteString(filterKey), lo, hi, sqlutil.QuoteString(groupKey))
	return db.rdb.Query(sql)
}

// Join implements NoBench Q11: join on leftKey = rightKey with a range
// filter on the left side — four instances of the triple table.
func (db *DB) Join(collection, leftKey, rightKey, filterKey string, lo, hi float64) (*rdbms.Result, error) {
	tbl := tableName(strings.ToLower(collection))
	sql := fmt.Sprintf(
		"SELECT l.obj_id, r.obj_id FROM %s l, %s r, %s f "+
			"WHERE l.key_name = %s AND r.key_name = %s AND l.val_str = r.val_str "+
			"AND f.key_name = %s AND f.val_num BETWEEN %g AND %g AND f.obj_id = l.obj_id",
		tbl, tbl, tbl,
		sqlutil.QuoteString(leftKey), sqlutil.QuoteString(rightKey),
		sqlutil.QuoteString(filterKey), lo, hi)
	return db.rdb.Query(sql)
}

// UpdateEq implements UPDATE ... SET setKey = v WHERE whereKey = w: the
// self-join to find matching objects is done first, then the per-object
// triple is updated (or inserted when absent).
func (db *DB) UpdateEq(collection, setKey string, setVal types.Datum, whereKey string, whereVal types.Datum) (int64, error) {
	tbl := tableName(strings.ToLower(collection))
	match, err := db.rdb.Query(fmt.Sprintf(
		"SELECT obj_id FROM %s WHERE key_name = %s AND %s = %s",
		tbl, sqlutil.QuoteString(whereKey), valColumn(whereVal), literal(whereVal)))
	if err != nil {
		return 0, err
	}
	var updated int64
	for _, row := range match.Rows {
		id := row[0].I
		res, err := db.rdb.Exec(fmt.Sprintf(
			"UPDATE %s SET %s = %s WHERE obj_id = %d AND key_name = %s",
			tbl, valColumn(setVal), literal(setVal), id, sqlutil.QuoteString(setKey)))
		if err != nil {
			return updated, err
		}
		if res.RowsAffected == 0 {
			_, err = db.rdb.Exec(fmt.Sprintf(
				"INSERT INTO %s (obj_id, key_name, %s) VALUES (%d, %s, %s)",
				tbl, valColumn(setVal), id, sqlutil.QuoteString(setKey), literal(setVal)))
			if err != nil {
				return updated, err
			}
		}
		updated++
	}
	return updated, nil
}

// SizeBytes reports the triple table's storage footprint (Table 3).
func (db *DB) SizeBytes(collection string) int64 {
	n, err := db.rdb.TableSizeBytes(tableName(strings.ToLower(collection)))
	if err != nil {
		return 0
	}
	return n
}

// TripleCount reports stored triples (the paper quotes 360M/1.44B).
func (db *DB) TripleCount(collection string) int64 {
	n, err := db.rdb.TableRowCount(tableName(strings.ToLower(collection)))
	if err != nil {
		return 0
	}
	return n
}

// ReconstructObjects is the mapping layer's final step for SELECT *
// translations: triples sharing an obj_id (column idCol) are grouped back
// into objects. It returns the object count; the grouping work is part of
// the EAV system's query cost.
func ReconstructObjects(res *rdbms.Result, idCol int) int64 {
	seen := make(map[int64]struct{})
	for _, row := range res.Rows {
		if !row[idCol].IsNull() {
			seen[row[idCol].I] = struct{}{}
		}
	}
	return int64(len(seen))
}

func literal(v types.Datum) string {
	switch v.Typ {
	case types.Text:
		return sqlutil.QuoteString(v.Text())
	case types.Bool:
		if v.Bool() {
			return "TRUE"
		}
		return "FALSE"
	default:
		return v.String()
	}
}
