package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
)

// TestMaterializeKeepsConcurrentWrites: SQL UPDATE and DELETE take the
// table lock, not the collection latch, so they land while a materializer
// pass runs. Every acknowledged write must be visible after the pass and
// the pass must not fail. (The two-sweep materializer cloned every row up
// front and wrote the clones back one at a time: an UPDATE landing in
// between was overwritten by the stale clone, a DELETE failed the whole
// pass with "no live row".)
func TestMaterializeKeepsConcurrentWrites(t *testing.T) {
	const docs, writers = 3000, 3
	db := Open(DefaultConfig())
	if err := db.CreateCollection("c"); err != nil {
		t.Fatal(err)
	}
	load := func(from, to int) {
		t.Helper()
		var lines bytes.Buffer
		for i := from; i < to; i++ {
			fmt.Fprintf(&lines, `{"v":%d,"w":"w%d","note":"n%d","obj":{"a":%d}}`+"\n", i, i, i, i)
		}
		if _, err := db.LoadJSONLines("c", &lines); err != nil {
			t.Fatal(err)
		}
	}
	// v has its column and is dirty again (the second load's values are in
	// the reservoir); w and obj.a join in the passes below; note stays
	// virtual throughout.
	load(0, docs/2)
	if err := db.SetMaterialized("c", "v", true); err != nil {
		t.Fatal(err)
	}
	mat := NewMaterializer(db)
	if _, err := mat.RunOnce("c"); err != nil {
		t.Fatal(err)
	}
	load(docs/2, docs)

	type state struct {
		v       int64
		note    string
		deleted bool
	}
	want := make([]state, docs)
	for i := range want {
		want[i] = state{v: int64(i), note: fmt.Sprintf("n%d", i)}
	}
	var stop atomic.Bool
	var acked atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; !stop.Load(); n++ {
				// A writer owns the _ids congruent to it, so the last
				// acknowledged write of a row is known.
				id := rng.Intn(docs/writers)*writers + g
				st := &want[id]
				if st.deleted {
					continue
				}
				var sql string
				next := *st
				switch rng.Intn(5) {
				case 0:
					sql, next.deleted = fmt.Sprintf(`DELETE FROM c WHERE _id = %d`, id), true
				case 1, 2:
					next.v = int64(1000000 + n)
					sql = fmt.Sprintf(`UPDATE c SET v = %d WHERE _id = %d`, next.v, id)
				default:
					next.note = fmt.Sprintf("g%d-%d", g, n)
					sql = fmt.Sprintf(`UPDATE c SET note = '%s' WHERE _id = %d`, next.note, id)
				}
				res, err := db.Query(sql)
				if err != nil || res.RowsAffected != 1 {
					t.Errorf("%s: %d rows, %v", sql, res.RowsAffected, err)
					return
				}
				*st = next
				acked.Add(1)
			}
		}(g)
	}
	// Passes of every kind while the writers run: v's second half and w
	// move in, w moves back out, a nested key is copied.
	for round, step := range []struct {
		key string
		on  bool
	}{{"w", true}, {"w", false}, {"obj.a", true}, {"w", true}, {"obj.a", false}} {
		for acked.Load() < int64(20*(round+1)) && !t.Failed() {
			runtime.Gosched()
		}
		if err := db.SetMaterialized("c", step.key, step.on); err != nil {
			t.Fatal(err)
		}
		if _, err := mat.RunOnce("c"); err != nil {
			t.Errorf("pass %d (%s -> %t) beside SQL writes: %v", round, step.key, step.on, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	res, err := db.Query(`SELECT _id, v, w, note, "obj.a" FROM c`)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, st := range want {
		if !st.deleted {
			live++
		}
	}
	if len(res.Rows) != live {
		t.Errorf("%d rows after the passes, want %d (%d writes acknowledged)", len(res.Rows), live, acked.Load())
	}
	for _, row := range res.Rows {
		id := row[0].I
		st := want[id]
		switch {
		case st.deleted:
			t.Errorf("_id %d: deleted, yet back after the pass", id)
		case row[1].IsNull() || row[1].I != st.v || row[3].Text() != st.note:
			t.Errorf("_id %d: v=%v note=%v after the pass, last acknowledged v=%d note=%s", id, row[1], row[3], st.v, st.note)
		case row[2].Text() != fmt.Sprintf("w%d", id) || row[4].I != id:
			t.Errorf("_id %d: w=%v obj.a=%v, never written", id, row[2], row[4])
		}
	}
}

// refMaterialize is the materializer's pass as it was before it went page
// at a time, kept as the reference of the differential test below: per row
// it deserializes the record into a document tree, copies values between
// the tree and the physical columns (dematerializations shallow-first, then
// materializations), re-serializes the tree, and finally splices the
// promoted top-level keys out of the record. It works on copies of the
// rows, laid out by schema, and returns them with the values-moved count.
func refMaterialize(t *testing.T, rows []storage.Row, schema *storage.Schema, dirty []ColumnState, dict serial.Dict) ([]storage.Row, int64) {
	t.Helper()
	reservoir := schema.ColumnIndex(ReservoirColumn)
	var ordered, mats []ColumnState
	for _, c := range dirty {
		if c.Materialized {
			mats = append(mats, c)
		} else {
			ordered = append(ordered, c)
		}
	}
	sort.SliceStable(ordered, func(i, j int) bool { return pathDepth(ordered[i].Key) < pathDepth(ordered[j].Key) })
	sort.SliceStable(mats, func(i, j int) bool { return pathDepth(mats[i].Key) > pathDepth(mats[j].Key) })
	ordered = append(ordered, mats...)
	var purge []uint32
	for _, c := range mats {
		if pathDepth(c.Key) == 1 && c.PhysicalName != "" {
			purge = append(purge, c.AttrID)
		}
	}

	var moved int64
	out := make([]storage.Row, len(rows))
	for ri, src := range rows {
		row := src.Clone()
		out[ri] = row
		doc := jsonx.NewDoc()
		if !row[reservoir].IsNull() {
			var err error
			if doc, err = serial.Deserialize(row[reservoir].Bytes(), dict); err != nil {
				t.Fatal(err)
			}
		}
		changed := false
		for _, col := range ordered {
			at := schema.ColumnIndex(col.PhysicalName)
			if col.PhysicalName == "" || at < 0 {
				continue
			}
			if col.Materialized {
				v, ok := jsonx.PathGet(doc, col.Key)
				if at, typed := serial.AttrTypeOf(v); !ok || !typed || at != col.Type {
					continue
				}
				row[at] = treeDatum(t, v, dict)
			} else {
				if row[at].IsNull() {
					continue
				}
				v, err := jsonFromDatum(row[at], dict)
				if err != nil {
					t.Fatal(err)
				}
				docSetPath(doc, col.Key, v)
			}
			changed = true
			moved++
		}
		if !changed {
			continue
		}
		data, err := serial.Serialize(doc, dict)
		if err != nil {
			t.Fatal(err)
		}
		if data, err = serial.DeleteAttrs(data, purge...); err != nil {
			t.Fatal(err)
		}
		row[reservoir] = types.NewBytes(data)
	}
	return out, moved
}

// treeDatum is the reference model's datum of a JSON value: a nested
// object re-encoded from its tree, an array converted element by element.
func treeDatum(t *testing.T, v jsonx.Value, dict serial.Dict) types.Datum {
	switch v.Kind {
	case jsonx.Bool:
		return types.NewBool(v.B)
	case jsonx.Int:
		return types.NewInt(v.I)
	case jsonx.Float:
		return types.NewFloat(v.F)
	case jsonx.String:
		return types.NewText(v.S)
	case jsonx.Object:
		data, err := serial.Serialize(v.Obj, dict)
		if err != nil {
			t.Fatal(err)
		}
		return types.NewBytes(data)
	case jsonx.Array:
		elems := make([]types.Datum, len(v.A))
		for i, e := range v.A {
			elems[i] = treeDatum(t, e, dict)
		}
		return types.NewArray(elems...)
	default:
		return types.NewNull(types.Unknown)
	}
}

// randomDoc draws a document from a small alphabet of keys, so that keys
// collide across documents under different types: scalars, nested objects
// (drawn from the same alphabet, so a.b exists under several parents) and
// arrays of scalars and objects.
func randomDoc(rng *rand.Rand, depth int) *jsonx.Doc {
	keys := []string{"a", "b", "c", "d", "e"}
	d := jsonx.NewDoc()
	for _, k := range keys {
		if rng.Intn(3) == 0 {
			continue
		}
		d.Set(k, randomValue(rng, depth))
	}
	return d
}

func randomValue(rng *rand.Rand, depth int) jsonx.Value {
	kind := rng.Intn(8)
	if depth >= 2 && kind >= 5 {
		kind = rng.Intn(5)
	}
	switch kind {
	case 0:
		return jsonx.IntValue(int64(rng.Intn(50)))
	case 1:
		return jsonx.StringValue(fmt.Sprintf("s%d", rng.Intn(50)))
	case 2:
		return jsonx.FloatValue(float64(rng.Intn(50)) + 0.5)
	case 3:
		return jsonx.BoolValue(rng.Intn(2) == 0)
	case 4:
		return jsonx.NullValue()
	case 5, 6:
		return jsonx.ObjectValue(randomDoc(rng, depth+1))
	default:
		elems := make([]jsonx.Value, rng.Intn(4))
		for i := range elems {
			elems[i] = randomValue(rng, depth+1)
		}
		return jsonx.ArrayValue(elems...)
	}
}

// TestWriteRebuiltAfterPass: an UPDATE or DELETE rewritten while a key was
// virtual, with a full materializer pass of the key landing before it runs,
// is rewritten again and lands on the key's column. Run as rewritten, the
// UPDATE would set the key in the reservoir behind the column — an
// acknowledged write that reads back as the old value — and the DELETE
// would look for the key in the reservoir and miss its row.
func TestWriteRebuiltAfterPass(t *testing.T) {
	for _, c := range []struct {
		sql, check string
		want       int64
	}{
		{`UPDATE c SET k = 1000 WHERE name = 'n5'`, `SELECT COUNT(*) FROM c WHERE k = 1000 AND name = 'n5'`, 1},
		{`DELETE FROM c WHERE k = 5`, `SELECT COUNT(*) FROM c WHERE name = 'n5'`, 0},
	} {
		db := Open(DefaultConfig())
		if err := db.CreateCollection("c"); err != nil {
			t.Fatal(err)
		}
		var lines bytes.Buffer
		for i := 0; i < 20; i++ {
			fmt.Fprintf(&lines, `{"k":%d,"name":"n%d"}`+"\n", i, i)
		}
		if _, err := db.LoadJSONLines("c", &lines); err != nil {
			t.Fatal(err)
		}
		if err := db.SetMaterialized("c", "k", true); err != nil {
			t.Fatal(err)
		}
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		builds := 0
		res, err := db.rdb.ExecWriteOnce(func() (sqlparse.Statement, error) {
			builds++
			rewritten, cleanup, err := db.RewriteStmt(stmt)
			cleanup()
			if builds == 1 {
				// The pass lands between the rewrite and the write.
				if _, err := NewMaterializer(db).RunOnce("c"); err != nil {
					t.Fatal(err)
				}
			}
			return rewritten, err
		})
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if res.RowsAffected != 1 || builds != 2 {
			t.Errorf("%s: %d rows after %d builds, want 1 row from a second build", c.sql, res.RowsAffected, builds)
		}
		if cols := db.MaterializedColumns("c"); len(cols) != 1 {
			t.Fatalf("%d materialized columns after the pass, want k's", len(cols))
		}
		got, err := db.Query(c.check)
		if err != nil {
			t.Fatal(err)
		}
		if n := got.Rows[0][0].I; n != c.want {
			t.Errorf("after %s: %s = %d, want %d", c.sql, c.check, n, c.want)
		}
	}
}

// TestMaterializerMatchesReference holds the page-at-a-time pass to the
// tree-based one it replaced, on random documents and random passes: key
// subsets that put a parent object and its subkeys in one pass, passes
// that materialize some columns while they dematerialize others, a pass
// paused at a random page and resumed. After every pass the heap must hold
// what refMaterialize computes from the heap before it, cell for cell and
// byte for byte, a pass that ran through must have moved as many values,
// and a second RunOnce must find nothing to do.
func TestMaterializerMatchesReference(t *testing.T) {
	var seen passKinds
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := Open(DefaultConfig())
		if err := db.CreateCollection("r"); err != nil {
			t.Fatal(err)
		}
		docs := make([]*jsonx.Doc, 300+rng.Intn(200))
		for i := range docs {
			docs[i] = randomDoc(rng, 0)
		}
		if _, err := db.LoadDocuments("r", docs); err != nil {
			t.Fatal(err)
		}
		tc, _ := db.cat.Lookup("r")
		mat := NewMaterializer(db)
		// A family is the keys under one top-level key; it moves one way
		// as a whole, so that parents and subkeys share passes in both
		// directions.
		familyOn := map[string]bool{}
		for pass := 0; pass < 10; pass++ {
			var keys []string
			for _, c := range tc.Columns() {
				if pathDepth(c.Key) <= 3 {
					keys = append(keys, c.Key)
				}
			}
			top := string(rune('a' + rng.Intn(5)))
			familyOn[top] = !familyOn[top]
			for _, key := range keys {
				if (key == top || strings.HasPrefix(key, top+".")) && rng.Intn(3) > 0 {
					if err := db.SetMaterialized("r", key, familyOn[top]); err != nil {
						t.Fatal(err)
					}
				}
			}
			// And a few keys from anywhere, either way.
			for n := rng.Intn(3); n > 0; n-- {
				if err := db.SetMaterialized("r", keys[rng.Intn(len(keys))], rng.Intn(2) == 0); err != nil {
					t.Fatal(err)
				}
			}
			label := fmt.Sprintf("seed %d pass %d", seed, pass)
			checkPassAgainstReference(t, label, db, mat, rng, &seen)
			if t.Failed() {
				return
			}
		}
	}
	if seen != (passKinds{true, true, true, true}) {
		t.Errorf("the generator no longer draws every kind of pass: %+v", seen)
	}
}

// passKinds records which kinds of pass the generator has drawn.
type passKinds struct {
	mixed, parentAndSubkeyIn, parentAndSubkeyOut, paused bool
}

func (k *passKinds) note(dirty []ColumnState, paused bool) {
	k.paused = k.paused || paused
	for _, c := range dirty {
		if c.PhysicalName == "" && !c.Materialized {
			continue // nothing to move
		}
		for _, d := range dirty {
			if d.PhysicalName == "" && !d.Materialized {
				continue
			}
			switch {
			case c.Materialized != d.Materialized:
				k.mixed = true
			case strings.HasPrefix(d.Key, c.Key+".") && c.Materialized:
				k.parentAndSubkeyIn = true
			case strings.HasPrefix(d.Key, c.Key+"."):
				k.parentAndSubkeyOut = true
			}
		}
	}
}

// checkPassAgainstReference runs one materializer pass over collection r —
// with a pause at a random page, half of the time — and compares the heap
// it leaves with refMaterialize's prediction.
func checkPassAgainstReference(t *testing.T, label string, db *DB, mat *Materializer, rng *rand.Rand, seen *passKinds) {
	t.Helper()
	tc, _ := db.cat.Lookup("r")
	dirty := tc.DirtyColumns()
	var before []storage.Row
	if err := db.rdb.ScanTable("r", func(_ storage.RowID, row storage.Row) bool {
		before = append(before, row.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	schemaBefore, _ := db.rdb.TableSchema("r")

	// A resumed pass starts over, and every move but one can be done twice:
	// once a top-level object has left the reservoir for its column, a
	// returning subkey of it finds no parent there and is set as a literal
	// dotted member instead. (The two-sweep pass did the same when paused
	// in its purge sweep.) Such passes run through.
	pauseAt := -1
	if rng.Intn(2) == 0 && !returnsUnderPromotedParent(dirty) {
		pauseAt = rng.Intn((len(before)-1)/storage.PageCapacity + 1)
	}
	seen.note(dirty, pauseAt >= 0)
	moved := runPausedAt(t, mat, pauseAt)
	if again, err := mat.RunOnce("r"); err != nil || again != 0 {
		t.Errorf("%s: a second RunOnce moved %d values (err %v), want 0", label, again, err)
	}

	// The reference sees the rows in the layout the pass works in: the
	// columns it adds are there (NULL), the ones it drops still are.
	work := schemaBefore.Clone()
	for i := range dirty {
		col := &dirty[i]
		if col.Materialized && col.PhysicalName == "" {
			//lint:ignore sinew/catalog-view a private copy, completed with the name the pass gave the column
			col.PhysicalName = physicalNameOf(t, tc, col.AttrID)
			if err := work.AddColumn(storage.Column{Name: col.PhysicalName, Typ: serial.DatumType(col.Type)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, row := range before {
		for len(row) < len(work.Cols) {
			row = append(row, types.NewNull(types.Unknown))
		}
		before[i] = row
	}
	want, wantMoved := refMaterialize(t, before, work, dirty, db.dict())
	if pauseAt < 0 && moved != wantMoved {
		t.Errorf("%s: the pass moved %d values, the reference %d", label, moved, wantMoved)
	}

	schemaAfter, _ := db.rdb.TableSchema("r")
	i := 0
	err := db.rdb.ScanTable("r", func(_ storage.RowID, got storage.Row) bool {
		for j, c := range schemaAfter.Cols {
			w := want[i][work.ColumnIndex(c.Name)]
			if g := got[j]; g.IsNull() != w.IsNull() || !g.IsNull() && (g.Typ != w.Typ || !bytes.Equal(g.HashKey(nil), w.HashKey(nil))) {
				t.Errorf("%s: row %d column %s = %v, the reference has %v (dirty: %+v)", label, i, c.Name, g, w, dirty)
				return false
			}
		}
		i++
		return true
	})
	if err != nil || i != len(want) {
		t.Errorf("%s: compared %d of %d rows (%v)", label, i, len(want), err)
	}
	for _, col := range dirty {
		if !col.Materialized && col.PhysicalName != "" && schemaAfter.ColumnIndex(col.PhysicalName) >= 0 {
			t.Errorf("%s: dematerialized column %s is still in the table", label, col.PhysicalName)
		}
	}
}

// runPausedAt runs a pass to completion; with pauseAt >= 0 the materializer
// is paused once it has done that page, returns early, and is resumed by a
// second call. It returns the values moved, summed over the calls.
func runPausedAt(t *testing.T, mat *Materializer, pauseAt int) int64 {
	t.Helper()
	mat.pageDone = func(page int) {
		if page == pauseAt {
			mat.Pause()
		}
	}
	defer func() { mat.pageDone = nil }()
	var moved int64
	for call := 0; call < 2; call++ {
		n, err := mat.RunOnce("r")
		if err != nil {
			t.Fatal(err)
		}
		moved += n
		if !mat.Paused() {
			break
		}
		pauseAt = -1
		mat.Resume()
	}
	return moved
}

// returnsUnderPromotedParent reports whether a pass dematerializes a nested
// key while it materializes the key's top-level ancestor.
func returnsUnderPromotedParent(dirty []ColumnState) bool {
	for _, d := range dirty {
		if d.Materialized || d.PhysicalName == "" || pathDepth(d.Key) == 1 {
			continue
		}
		top, _, _ := strings.Cut(d.Key, ".")
		for _, m := range dirty {
			if m.Materialized && m.Key == top {
				return true
			}
		}
	}
	return false
}

// physicalNameOf reads the physical name the catalog holds for an attribute.
func physicalNameOf(t *testing.T, tc *CollectionCatalog, attrID uint32) string {
	t.Helper()
	for _, c := range tc.schemaView().all {
		if c.AttrID == attrID {
			return c.PhysicalName
		}
	}
	t.Fatalf("attribute %d has left the catalog", attrID)
	return ""
}
