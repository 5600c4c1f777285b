package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/sinewdata/sinew/internal/serial"
)

// Catalog is Sinew's two-part catalog (§3.1.2, Figure 4): a global
// attribute dictionary mapping every (key, type) pair across all
// collections to a compact ID, plus per-collection column records tracking
// occurrence counts, cardinality estimates, storage mode (physical or
// virtual), and the dirty flag driving the materializer.
type Catalog struct {
	mu     sync.RWMutex
	dict   *serial.Dictionary
	tables map[string]*CollectionCatalog
}

// CollectionCatalog is the per-table half of the catalog (Figure 4b).
type CollectionCatalog struct {
	mu   sync.RWMutex
	name string
	// columns is keyed by attribute ID.
	columns map[uint32]*column
	// docCount is the number of loaded documents (density denominator).
	docCount int64
	// nextID assigns _id values.
	nextID int64
	// latch serializes the loader and the column materializer (§3.1.4:
	// "the materializer and loader are not allowed to run concurrently").
	latch sync.Mutex
	// view is the published schema view; nil means stale. Mutators clear
	// it under mu's write lock, schemaView rebuilds it under the read lock.
	view atomic.Pointer[schemaView]
}

// ColumnState is the part of a column's catalog record the rewriter's
// output depends on. Schema views hold it by value, so one statement sees
// one consistent state however the catalog moves meanwhile.
type ColumnState struct {
	AttrID uint32
	Key    string
	Type   serial.AttrType
	// Materialized is the *target* storage mode set by the schema
	// analyzer; the physical schema converges to it via the materializer.
	Materialized bool
	// Dirty means values may be split between the reservoir and the
	// physical column; queries must COALESCE (§3.1.4).
	Dirty bool
	// PhysicalName is the RDBMS column name once one exists ("" while
	// purely virtual).
	PhysicalName string
}

// ColumnInfo is a by-value snapshot of one logical column's catalog
// record: its state plus the load statistics the schema analyzer reads.
type ColumnInfo struct {
	ColumnState
	// Count is the number of documents containing the attribute.
	Count int64
	// cardinality approximates the distinct-value count: exact up to
	// cardTrackLimit, then pinned to "many".
	cardinality int64
}

// column is the catalog's live record, guarded by CollectionCatalog.mu.
type column struct {
	ColumnInfo
	// distinct holds the fingerprint of every value seen until cardinality
	// saturates: 8 bytes and no pointer per value, so the catalog's
	// statistics cost the collector nothing to mark.
	distinct map[uint64]struct{}
}

// cardTrackLimit bounds per-column distinct tracking; beyond it the column
// is simply "high cardinality", which is all the analyzer's threshold test
// needs.
const cardTrackLimit = 4096

// Cardinality returns the (possibly saturated) distinct-value estimate.
func (c ColumnInfo) Cardinality() int64 { return c.cardinality }

// tracking reports whether the column still tracks distinct values (its
// cardinality has not saturated).
func (c *column) tracking() bool { return c.cardinality <= cardTrackLimit }

// fingerprint is the identity of a value in a distinct set: the 64-bit
// FNV-1a hash of its serialized bytes. Equal bytes are the same value, as
// before; two different values share a fingerprint only by collision, which
// can only undercount a cardinality that saturates at cardTrackLimit — for
// a set of at most 4 097 values the odds are below 2⁻⁴⁰. The hash has no
// per-process seed, so the statistics (and the goldens over them) repeat.
func fingerprint(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// observeValue records one more value of the attribute, given its
// fingerprint; it is kept only while the column is still tracking.
func (c *column) observeValue(fp uint64) {
	if !c.tracking() {
		return
	}
	if c.distinct == nil {
		c.distinct = make(map[uint64]struct{})
	}
	c.distinct[fp] = struct{}{}
	c.cardinality = int64(len(c.distinct))
	if !c.tracking() {
		c.distinct = nil
	}
}

// observations is what one load batch adds to a collection's statistics,
// gathered by the loader without the catalog lock and applied by
// recordObservations under one: per attribute the number of documents it
// occurred in, and — only for columns that were still tracking distinct
// values when the batch began — the fingerprint of each value.
type observations struct {
	// slot maps an attribute ID to 1 + its index in attrs; 0 means the
	// batch has not met the attribute. saturated is indexed alike.
	slot      []int32
	saturated []bool
	attrs     []attrObservations
	// refs holds the kept values' fingerprints and whose they are.
	refs []valueRef
	// doc numbers the current document, from 1.
	doc int32
}

type attrObservations struct {
	id      uint32
	count   int64
	lastDoc int32
}

type valueRef struct {
	attr int32 // index in attrs
	fp   uint64
}

// grow makes slot and saturated cover attribute id.
func (o *observations) grow(id uint32) {
	for int(id) >= len(o.slot) {
		o.slot = append(o.slot, 0)
		o.saturated = append(o.saturated, false)
	}
}

// nextDoc starts the next document's observations.
func (o *observations) nextDoc() { o.doc++ }

// add records that the current document holds attribute id with the given
// serialized value. An attribute counts once per document: a literal key
// "a.b" beside a nested a: {b: …} of the same type is one occurrence of
// the column a.b, and the first one's value.
func (o *observations) add(id uint32, val []byte) {
	o.grow(id)
	if o.slot[id] == 0 {
		o.attrs = append(o.attrs, attrObservations{id: id})
		o.slot[id] = int32(len(o.attrs))
	}
	i := o.slot[id] - 1
	a := &o.attrs[i]
	if a.lastDoc == o.doc {
		return
	}
	a.lastDoc = o.doc
	a.count++
	if !o.saturated[id] {
		o.refs = append(o.refs, valueRef{attr: i, fp: fingerprint(val)})
	}
}

// newObservations returns an empty batch that knows which columns no
// longer track distinct values. Saturation is final, so the answer cannot
// go stale in the direction that loses a value.
func (tc *CollectionCatalog) newObservations() *observations {
	o := &observations{}
	tc.mu.RLock()
	defer tc.mu.RUnlock()
	for id, c := range tc.columns {
		if !c.tracking() {
			o.grow(id)
			o.saturated[id] = true
		}
	}
	return o
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{dict: serial.NewDictionary(), tables: make(map[string]*CollectionCatalog)}
}

// Dict returns the global attribute dictionary.
func (cat *Catalog) Dict() *serial.Dictionary { return cat.dict }

// Collection returns (creating if needed) the per-table catalog.
func (cat *Catalog) Collection(name string) *CollectionCatalog {
	cat.mu.Lock()
	defer cat.mu.Unlock()
	tc, ok := cat.tables[name]
	if !ok {
		tc = &CollectionCatalog{name: name, columns: make(map[uint32]*column)}
		cat.tables[name] = tc
	}
	return tc
}

// Lookup returns the per-table catalog if it exists.
func (cat *Catalog) Lookup(name string) (*CollectionCatalog, bool) {
	cat.mu.RLock()
	defer cat.mu.RUnlock()
	tc, ok := cat.tables[name]
	return tc, ok
}

// Collections lists catalog table names, sorted.
func (cat *Catalog) Collections() []string {
	cat.mu.RLock()
	defer cat.mu.RUnlock()
	out := make([]string, 0, len(cat.tables))
	for n := range cat.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DocCount returns the loaded document count.
func (tc *CollectionCatalog) DocCount() int64 {
	tc.mu.RLock()
	defer tc.mu.RUnlock()
	return tc.docCount
}

// NextID reserves n consecutive _id values and returns the first.
func (tc *CollectionCatalog) NextID(n int64) int64 {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	id := tc.nextID
	tc.nextID += n
	return id
}

// schemaView is an immutable picture of the collection's columns as the
// rewriter needs them (§3.2.2): everything is by value and indexed for the
// three questions a reference asks, so a statement bound to one view takes
// no catalog lock and never walks the attribute set. Statistics (Count,
// cardinality) are deliberately absent: they change with every document
// and never change what the rewriter emits.
type schemaView struct {
	// all lists every column in attribute-ID order.
	all []ColumnState
	// byKey lists a key's columns (one per observed type) in attribute-ID
	// order.
	byKey map[string][]ColumnState
	// physical lists the columns that have a physical name, in
	// attribute-ID order: the logical row a star expands to.
	physical []ColumnState
	// objects maps a key to its nested-object column when that column has
	// a physical name: a dotted key under it is extracted from there.
	objects map[string]ColumnState
}

// schemaView returns the current view, rebuilding it if a mutator cleared
// it. The result is shared and must not be modified.
func (tc *CollectionCatalog) schemaView() *schemaView {
	if v := tc.view.Load(); v != nil {
		return v
	}
	// Build and publish under the read lock: mutators invalidate under the
	// write lock, so a slow builder can never overwrite a later
	// invalidation with its stale view.
	tc.mu.RLock()
	defer tc.mu.RUnlock()
	if v := tc.view.Load(); v != nil {
		return v // another reader rebuilt it while this one waited
	}
	v := &schemaView{
		all:     make([]ColumnState, 0, len(tc.columns)),
		byKey:   make(map[string][]ColumnState, len(tc.columns)),
		objects: make(map[string]ColumnState),
	}
	for _, c := range tc.columns {
		v.all = append(v.all, c.ColumnState)
	}
	sort.Slice(v.all, func(i, j int) bool { return v.all[i].AttrID < v.all[j].AttrID })
	for _, c := range v.all {
		v.byKey[c.Key] = append(v.byKey[c.Key], c)
		if c.PhysicalName == "" {
			continue
		}
		v.physical = append(v.physical, c)
		if c.Type == serial.TypeObject {
			v.objects[c.Key] = c
		}
	}
	tc.view.Store(v)
	return v
}

// Columns returns a snapshot of every column record, sorted by attribute
// ID.
func (tc *CollectionCatalog) Columns() []ColumnInfo {
	return tc.infos(tc.schemaView().all)
}

// ColumnsByKey returns a snapshot of the records (one per type) for a key,
// sorted by attribute ID.
func (tc *CollectionCatalog) ColumnsByKey(key string) []ColumnInfo {
	return tc.infos(tc.schemaView().byKey[key])
}

// infos snapshots the live records, statistics included, of the columns a
// view lists (records are never removed, so each still exists).
func (tc *CollectionCatalog) infos(states []ColumnState) []ColumnInfo {
	tc.mu.RLock()
	defer tc.mu.RUnlock()
	out := make([]ColumnInfo, len(states))
	for i, s := range states {
		out[i] = tc.columns[s.AttrID].ColumnInfo
	}
	return out
}

// DirtyColumns returns columns with the dirty bit set (the materializer's
// poll, §3.1.4), sorted by attribute ID.
func (tc *CollectionCatalog) DirtyColumns() []ColumnState {
	var out []ColumnState
	for _, c := range tc.schemaView().all {
		if c.Dirty {
			out = append(out, c)
		}
	}
	return out
}

// The functions below are the only code that may insert a column record or
// write ColumnState's Materialized, Dirty and PhysicalName (sinewlint's
// catalog-view check); recordObservations is also the only one that moves
// a column's statistics. Each clears the published view, under the write
// lock, whenever it changed something the rewriter reads; callers bump the
// RDBMS catalog epoch afterwards, so whoever samples the new epoch also
// finds the new view.

// recordObservations applies a load batch's observations, and the
// documents they came from, under one acquisition of the catalog lock. It
// creates the record of a column on first sight (the invisible cost of
// schema evolution, §3.2.1) and turns a materialized column the batch
// brings values for dirty: they land in the reservoir. It reports whether
// it changed what the rewriter emits — a new record, a clean column now
// dirty.
func (tc *CollectionCatalog) recordObservations(o *observations, docs int64, dict serial.Dict) (schemaChanged bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	cols := make([]*column, len(o.attrs))
	for i, a := range o.attrs {
		col, ok := tc.columns[a.id]
		if !ok {
			attr, _ := dict.Lookup(a.id)
			col = newColumn(attr)
			tc.columns[a.id] = col
			tc.view.Store(nil)
			schemaChanged = true
		}
		col.Count += a.count
		if col.Materialized && !col.Dirty {
			col.Dirty = true
			tc.view.Store(nil)
			schemaChanged = true
		}
		cols[i] = col
	}
	for _, r := range o.refs {
		cols[r.attr].observeValue(r.fp)
	}
	tc.docCount += docs
	return schemaChanged
}

// ensureColumn creates a catalog record for an attribute without counting
// an occurrence (used when an UPDATE introduces a brand-new key — the
// exact density is unknown until the next load or analyzer pass). It
// reports whether it created one.
func (tc *CollectionCatalog) ensureColumn(attr serial.Attr) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if _, ok := tc.columns[attr.ID]; ok {
		return false
	}
	tc.columns[attr.ID] = newColumn(attr)
	tc.view.Store(nil)
	return true
}

func newColumn(attr serial.Attr) *column {
	return &column{ColumnInfo: ColumnInfo{ColumnState: ColumnState{AttrID: attr.ID, Key: attr.Key, Type: attr.Type}}}
}

// setTarget sets a column's target storage mode, marking the column dirty
// when the mode flips; it reports whether it did.
func (tc *CollectionCatalog) setTarget(attrID uint32, materialized bool) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	c, ok := tc.columns[attrID]
	if !ok || c.Materialized == materialized {
		return false
	}
	c.Materialized = materialized
	c.Dirty = true
	tc.view.Store(nil)
	return true
}

// setPhysicalName records the RDBMS column the materializer created for a
// column.
func (tc *CollectionCatalog) setPhysicalName(attrID uint32, name string) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if c, ok := tc.columns[attrID]; ok && c.PhysicalName != name {
		c.PhysicalName = name
		tc.view.Store(nil)
	}
}

// settle ends a materializer pass that moved a column's values toward the
// given target mode: the column is clean again and, if the target was
// virtual, no longer has a physical name. If the analyzer flipped the
// target while the pass ran, the column stays dirty for the next pass and
// settle reports false.
func (tc *CollectionCatalog) settle(attrID uint32, materialized bool) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	c, ok := tc.columns[attrID]
	if !ok || c.Materialized != materialized {
		return false
	}
	c.Dirty = false
	if !materialized {
		c.PhysicalName = ""
	}
	tc.view.Store(nil)
	return true
}

// Latch locks out concurrent loader/materializer activity on this
// collection; callers must Unlatch.
func (tc *CollectionCatalog) Latch() { tc.latch.Lock() }

// TryLatch acquires the latch without blocking.
func (tc *CollectionCatalog) TryLatch() bool { return tc.latch.TryLock() }

// Unlatch releases the loader/materializer latch.
func (tc *CollectionCatalog) Unlatch() { tc.latch.Unlock() }

// String summarizes the catalog (debugging, sinewcli \d output).
func (tc *CollectionCatalog) String() string {
	tc.mu.RLock()
	defer tc.mu.RUnlock()
	return fmt.Sprintf("collection %s: %d docs, %d attributes", tc.name, tc.docCount, len(tc.columns))
}
