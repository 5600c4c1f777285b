// Package serial implements Sinew's custom serialization format (§4.1 of
// the paper, Figure 5): a per-record header holding the attribute count, a
// sorted list of attribute IDs, and a parallel list of value offsets,
// followed by a binary body. The header separates structure from data so a
// single key is located with one binary search (O(log n)) instead of the
// sequential scan Avro/Protocol-Buffers-style formats require; IDs and
// offsets are stored contiguously for cache-friendly searches.
//
// Attribute IDs come from a dictionary (the global half of Sinew's catalog,
// Figure 4a): every distinct (key, type) pair — an attribute — maps to a
// compact integer ID, which doubles as dictionary compression of key names.
package serial

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/sinewdata/sinew/internal/jsonx"
)

// AttrType is the dynamic type half of an attribute. The same JSON key with
// values of two types yields two attributes (paper §3.2.2: extraction is
// type-selective).
type AttrType uint8

// Attribute types.
const (
	TypeString AttrType = iota
	TypeInt
	TypeFloat
	TypeBool
	TypeObject
	TypeArray

	numAttrTypes = iota
)

// String returns the catalog name of the type (matching Figure 4's
// key_type column).
func (t AttrType) String() string {
	switch t {
	case TypeString:
		return "text"
	case TypeInt:
		return "integer"
	case TypeFloat:
		return "real"
	case TypeBool:
		return "boolean"
	case TypeObject:
		return "document"
	case TypeArray:
		return "array"
	case TypeAny:
		return "any"
	default:
		return fmt.Sprintf("AttrType(%d)", uint8(t))
	}
}

// AttrTypeOf maps a JSON value to its attribute type; ok is false for null
// (null-valued keys are simply absent from the serialized record).
func AttrTypeOf(v jsonx.Value) (AttrType, bool) {
	switch v.Kind {
	case jsonx.String:
		return TypeString, true
	case jsonx.Int:
		return TypeInt, true
	case jsonx.Float:
		return TypeFloat, true
	case jsonx.Bool:
		return TypeBool, true
	case jsonx.Object:
		return TypeObject, true
	case jsonx.Array:
		return TypeArray, true
	default:
		return 0, false
	}
}

// Attr is one dictionary entry.
type Attr struct {
	ID   uint32
	Key  string
	Type AttrType
}

// Dict resolves attributes to IDs and back. Implementations must be safe
// for concurrent use (the loader and extraction UDFs share it).
type Dict interface {
	// IDFor returns the attribute's ID, allocating a new one if the
	// attribute has never been seen (the invisible schema-evolution cost
	// of §3.2.1).
	IDFor(key string, typ AttrType) uint32
	// IDOf returns the ID without allocating; ok is false if absent.
	IDOf(key string, typ AttrType) (id uint32, ok bool)
	// IDsOf returns every ID minted for key, one per observed type; the
	// zero KeyIDs if the key has never been seen. key is only read.
	IDsOf(key []byte) KeyIDs
	// Lookup resolves an ID.
	Lookup(id uint32) (Attr, bool)
	// All returns every attribute sorted by ID (Avro-style formats need
	// the full closed schema).
	All() []Attr
}

// KeyIDs holds the attribute IDs of one key: element t is 1 + the ID of
// (key, AttrType(t)), or 0 while that pair has no ID.
type KeyIDs [numAttrTypes]uint32

// ID returns the ID of the key's attribute of type t.
func (k KeyIDs) ID(t AttrType) (id uint32, ok bool) {
	return k[t] - 1, k[t] != 0
}

// Dictionary is the standard in-memory Dict.
type Dictionary struct {
	mu    sync.RWMutex
	byKey map[string]KeyIDs
	byID  []Attr // index == ID
	// snap is the latest byID slice header, republished under mu after
	// every append. Entries are immutable once written and IDs are
	// append-only, so a loaded snapshot is always a consistent prefix —
	// Lookup (the per-attribute hot path of record rendering and
	// extraction) reads it without touching the lock.
	snap atomic.Pointer[[]Attr]
}

// NewDictionary returns an empty dictionary; IDs start at 0.
func NewDictionary() *Dictionary {
	return &Dictionary{byKey: make(map[string]KeyIDs)}
}

// IDFor implements Dict.
func (d *Dictionary) IDFor(key string, typ AttrType) uint32 {
	if id, ok := d.IDOf(key, typ); ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := d.byKey[key]
	if id, ok := ids.ID(typ); ok {
		return id
	}
	id := uint32(len(d.byID))
	ids[typ] = id + 1
	d.byKey[key] = ids
	d.byID = append(d.byID, Attr{ID: id, Key: key, Type: typ})
	s := d.byID
	d.snap.Store(&s)
	return id
}

// IDOf implements Dict.
func (d *Dictionary) IDOf(key string, typ AttrType) (uint32, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.byKey[key].ID(typ)
}

// IDsOf implements Dict.
func (d *Dictionary) IDsOf(key []byte) KeyIDs {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.byKey[string(key)] // the lookup converts without allocating
}

// Lookup implements Dict.
func (d *Dictionary) Lookup(id uint32) (Attr, bool) {
	// Lock-free fast path: the snapshot is a consistent prefix of byID. An
	// ID past the snapshot may have been minted since; only then fall back
	// to the locked read.
	if p := d.snap.Load(); p != nil {
		if s := *p; int(id) < len(s) {
			return s[id], true
		}
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.byID) {
		return Attr{}, false
	}
	return d.byID[id], true
}

// All implements Dict.
func (d *Dictionary) All() []Attr {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]Attr, len(d.byID))
	copy(out, d.byID)
	return out
}

// Len returns the number of attributes.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byID)
}

// IDsOfKey returns all attribute IDs sharing a key (one per observed type),
// sorted; extraction with an unknown desired type probes each.
func (d *Dictionary) IDsOfKey(key string) []Attr {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []Attr
	for _, id := range d.byKey[key] {
		if id != 0 {
			out = append(out, d.byID[id-1])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
