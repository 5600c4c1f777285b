package serial

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/sinewdata/sinew/internal/jsonx"
)

// Record layout (all integers little-endian uint32, Figure 5):
//
//	[n][aid_0 .. aid_{n-1}][off_0 .. off_{n-1}][bodyLen][body]
//
// aids are sorted ascending; off_i is the byte offset of attribute i's
// value within the body; a value's length is off_{i+1}-off_i (or
// bodyLen-off_i for the last). Values are binary: bool 1 byte, int/float 8
// bytes, strings raw UTF-8, nested objects a nested record, arrays a
// count-prefixed sequence of tagged elements ([tag][len][bytes]; a null
// element keeps its position as tag 0xff, length 0).

const u32 = 4

// nullTag marks a null array element.
const nullTag = 0xff

// Observation is one cataloged occurrence of an attribute in an encoded
// document: the attribute's ID (of its dotted path, for a key of a nested
// object) and the value's serialized bytes.
type Observation struct {
	ID  uint32
	Val []byte
}

// Encoder turns documents into records. It is the one writer of the record
// layout: JSON text reaches it as jsonx.Scanner events, a *jsonx.Doc as a
// walk over the tree that raises the same events.
//
// Events only ever resolve attributes the dictionary already holds, which
// is every attribute of nearly every document. A document with an
// attribute the dictionary lacks — schema evolution (§3.2.1) — is encoded
// from its tree after intern has minted the missing IDs, in an order that
// depends only on the tree; so is JSON text that repeats a key within an
// object, because only the tree knows which occurrence survives.
//
// An Encoder is not safe for concurrent use.
type Encoder struct {
	observe bool
	sc      jsonx.Scanner
	b       builder
	out     []Observation
}

// NewEncoder returns an encoder over dict. With observe set, each encoded
// document also yields its Observations: one per non-null attribute at any
// object depth (arrays are not descended into), which is the document's
// flattened attribute set.
func NewEncoder(dict Dict, observe bool) *Encoder {
	return &Encoder{observe: observe, b: builder{dict: dict}}
}

// EncodeJSON encodes the document in line, which must hold one JSON object
// and nothing else but JSON whitespace. The error, if any, is the
// *jsonx.SyntaxError that jsonx.ParseDocument reports for line.
func (e *Encoder) EncodeJSON(line []byte) ([]byte, error) {
	if bytes.HasPrefix(bytes.TrimLeft(line, " \t\r\n"), []byte("{")) {
		e.b.reset(e.observe, true)
		if err := e.sc.Scan(line, &e.b); err != nil {
			return nil, err
		}
		if !e.b.bail {
			return slices.Clone(e.b.buf), nil
		}
	}
	// Not an object (ParseDocument words the error), or a document the
	// events alone cannot place.
	doc, err := jsonx.ParseDocument(line)
	if err != nil {
		return nil, err
	}
	return e.EncodeDoc(doc)
}

// EncodeDoc encodes a parsed document.
func (e *Encoder) EncodeDoc(doc *jsonx.Doc) ([]byte, error) {
	rec, err := e.encodeTree(jsonx.ObjectValue(doc), e.observe)
	if err != nil {
		return nil, err
	}
	return slices.Clone(rec), nil
}

// EncodeValue returns the bytes v has as an attribute value inside a
// record body. They alias the encoder's buffer and are valid until its
// next call; the call yields no observations.
func (e *Encoder) EncodeValue(v jsonx.Value) ([]byte, error) {
	return e.encodeTree(v, false)
}

func (e *Encoder) encodeTree(v jsonx.Value, observe bool) ([]byte, error) {
	e.b.reset(observe, false)
	if err := e.b.walk(v); err != nil {
		return nil, err
	}
	if e.b.bail {
		intern(v, e.b.dict, observe)
		e.b.reset(observe, false)
		if err := e.b.walk(v); err != nil {
			return nil, err
		}
		if e.b.bail {
			return nil, fmt.Errorf("serial: dictionary lost an attribute it had minted")
		}
	}
	return e.b.buf, nil
}

// Observations returns what the last encoded document contributes to the
// catalog. The slice and the values alias the encoder's buffers and are
// valid until its next call.
func (e *Encoder) Observations() []Observation {
	e.out = e.out[:0]
	for _, o := range e.b.obs {
		e.out = append(e.out, Observation{ID: o.id, Val: e.b.obsBuf[o.off:o.end]})
	}
	return e.out
}

// encoders recycles the scratch buffers of Serialize's encoders.
var encoders = sync.Pool{New: func() any { return new(Encoder) }}

// Serialize encodes a document. Top-level keys become attributes; nested
// objects are serialized recursively as sub-records under their parent key
// (their dotted sub-attributes are cataloged by the loader, not stored
// separately). Null-valued keys are omitted: absence is NULL.
func Serialize(doc *jsonx.Doc, dict Dict) ([]byte, error) {
	e := encoders.Get().(*Encoder)
	e.b.dict = dict
	rec, err := e.EncodeDoc(doc)
	e.b.dict = nil
	encoders.Put(e)
	return rec, err
}

// intern mints an ID for every attribute of v the dictionary lacks. IDs
// order a record's header and the catalog's columns, so the order they are
// minted in is part of the format's behaviour: per object, the members'
// (key, type) pairs in member order, then the members' values in ascending
// ID order (objects recursively, arrays element by element); and, with
// paths set, afterwards the dotted paths of the flattened document in
// document order.
func intern(v jsonx.Value, dict Dict, paths bool) {
	internValue(v, dict)
	if paths && v.Kind == jsonx.Object {
		for _, f := range jsonx.Flatten(v.Obj) {
			if t, ok := AttrTypeOf(f.Val); ok {
				dict.IDFor(f.Path, t)
			}
		}
	}
}

func internValue(v jsonx.Value, dict Dict) {
	switch v.Kind {
	case jsonx.Array:
		for _, e := range v.A {
			internValue(e, dict)
		}
	case jsonx.Object:
		type member struct {
			id  uint32
			val jsonx.Value
		}
		ms := make([]member, 0, v.Obj.Len())
		for _, m := range v.Obj.Members() {
			if t, ok := AttrTypeOf(m.Val); ok {
				ms = append(ms, member{dict.IDFor(m.Key, t), m.Val})
			}
		}
		slices.SortFunc(ms, func(a, b member) int { return int(a.id) - int(b.id) })
		for _, m := range ms {
			internValue(m.val, dict)
		}
	default:
		// Scalars carry no attributes.
	}
}

// builder assembles one value — for a document, its record — in buf from
// the events of a jsonx.Handler. It never mints an ID: bail reports that
// the events met an attribute the dictionary lacks or a repeated key, and
// that buf holds nothing of use.
type builder struct {
	dict    Dict
	observe bool
	repeats bool // the events may repeat a key within an object: JSON text can, a tree cannot
	bail    bool

	// buf holds the value being built. A container's values collect behind
	// its start in event order; its end rewrites them in place as the
	// container's encoding.
	buf     []byte
	tmp     []byte // endObject: the members' values while buf is rewritten
	path    []byte // the open objects' keys (dotted where cataloged), then the current member's
	open    []frame
	entries []entry // members seen so far of every open object

	obs    []obsRef
	obsBuf []byte
}

// slot places a value in its container: where its bytes start in buf and,
// for a member of an object, the attribute it is.
type slot struct {
	start   int
	id, obs uint32
}

// frame is an open container.
type frame struct {
	slot           // the container as a value of its own container
	array   bool   // else an object
	count   uint32 // array: elements so far
	first   int    // object: its first entry
	prefix  int    // object: len(path) before its members' keys
	observe bool   // object: its members are cataloged
}

// entry is a scanned member of an open object.
type entry struct {
	id       uint32 // attribute ID of (key, type): the record's
	obs      uint32 // attribute ID of (dotted path, type): the catalog's
	off, end uint32 // its value in buf
}

type obsRef struct {
	id       uint32
	off, end uint32 // in obsBuf
}

// maxDupScan bounds the members a repeated-key probe compares against; a
// larger object bails out instead, so hostile input cannot make the probe
// quadratic.
const maxDupScan = 64

func (b *builder) reset(observe, repeats bool) {
	b.observe, b.repeats, b.bail = observe, repeats, false
	b.buf, b.path, b.open, b.entries = b.buf[:0], b.path[:0], b.open[:0], b.entries[:0]
	b.obs, b.obsBuf = b.obs[:0], b.obsBuf[:0]
}

// begin opens a value of type t in the innermost open container; ok is
// false when the builder has bailed out.
func (b *builder) begin(t AttrType) (s slot, ok bool) {
	if b.bail {
		return slot{}, false
	}
	if len(b.open) == 0 {
		return slot{start: len(b.buf)}, true
	}
	f := &b.open[len(b.open)-1]
	if f.array {
		b.buf = append(b.buf, byte(t), 0, 0, 0, 0)
		return slot{start: len(b.buf)}, true
	}
	ids := b.dict.IDsOf(b.path[f.prefix:])
	id, known := ids.ID(t)
	// The same key under another type may already be a member: the ID
	// alone would not show the repeat.
	ids[t] = 0
	if !known || b.repeats && ids != (KeyIDs{}) && b.seen(f.first, ids) {
		b.bail = true
		return slot{}, false
	}
	s = slot{start: len(b.buf), id: id, obs: id}
	if f.observe && f.prefix > 0 {
		if s.obs, known = b.dict.IDsOf(b.path).ID(t); !known {
			b.bail = true
			return slot{}, false
		}
	}
	return s, true
}

// seen reports whether a member of the object whose entries start at first
// may carry one of ids.
func (b *builder) seen(first int, ids KeyIDs) bool {
	es := b.entries[first:]
	if len(es) > maxDupScan {
		return true
	}
	for _, e := range es {
		for _, id := range ids {
			if id == e.id+1 {
				return true
			}
		}
	}
	return false
}

// end closes the value begun at s.
func (b *builder) end(s slot) {
	if len(b.open) == 0 {
		return
	}
	f := &b.open[len(b.open)-1]
	if f.array {
		binary.LittleEndian.PutUint32(b.buf[s.start-u32:], uint32(len(b.buf)-s.start))
		f.count++
		return
	}
	b.entries = append(b.entries, entry{id: s.id, obs: s.obs, off: uint32(s.start), end: uint32(len(b.buf))})
}

func (b *builder) Null() {
	if b.bail || len(b.open) == 0 {
		return
	}
	f := &b.open[len(b.open)-1]
	if f.array {
		b.buf = append(b.buf, nullTag, 0, 0, 0, 0)
		f.count++
		return
	}
	// A null member is absent — unless it replaces an earlier member of
	// the same key, which the tree has to sort out.
	if b.repeats {
		if ids := b.dict.IDsOf(b.path[f.prefix:]); ids != (KeyIDs{}) && b.seen(f.first, ids) {
			b.bail = true
		}
	}
}

func (b *builder) Bool(v bool) {
	if s, ok := b.begin(TypeBool); ok {
		if v {
			b.buf = append(b.buf, 1)
		} else {
			b.buf = append(b.buf, 0)
		}
		b.end(s)
	}
}

func (b *builder) Int(i int64) {
	if s, ok := b.begin(TypeInt); ok {
		b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(i))
		b.end(s)
	}
}

func (b *builder) Float(f float64) {
	if s, ok := b.begin(TypeFloat); ok {
		b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(f))
		b.end(s)
	}
}

func (b *builder) String(v []byte) { text(b, v) }

func text[T string | []byte](b *builder, v T) {
	if s, ok := b.begin(TypeString); ok {
		b.buf = append(b.buf, v...)
		b.end(s)
	}
}

func (b *builder) Key(k []byte) { key(b, k) }

func key[T string | []byte](b *builder, k T) {
	if !b.bail {
		b.path = append(b.path[:b.open[len(b.open)-1].prefix], k...)
	}
}

func (b *builder) BeginArray() {
	if s, ok := b.begin(TypeArray); ok {
		b.buf = append(b.buf, 0, 0, 0, 0) // the count, known at the end
		b.open = append(b.open, frame{slot: s, array: true})
	}
}

func (b *builder) EndArray() {
	if b.bail {
		return
	}
	f := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	binary.LittleEndian.PutUint32(b.buf[f.start:], f.count)
	b.end(f.slot)
}

func (b *builder) BeginObject() {
	s, ok := b.begin(TypeObject)
	if !ok {
		return
	}
	f := frame{slot: s, first: len(b.entries)}
	if len(b.open) == 0 {
		f.observe = b.observe
	} else if p := b.open[len(b.open)-1]; p.observe {
		// Its members' dotted paths continue the member's own, the way
		// jsonx.Flatten joins them: no dot after an empty path.
		if len(b.path) > 0 {
			b.path = append(b.path, '.')
		}
		f.observe = true
	}
	// An object inside an array is not cataloged, but its keys still go
	// behind the live path: the enclosing objects' prefix must survive it.
	f.prefix = len(b.path)
	b.open = append(b.open, f)
}

func (b *builder) EndObject() {
	if b.bail {
		return
	}
	f := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	es := b.entries[f.first:]
	b.entries = b.entries[:f.first]

	if f.observe {
		for _, e := range es {
			at := uint32(len(b.obsBuf))
			b.obsBuf = append(b.obsBuf, b.buf[e.off:e.end]...)
			b.obs = append(b.obs, obsRef{id: e.obs, off: at, end: uint32(len(b.obsBuf))})
		}
	}

	byID := func(x, y entry) int { return int(x.id) - int(y.id) }
	if !slices.IsSortedFunc(es, byID) {
		slices.SortFunc(es, byID)
	}
	for i := 1; i < len(es); i++ {
		if es[i].id == es[i-1].id {
			b.bail = true // a repeated key
			return
		}
	}

	// Rewrite buf[f.start:], the values in event order, as the record:
	// header, then the values in ID order.
	b.tmp = append(b.tmp[:0], b.buf[f.start:]...)
	buf := binary.LittleEndian.AppendUint32(b.buf[:f.start], uint32(len(es)))
	for _, e := range es {
		buf = binary.LittleEndian.AppendUint32(buf, e.id)
	}
	off := uint32(0)
	for _, e := range es {
		buf = binary.LittleEndian.AppendUint32(buf, off)
		off += e.end - e.off
	}
	buf = binary.LittleEndian.AppendUint32(buf, off)
	for _, e := range es {
		buf = append(buf, b.tmp[int(e.off)-f.start:int(e.end)-f.start]...)
	}
	b.buf = buf
	b.end(f.slot)
}

// walk raises v's events from its tree.
func (b *builder) walk(v jsonx.Value) error {
	switch v.Kind {
	case jsonx.Null:
		b.Null()
	case jsonx.Bool:
		b.Bool(v.B)
	case jsonx.Int:
		b.Int(v.I)
	case jsonx.Float:
		b.Float(v.F)
	case jsonx.String:
		text(b, v.S)
	case jsonx.Array:
		b.BeginArray()
		for _, e := range v.A {
			if err := b.walk(e); err != nil {
				return err
			}
		}
		b.EndArray()
	case jsonx.Object:
		b.BeginObject()
		for _, m := range v.Obj.Members() {
			if b.bail {
				return nil
			}
			key(b, m.Key)
			if err := b.walk(m.Val); err != nil {
				return err
			}
		}
		b.EndObject()
	default:
		return fmt.Errorf("serial: cannot serialize %v value", v.Kind)
	}
	return nil
}
