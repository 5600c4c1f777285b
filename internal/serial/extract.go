package serial

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file is the read side's one lookup and its one datum decoder. A
// lookup — the literal (key, type) attribute, the nested-object descent,
// the §4.2 array position, the untyped probe — locates a value's bytes in
// the record and decodes nothing. The query side then decodes those bytes
// once, straight into a types.Datum (DecodeDatum): the paper's one binary
// search plus one dereference (§4.1, Appendix B), with text and nested
// objects left in the record's bytes. The jsonx.Value readers (ExtractPath,
// Record.MultiExtract) decode the same located bytes into trees.

// TypeAny is not an attribute type. As the want of an extraction it asks
// for sinew_extract_any's answer: the first value found over the types of
// anyProbeOrder, rendered as its JSON text.
const TypeAny AttrType = numAttrTypes

// anyProbeOrder is the type-probe sequence of a TypeAny request.
var anyProbeOrder = [numAttrTypes]AttrType{TypeString, TypeInt, TypeFloat, TypeBool, TypeArray, TypeObject}

// absentID stands for a (key, type) pair the dictionary has no ID for.
const absentID = ^uint32(0)

func idOf(dict Dict, key string, t AttrType) uint32 {
	if id, ok := dict.IDOf(key, t); ok {
		return id
	}
	return absentID
}

// anyIDs returns the dictionary IDs of key's attributes in probe order.
func anyIDs(dict Dict, key string) [numAttrTypes]uint32 {
	var ids [numAttrTypes]uint32
	for i, t := range anyProbeOrder {
		ids[i] = idOf(dict, key, t)
	}
	return ids
}

// DatumType is the SQL type of a value extracted as t: the column type a
// materialized attribute gets, and text for TypeAny. Nested documents are
// bytea holding the serialized sub-record (§6.1: nested_obj is "itself a
// serialized data column").
func DatumType(t AttrType) types.Type {
	switch t {
	case TypeString, TypeAny:
		return types.Text
	case TypeInt:
		return types.Int
	case TypeFloat:
		return types.Float
	case TypeBool:
		return types.Bool
	case TypeObject:
		return types.Bytes
	case TypeArray:
		return types.Array
	default:
		return types.Unknown
	}
}

// ExtractDatum resolves a possibly dotted key path of type want in the
// record data and decodes the value with DecodeDatum; want TypeAny gives
// sinew_extract_any's text. An absent or differently typed key is the typed
// NULL, never an error (§3.2.2's graceful multi-type handling).
func ExtractDatum(data []byte, path string, want AttrType, dict Dict) (types.Datum, error) {
	h, err := parseHeader(data)
	if err != nil {
		return types.Datum{}, err
	}
	var vb []byte
	var ok bool
	t := want
	if want == TypeAny {
		ids := anyIDs(dict, path)
		vb, t, ok, err = h.locateAny(path, &ids, dict)
	} else {
		vb, ok, err = h.locate(path, want, idOf(dict, path, want), dict)
	}
	if err != nil {
		return types.Datum{}, err
	}
	if !ok {
		return types.NewNull(DatumType(want)), nil
	}
	return decodeAs(vb, t, want, dict)
}

// ExtractPath is ExtractDatum decoding into a jsonx.Value: ok=false when
// the path or type does not match. want is an attribute type. The query
// side does not use it; the serialization benchmarks (Table 4, the layer
// timings) do.
func ExtractPath(data []byte, path string, want AttrType, dict Dict) (jsonx.Value, bool, error) {
	h, err := parseHeader(data)
	if err != nil {
		return jsonx.Value{}, false, err
	}
	vb, ok, err := h.locate(path, want, idOf(dict, path, want), dict)
	if err != nil || !ok {
		return jsonx.Value{}, false, err
	}
	v, err := decodeValue(vb, want, dict)
	if err != nil {
		return jsonx.Value{}, false, err
	}
	return v, true, nil
}

// attrBytes returns the value bytes of attribute id; ok=false when the
// record lacks it.
func (h header) attrBytes(id uint32) ([]byte, bool, error) {
	if id == absentID {
		return nil, false, nil
	}
	i, ok := h.find(id)
	if !ok {
		return nil, false, nil
	}
	vb, err := h.valueBytes(i)
	return vb, err == nil, err
}

// locate finds path typed want: the literal attribute id — the
// dictionary's ID of (path, want), absentID when it has none — else the
// first dot boundary at which a nested object or an array position holds
// the rest (descend).
func (h header) locate(path string, want AttrType, id uint32, dict Dict) ([]byte, bool, error) {
	if vb, ok, err := h.attrBytes(id); ok || err != nil {
		return vb, ok, err
	}
	return h.descend(path, want, dict)
}

// descend tries each dot boundary of path in turn: the head as a nested
// object, whose sub-record is searched for the rest by locate, then the
// head as an array, whose element at the rest's numeric head is searched
// (§4.2 positional addressing). The array is checked whole first, as
// decoding it did, so a corrupt element off the path is still an error.
func (h header) descend(path string, want AttrType, dict Dict) ([]byte, bool, error) {
	for i := 0; i < len(path); i++ {
		if path[i] != '.' {
			continue
		}
		head, rest := path[:i], path[i+1:]
		vb, ok, err := h.attrBytes(idOf(dict, head, TypeObject))
		if err != nil {
			return nil, false, err
		}
		if ok {
			sub, err := parseHeader(vb)
			if err != nil {
				return nil, false, err
			}
			if vb, ok, err := sub.locate(rest, want, idOf(dict, rest, want), dict); ok || err != nil {
				return vb, ok, err
			}
		}
		if vb, ok, err = h.attrBytes(idOf(dict, head, TypeArray)); err != nil {
			return nil, false, err
		}
		if ok {
			if err := checkValue(vb, TypeArray, dict); err != nil {
				return nil, false, err
			}
			if vb, t, ok := valueGet(vb, TypeArray, rest, dict); ok && t == want {
				return vb, true, nil
			}
		}
	}
	return nil, false, nil
}

// locateAny is the TypeAny probe: locate for each type of anyProbeOrder in
// turn, ids holding the dictionary's IDs of path in that order.
func (h header) locateAny(path string, ids *[numAttrTypes]uint32, dict Dict) ([]byte, AttrType, bool, error) {
	for i, t := range anyProbeOrder {
		if vb, ok, err := h.locate(path, t, ids[i], dict); ok || err != nil {
			return vb, t, ok, err
		}
	}
	return nil, 0, false, nil
}

// valueGet resolves path inside a checked object or array value the way
// jsonx.ValuePathGet resolves it inside the decoded value, returning the
// bytes and type of what it reaches. A null element is not found.
func valueGet(b []byte, t AttrType, path string, dict Dict) ([]byte, AttrType, bool) {
	switch t {
	case TypeObject:
		h, _ := parseHeader(b)
		if vb, vt, ok := h.member(path, dict); ok {
			return vb, vt, true
		}
		for i := 0; i < len(path); i++ {
			if path[i] != '.' {
				continue
			}
			if vb, vt, ok := h.member(path[:i], dict); ok {
				if vb, vt, ok := valueGet(vb, vt, path[i+1:], dict); ok {
					return vb, vt, true
				}
			}
		}
	case TypeArray:
		head, rest, _ := strings.Cut(path, ".")
		idx, ok := jsonx.ParseIndex(head)
		it, _ := newArrayIter(b)
		if !ok || idx >= it.n {
			return nil, 0, false
		}
		for range idx {
			_, _, _ = it.next()
		}
		tag, eb, _ := it.next()
		switch {
		case tag == nullTag:
			return nil, 0, false
		case rest == "":
			return eb, AttrType(tag), true
		default:
			return valueGet(eb, AttrType(tag), rest, dict)
		}
	default:
	}
	return nil, 0, false
}

// member returns what the decoded object holds under key: the last
// attribute of that key in record order, as Deserialize's Doc.Set keeps.
func (h header) member(key string, dict Dict) ([]byte, AttrType, bool) {
	at, t := -1, AttrType(0)
	for i := 0; i < h.n; i++ {
		if a, ok := dict.Lookup(h.aid(i)); ok && a.Key == key {
			at, t = i, a.Type
		}
	}
	if at < 0 {
		return nil, 0, false
	}
	vb, err := h.valueBytes(at)
	return vb, t, err == nil
}

// checkValue accepts exactly the values decodeValue decodes and builds
// nothing: an object is walked attribute by attribute as Deserialize reads
// it, an array element by element.
func checkValue(b []byte, t AttrType, dict Dict) error {
	switch t {
	case TypeObject:
		h, err := parseHeader(b)
		if err != nil {
			return err
		}
		for i := 0; i < h.n; i++ {
			attr, ok := dict.Lookup(h.aid(i))
			if !ok {
				return fmt.Errorf("serial: attribute %d not in dictionary", h.aid(i))
			}
			vb, err := h.valueBytes(i)
			if err != nil {
				return err
			}
			if err := checkValue(vb, attr.Type, dict); err != nil {
				return err
			}
		}
		return nil
	case TypeArray:
		it, err := newArrayIter(b)
		for k := 0; err == nil && k < it.n; k++ {
			var tag byte
			var eb []byte
			if tag, eb, err = it.next(); err == nil && tag != nullTag {
				err = checkValue(eb, AttrType(tag), dict)
			}
		}
		return err
	default:
		_, err := DecodeDatum(b, t, dict)
		return err
	}
}

// DecodeDatum decodes one value's bytes of attribute type t without
// copying them: text aliases b, an object is its sub-record's bytes —
// checked the way Deserialize reads them, no tree built — and an array is
// one []types.Datum made for the call, whose elements alias b likewise.
// b must never be written while the datum is in use; a value stored into
// a heap takes its own copy (types.Datum.Clone).
func DecodeDatum(b []byte, t AttrType, dict Dict) (types.Datum, error) {
	switch t {
	case TypeBool:
		if len(b) != 1 {
			return types.Datum{}, fmt.Errorf("serial: bad bool length %d", len(b))
		}
		return types.NewBool(b[0] != 0), nil
	case TypeInt:
		if len(b) != 8 {
			return types.Datum{}, fmt.Errorf("serial: bad int length %d", len(b))
		}
		return types.NewInt(int64(binary.LittleEndian.Uint64(b))), nil
	case TypeFloat:
		if len(b) != 8 {
			return types.Datum{}, fmt.Errorf("serial: bad float length %d", len(b))
		}
		return types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case TypeString:
		return types.AliasText(b), nil
	case TypeObject:
		if err := checkValue(b, TypeObject, dict); err != nil {
			return types.Datum{}, err
		}
		return types.NewBytes(b), nil
	case TypeArray:
		it, err := newArrayIter(b)
		if err != nil {
			return types.Datum{}, err
		}
		elems := make([]types.Datum, it.n)
		for i := range elems {
			tag, eb, err := it.next()
			if err != nil {
				return types.Datum{}, err
			}
			if tag == nullTag {
				elems[i] = types.NewNull(types.Unknown)
			} else if elems[i], err = DecodeDatum(eb, AttrType(tag), dict); err != nil {
				return types.Datum{}, err
			}
		}
		return types.NewArray(elems...), nil
	default:
		return types.Datum{}, fmt.Errorf("serial: unknown attribute type %d", t)
	}
}

// decodeAs decodes a value located as type t for a request of want: with
// TypeAny it renders the value's JSON text — AppendJSON's renderer, or the
// tree when the renderer declines (a repeated key, corruption), exactly as
// sinew_tojson falls back.
func decodeAs(vb []byte, t, want AttrType, dict Dict) (types.Datum, error) {
	if want != TypeAny {
		return DecodeDatum(vb, t, dict)
	}
	if buf, err := appendJSONValue(make([]byte, 0, len(vb)+24), vb, t, dict); err == nil {
		return types.AliasText(buf), nil
	}
	v, err := decodeValue(vb, t, dict)
	if err != nil {
		return types.Datum{}, err
	}
	return types.NewText(v.String()), nil
}

// arrayIter walks an encoded array: a u32 count, then per element a tag
// byte, a u32 length and the bytes (a null element is nullTag, length 0).
type arrayIter struct {
	b    []byte
	n, i int
}

func newArrayIter(b []byte) (arrayIter, error) {
	if len(b) < u32 {
		return arrayIter{}, fmt.Errorf("serial: truncated array")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[u32:]
	// Each element needs a 1-byte tag plus a 4-byte length, so a count
	// larger than the remaining bytes allow is corruption — reject it
	// before a caller sizes an allocation by it.
	if n > len(b)/(1+u32) {
		return arrayIter{}, fmt.Errorf("serial: corrupt array count %d (%d payload bytes)", n, len(b))
	}
	return arrayIter{b: b, n: n}, nil
}

// next returns the next element's tag and bytes; call it at most n times.
func (it *arrayIter) next() (byte, []byte, error) {
	if len(it.b) < 1+u32 {
		return 0, nil, fmt.Errorf("serial: truncated array element %d", it.i)
	}
	tag := it.b[0]
	n := int(binary.LittleEndian.Uint32(it.b[1:]))
	it.b = it.b[1+u32:]
	if len(it.b) < n {
		return 0, nil, fmt.Errorf("serial: truncated array element payload")
	}
	eb := it.b[:n]
	it.b = it.b[n:]
	it.i++
	return tag, eb, nil
}
