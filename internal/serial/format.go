package serial

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/sinewdata/sinew/internal/jsonx"
)

// header gives parsed access to a record's structure without copying.
type header struct {
	n       int
	aids    []byte // n*4 bytes
	offs    []byte // n*4 bytes
	body    []byte
	bodyLen uint32
}

func parseHeader(data []byte) (header, error) {
	if len(data) < u32 {
		return header{}, fmt.Errorf("serial: record too short (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data))
	need := u32 * (2 + 2*n)
	if len(data) < need {
		return header{}, fmt.Errorf("serial: truncated header (n=%d, %d bytes)", n, len(data))
	}
	h := header{
		n:    n,
		aids: data[u32 : u32+u32*n],
		offs: data[u32+u32*n : u32+2*u32*n],
	}
	h.bodyLen = binary.LittleEndian.Uint32(data[u32+2*u32*n:])
	bodyStart := need
	if len(data) < bodyStart+int(h.bodyLen) {
		return header{}, fmt.Errorf("serial: truncated body (want %d bytes)", h.bodyLen)
	}
	h.body = data[bodyStart : bodyStart+int(h.bodyLen)]
	return h, nil
}

func (h header) aid(i int) uint32 {
	return binary.LittleEndian.Uint32(h.aids[i*u32:])
}

func (h header) off(i int) uint32 {
	return binary.LittleEndian.Uint32(h.offs[i*u32:])
}

// valueBytes returns the body slice of attribute index i. Offsets come
// from the (untrusted) record bytes, so they are validated here: corrupt
// or unsorted offsets surface as errors, never slice panics.
func (h header) valueBytes(i int) ([]byte, error) {
	start := h.off(i)
	end := h.bodyLen
	if i+1 < h.n {
		end = h.off(i + 1)
	}
	if start > end || end > h.bodyLen {
		return nil, fmt.Errorf("serial: corrupt value offsets (attr %d: %d..%d of body %d)", i, start, end, h.bodyLen)
	}
	return h.body[start:end], nil
}

// find binary-searches the sorted attribute ID list.
func (h header) find(id uint32) (int, bool) {
	lo, hi := 0, h.n
	for lo < hi {
		mid := (lo + hi) / 2
		v := h.aid(mid)
		switch {
		case v < id:
			lo = mid + 1
		case v > id:
			hi = mid
		default:
			return mid, true
		}
	}
	return 0, false
}

// Has reports whether the record contains attribute id — the cheap
// existence check (the paper notes existence checks are much cheaper than
// extraction).
func Has(data []byte, id uint32) (bool, error) {
	h, err := parseHeader(data)
	if err != nil {
		return false, err
	}
	_, ok := h.find(id)
	return ok, nil
}

// ExtractByID returns the value of attribute id; ok=false when absent.
func ExtractByID(data []byte, id uint32, dict Dict) (jsonx.Value, bool, error) {
	h, err := parseHeader(data)
	if err != nil {
		return jsonx.Value{}, false, err
	}
	i, ok := h.find(id)
	if !ok {
		return jsonx.Value{}, false, nil
	}
	attr, ok := dict.Lookup(id)
	if !ok {
		return jsonx.Value{}, false, fmt.Errorf("serial: attribute %d not in dictionary", id)
	}
	vb, err := h.valueBytes(i)
	if err != nil {
		return jsonx.Value{}, false, err
	}
	v, err := decodeValue(vb, attr.Type, dict)
	if err != nil {
		return jsonx.Value{}, false, err
	}
	return v, true, nil
}

// ExtractByIDLinear is ExtractByID with a linear header scan instead of
// binary search — the ablation baseline isolating the sorted-ID design of
// §4.1 (kept out of production paths).
func ExtractByIDLinear(data []byte, id uint32, dict Dict) (jsonx.Value, bool, error) {
	h, err := parseHeader(data)
	if err != nil {
		return jsonx.Value{}, false, err
	}
	for i := 0; i < h.n; i++ {
		if h.aid(i) != id {
			continue
		}
		attr, ok := dict.Lookup(id)
		if !ok {
			return jsonx.Value{}, false, fmt.Errorf("serial: attribute %d not in dictionary", id)
		}
		vb, err := h.valueBytes(i)
		if err != nil {
			return jsonx.Value{}, false, err
		}
		v, err := decodeValue(vb, attr.Type, dict)
		if err != nil {
			return jsonx.Value{}, false, err
		}
		return v, true, nil
	}
	return jsonx.Value{}, false, nil
}

// decodeValue decodes a body slice of a known attribute type.
func decodeValue(b []byte, t AttrType, dict Dict) (jsonx.Value, error) {
	switch t {
	case TypeBool:
		if len(b) != 1 {
			return jsonx.Value{}, fmt.Errorf("serial: bad bool length %d", len(b))
		}
		return jsonx.BoolValue(b[0] != 0), nil
	case TypeInt:
		if len(b) != 8 {
			return jsonx.Value{}, fmt.Errorf("serial: bad int length %d", len(b))
		}
		return jsonx.IntValue(int64(binary.LittleEndian.Uint64(b))), nil
	case TypeFloat:
		if len(b) != 8 {
			return jsonx.Value{}, fmt.Errorf("serial: bad float length %d", len(b))
		}
		return jsonx.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(b))), nil
	case TypeString:
		return jsonx.StringValue(string(b)), nil
	case TypeObject:
		doc, err := Deserialize(b, dict)
		if err != nil {
			return jsonx.Value{}, err
		}
		return jsonx.ObjectValue(doc), nil
	case TypeArray:
		return decodeArray(b, dict)
	default:
		return jsonx.Value{}, fmt.Errorf("serial: unknown attribute type %d", t)
	}
}

func decodeArray(b []byte, dict Dict) (jsonx.Value, error) {
	it, err := newArrayIter(b)
	if err != nil {
		return jsonx.Value{}, err
	}
	elems := make([]jsonx.Value, it.n)
	for i := range elems {
		tag, eb, err := it.next()
		if err != nil {
			return jsonx.Value{}, err
		}
		if tag == nullTag {
			elems[i] = jsonx.NullValue()
		} else if elems[i], err = decodeValue(eb, AttrType(tag), dict); err != nil {
			return jsonx.Value{}, err
		}
	}
	return jsonx.ArrayValue(elems...), nil
}

// Deserialize reconstructs the full document (attribute-ID order; original
// member order is not preserved, matching the paper's benchmark which only
// requires reassembling the logical content).
func Deserialize(data []byte, dict Dict) (*jsonx.Doc, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	doc := jsonx.NewDoc()
	for i := 0; i < h.n; i++ {
		attr, ok := dict.Lookup(h.aid(i))
		if !ok {
			return nil, fmt.Errorf("serial: attribute %d not in dictionary", h.aid(i))
		}
		vb, err := h.valueBytes(i)
		if err != nil {
			return nil, err
		}
		v, err := decodeValue(vb, attr.Type, dict)
		if err != nil {
			return nil, err
		}
		doc.Set(attr.Key, v)
	}
	return doc, nil
}

// AttrIDs lists the attribute IDs present in the record (catalog and
// materializer use it to avoid full decodes).
func AttrIDs(data []byte) ([]uint32, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, h.n)
	for i := range out {
		out[i] = h.aid(i)
	}
	return out, nil
}

// DeleteAttrs returns rec without the top-level attributes ids (the
// materializer moving values out of the reservoir, UPDATE clearing a key).
// It splices the header and the body and decodes no value. A record that
// holds none of ids comes back as rec itself, so a shorter result means
// something was deleted.
func DeleteAttrs(rec []byte, ids ...uint32) ([]byte, error) {
	return splice(rec, ids, 0, nil)
}

// Insert returns a copy of the record with attribute id set to v (the
// materializer moves a top-level value back into the reservoir on
// dematerialization). The key's value of any other type is replaced with
// it, as setting the key in the document would; a null v only deletes.
// The record is spliced, not decoded: v alone is encoded.
func Insert(data []byte, id uint32, v jsonx.Value, dict Dict) ([]byte, error) {
	attr, ok := dict.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("serial: attribute %d not in dictionary", id)
	}
	if len(data) == 0 {
		data = make([]byte, 2*u32) // the empty record
	}
	var drop []uint32
	for _, other := range dict.IDsOf([]byte(attr.Key)) {
		if other != 0 {
			drop = append(drop, other-1)
		}
	}
	if v.Kind == jsonx.Null {
		return splice(data, drop, 0, nil)
	}
	e := encoders.Get().(*Encoder)
	e.b.dict = dict
	defer func() {
		e.b.dict = nil
		encoders.Put(e)
	}()
	val, err := e.EncodeValue(v)
	if err != nil {
		return nil, err
	}
	if val == nil {
		val = []byte{}
	}
	return splice(data, drop, id, val)
}

// splice returns rec without the attributes drop and, when val is not nil,
// with attribute id — which drop must name if rec may hold it — set to
// val. It writes the result in one pass, header and body side by side;
// rec itself comes back when there is nothing to change.
func splice(rec []byte, drop []uint32, id uint32, val []byte) ([]byte, error) {
	h, err := parseHeader(rec)
	if err != nil {
		return nil, err
	}
	n, body := 0, len(val)
	for i := 0; i < h.n; i++ {
		if slices.Contains(drop, h.aid(i)) {
			continue
		}
		vb, err := h.valueBytes(i)
		if err != nil {
			return nil, err
		}
		n++
		body += len(vb)
	}
	if n == h.n && val == nil {
		return rec, nil
	}
	if val != nil {
		n++
	}
	out := make([]byte, u32*(2+2*n)+body)
	binary.LittleEndian.PutUint32(out, uint32(n))
	aids, offs, at := out[u32:], out[u32*(1+n):], out[u32*(2+2*n):]
	binary.LittleEndian.PutUint32(offs[u32*n:], uint32(body))
	k, off := 0, 0
	put := func(aid uint32, vb []byte) {
		binary.LittleEndian.PutUint32(aids[u32*k:], aid)
		binary.LittleEndian.PutUint32(offs[u32*k:], uint32(off))
		off += copy(at[off:], vb)
		k++
	}
	for i := 0; i < h.n; i++ {
		aid := h.aid(i)
		if slices.Contains(drop, aid) {
			continue
		}
		if val != nil && aid > id {
			put(id, val)
			val = nil
		}
		vb, _ := h.valueBytes(i) // checked above
		put(aid, vb)
	}
	if val != nil {
		put(id, val)
	}
	return out, nil
}
