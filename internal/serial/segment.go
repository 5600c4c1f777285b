package serial

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// This file implements the column-striped segment format: an immutable
// encoding of a group of records (one frozen heap page). An attribute that
// is dense on the page — present in more than one record in segSparseDiv —
// is striped into a column section of its own, so a scan that extracts k
// keys touches k vectors instead of parsing every record header. A sparse
// attribute gets no section: the paper's hybrid layout (§3.1.1) leaves it
// virtual, inside its record, and the segment keeps only a sparse index
// naming the records that carry it.
//
// Layout (all integers little-endian):
//
//	[magic "SSEG"][version u32]
//	[record-null bitmap]                  bit set = record is NULL
//	[raw vector: ends u32*n | bytes]      each record minus its sectioned attributes
//	[column sections ...]                 dense attributes, located via the footer
//	[sparse index]                        sparse attributes: (id, row<<3|enc) u32 pairs
//	[footer]                              counts, offsets, directory of the sections
//	[footerOff u32]                       trailing pointer to the footer
//
// Each column section is [presence bitmap | payload]; the payload holds
// only the values of records whose presence bit is set, densely packed:
// int/float 8 bytes each, bool 1 byte, string/raw length-prefixed via a
// cumulative-ends array. The footer's directory entry of a section carries
// its attribute ID, encoding, presence count and, for int and float
// vectors, the min/max planners skip pages by.
//
// The sparse index holds one 8-byte entry per value of a sparse attribute,
// sorted by (attribute, row). The value itself is the copy in the raw
// vector, found by the record's own header lookup — ValueBytes when
// ParseSegment checks it, heldValueBytes on every read after; its range
// is computed from those at most n/segSparseDiv values when asked for.
// Column serves both forms through one SegColumn API.
//
// Every value is held once. A record's entry in the raw vector is itself a
// record (Figure 5) holding only the attributes that have no section: its
// sorted-ID header is shorter by the sectioned ones, and its body by their
// values. AppendRecord splices the section values back in, one merge by
// ascending attribute ID, and gives back the record's original bytes, so
// freezing stays lossless: un-freezing is a byte-identical reconstruction,
// and extraction paths that need full-record descent (dotted paths through
// nested objects, extract_any probes) read a record spliced from the
// attributes they look up. A record none of whose attributes is sectioned
// is its raw entry, uncopied. The
// encoder takes only records in the layout the record writer produces
// (offsets from 0, values back to back, nothing after the body), the one
// form a splice can rebuild byte for byte.

// SegEncoding tags how one attribute's value vector is encoded.
type SegEncoding uint8

// Segment column encodings. String/int/float/bool attributes get typed
// vectors; object and array attributes fall back to raw value bytes
// (decoded on demand with the dictionary, exactly like the row format).
const (
	SegString SegEncoding = iota
	SegInt
	SegFloat
	SegBool
	SegRaw
)

// String names the encoding (diagnostics and lint corpus).
func (e SegEncoding) String() string {
	switch e {
	case SegString:
		return "string"
	case SegInt:
		return "int"
	case SegFloat:
		return "float"
	case SegBool:
		return "bool"
	case SegRaw:
		return "raw"
	default:
		return fmt.Sprintf("SegEncoding(%d)", uint8(e))
	}
}

const (
	segMagic   = uint32('S') | uint32('S')<<8 | uint32('E')<<16 | uint32('G')<<24
	segVersion = 3
	// segFooterHead is the footer's fixed part: record count, section
	// count, null bitmap offset, raw vector offset and length, sparse index
	// offset and entry count (u32 each).
	segFooterHead = 7 * u32
	// segColDirBytes is the footer directory entry size: id, enc, off,
	// len, count, flags (u32 each) plus min and max (u64 each).
	segColDirBytes = 6*u32 + 16

	segFlagHasRange = 1

	// segSparseDiv is the sparseness cut: an attribute present in count of
	// a segment's n records gets a column section when count*segSparseDiv
	// > n, and sparse index entries otherwise.
	segSparseDiv = 16
	// segEntryBytes is a sparse index entry: the attribute ID, then the row
	// shifted past the encoding's segEncBits.
	segEntryBytes = 2 * u32
	segEncBits    = 3
	segEncMask    = 1<<segEncBits - 1
	// maxSegRecords is the most records a segment holds: every row fits in
	// an entry beside its encoding.
	maxSegRecords = 1<<(32-segEncBits) - 1
)

// encodingOf maps an attribute type to its vector encoding.
func encodingOf(t AttrType) SegEncoding {
	switch t {
	case TypeString:
		return SegString
	case TypeInt:
		return SegInt
	case TypeFloat:
		return SegFloat
	case TypeBool:
		return SegBool
	case TypeObject, TypeArray:
		return SegRaw
	default:
		return SegRaw
	}
}

// segRange is the min/max of an int or float vector, noted value by value
// in row order: the encoder's for a column section, a sparse column's when
// its range is asked for. NaN poisons a float range.
type segRange struct {
	ok, bad          bool
	minBits, maxBits uint64
}

func (r *segRange) noteInt(v int64) {
	if !r.ok {
		r.ok = true
		r.minBits, r.maxBits = uint64(v), uint64(v)
		return
	}
	if v < int64(r.minBits) {
		r.minBits = uint64(v)
	}
	if v > int64(r.maxBits) {
		r.maxBits = uint64(v)
	}
}

func (r *segRange) noteFloat(v float64) {
	if math.IsNaN(v) {
		r.bad = true
		return
	}
	if !r.ok {
		r.ok = true
		r.minBits, r.maxBits = math.Float64bits(v), math.Float64bits(v)
		return
	}
	if v < math.Float64frombits(r.minBits) {
		r.minBits = math.Float64bits(v)
	}
	if v > math.Float64frombits(r.maxBits) {
		r.maxBits = math.Float64bits(v)
	}
}

// valid reports whether the range may be trusted: some value was noted
// and none was NaN.
func (r *segRange) valid() bool { return r.ok && !r.bad }

// segColBuilder is what EncodeSegment knows about one attribute of the
// records it stripes: after the first pass its value count and bytes,
// during the second where the next value (or sparse index entry) goes.
type segColBuilder struct {
	id      uint32
	enc     SegEncoding
	count   int    // records carrying the attribute
	varLen  int    // string/raw: total value bytes
	sparse  bool   // no section: count*segSparseDiv <= n
	off     int    // the section's offset in the segment
	fixed   int    // second pass: offset of the next int/float/bool value, or of the next sparse index entry
	end     int    // second pass: offset of the next string/raw end
	varb    int    // second pass: offset of the next string/raw bytes
	varDone uint32 // second pass: string/raw bytes written so far

	segRange
}

// valueLen is the bytes of the attribute's values.
func (cb *segColBuilder) valueLen() int {
	switch cb.enc {
	case SegInt, SegFloat:
		return cb.count * 8
	case SegBool:
		return cb.count
	default:
		return cb.varLen
	}
}

// sectionLen is the size of the attribute's column section over records of
// nwords presence words: bitmap, string/raw ends, then the values.
func (cb *segColBuilder) sectionLen(nwords int) int {
	if cb.enc == SegString || cb.enc == SegRaw {
		return nwords*8 + cb.count*u32 + cb.varLen
	}
	return nwords*8 + cb.valueLen()
}

// segEncoder is EncodeSegment's scratch. A freeze encodes page after page
// of the same few hundred attributes, so the builders, the ID index and
// the per-value builder references are kept from one page to the next;
// the segment itself is the only allocation of an encode.
type segEncoder struct {
	cols  []segColBuilder
	byID  map[uint32]int32 // attribute ID -> index in cols
	order []int32          // cols in ascending ID order
	refs  []int32          // first pass: the builder of every value, in record order
}

var segEncoders = sync.Pool{New: func() any { return &segEncoder{byID: make(map[uint32]int32)} }}

// EncodeSegment stripes a group of serialized records into a segment. A
// nil entry is a NULL record (absent row cell). Every non-nil entry must
// be a well-formed record in the record writer's layout, its attribute IDs
// ascending, whose attributes resolve in dict, and whose bool values are
// 0 or 1 (a section is the value's only copy, so nothing may be lost on
// the way in); any parse, layout or dictionary failure aborts the encode —
// the caller keeps the rows as-is.
//
// It reads the records twice: once to size every attribute's section or
// sparse index run, once to write each value where it belongs.
func EncodeSegment(records [][]byte, dict Dict) ([]byte, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("serial: cannot encode empty segment")
	}
	if len(records) > maxSegRecords {
		return nil, fmt.Errorf("serial: segment of %d records exceeds %d", len(records), maxSegRecords)
	}
	e := segEncoders.Get().(*segEncoder)
	defer segEncoders.Put(e)
	return e.encode(records, dict)
}

func (e *segEncoder) encode(records [][]byte, dict Dict) ([]byte, error) {
	n := len(records)
	nwords := (n + 63) / 64
	e.cols, e.order, e.refs = e.cols[:0], e.order[:0], e.refs[:0]
	clear(e.byID)

	// First pass: which attributes there are, how many values and value
	// bytes each has, and the value ranges.
	inLen := 0
	for i, rec := range records {
		if rec == nil {
			continue
		}
		inLen += len(rec)
		var h header
		if err := parseHeader(rec, &h); err != nil {
			return nil, fmt.Errorf("serial: segment record %d: %w", i, err)
		}
		// The splice rebuilds the writer's layout, so only that layout
		// round-trips.
		if len(rec) != u32*(2+2*h.n)+int(h.bodyLen) || h.n > 0 && h.off(0) != 0 {
			return nil, fmt.Errorf("serial: segment record %d: not in the record layout", i)
		}
		for a := 0; a < h.n; a++ {
			id := h.aid(a)
			// A sparse value is found again by the header's binary search.
			if a > 0 && id <= h.aid(a-1) {
				return nil, fmt.Errorf("serial: segment record %d: attribute IDs not ascending at %d", i, id)
			}
			ci, ok := e.byID[id]
			if !ok {
				attr, ok := dict.Lookup(id)
				if !ok {
					return nil, fmt.Errorf("serial: segment record %d: attribute %d not in dictionary", i, id)
				}
				ci = int32(len(e.cols))
				e.cols = append(e.cols, segColBuilder{id: id, enc: encodingOf(attr.Type)})
				e.byID[id] = ci
			}
			vb, err := h.valueBytes(a)
			if err != nil {
				return nil, fmt.Errorf("serial: segment record %d: %w", i, err)
			}
			cb := &e.cols[ci]
			cb.count++
			switch cb.enc {
			case SegInt:
				if len(vb) != 8 {
					return nil, fmt.Errorf("serial: segment record %d attr %d: bad int length %d", i, id, len(vb))
				}
				cb.noteInt(int64(binary.LittleEndian.Uint64(vb)))
			case SegFloat:
				if len(vb) != 8 {
					return nil, fmt.Errorf("serial: segment record %d attr %d: bad float length %d", i, id, len(vb))
				}
				cb.noteFloat(math.Float64frombits(binary.LittleEndian.Uint64(vb)))
			case SegBool:
				if len(vb) != 1 || vb[0] > 1 {
					return nil, fmt.Errorf("serial: segment record %d attr %d: bad bool value % x", i, id, vb)
				}
			case SegString, SegRaw:
				cb.varLen += len(vb)
			default:
				return nil, fmt.Errorf("serial: segment attr %d: unknown encoding %d", id, cb.enc)
			}
			e.refs = append(e.refs, ci)
		}
	}

	// Lay the segment out: header, record-null bitmap, raw vector, the
	// dense attributes' sections and then the sparse index, both in
	// ascending attribute ID, footer, trailing footer offset. A sectioned
	// value leaves the raw vector with its header entry (ID and offset).
	for ci := range e.cols {
		e.order = append(e.order, int32(ci))
	}
	slices.SortFunc(e.order, func(a, b int32) int { return cmp.Compare(e.cols[a].id, e.cols[b].id) })
	nullOff := 2 * u32
	rawOff := nullOff + nwords*8
	rawLen := inLen
	sections := 0
	for _, ci := range e.order {
		cb := &e.cols[ci]
		if cb.sparse = cb.count*segSparseDiv <= n; !cb.sparse {
			rawLen -= cb.count*2*u32 + cb.valueLen()
		}
	}
	rawSecLen := n*u32 + rawLen
	at := rawOff + rawSecLen
	for _, ci := range e.order {
		cb := &e.cols[ci]
		if cb.sparse {
			continue
		}
		sections++
		cb.off = at
		cb.fixed = at + nwords*8
		cb.end = cb.fixed
		cb.varb = cb.end + cb.count*u32
		at += cb.sectionLen(nwords)
	}
	sparseOff := at
	for _, ci := range e.order {
		if cb := &e.cols[ci]; cb.sparse {
			cb.fixed = at
			at += cb.count * segEntryBytes
		}
	}
	footerOff := at
	out := make([]byte, footerOff+segFooterHead+sections*segColDirBytes+u32)
	binary.LittleEndian.PutUint32(out, segMagic)
	binary.LittleEndian.PutUint32(out[u32:], segVersion)

	// Second pass: every record's unsectioned attributes into its raw
	// entry, every dense value into its attribute's section, every sparse
	// one into an index entry.
	rawAt, ref := rawOff+n*u32, 0
	for i, rec := range records {
		byteAt, bit := (i/64)*8+(i%64)/8, byte(1)<<uint(i%8)
		if rec == nil {
			out[nullOff+byteAt] |= bit
			binary.LittleEndian.PutUint32(out[rawOff+i*u32:], uint32(rawAt-rawOff-n*u32))
			continue
		}
		var h header
		_ = parseHeader(rec, &h) // parsed in the first pass
		kept := 0
		for a := 0; a < h.n; a++ {
			if e.cols[e.refs[ref+a]].sparse {
				kept++
			}
		}
		aidAt := rawAt + u32
		offAt := aidAt + kept*u32
		bodyAt := offAt + kept*u32 + u32
		body := 0
		for a := 0; a < h.n; a++ {
			cb := &e.cols[e.refs[ref]]
			ref++
			vb, _ := h.valueBytes(a)
			if cb.sparse {
				binary.LittleEndian.PutUint32(out[aidAt:], cb.id)
				binary.LittleEndian.PutUint32(out[offAt:], uint32(body))
				aidAt, offAt = aidAt+u32, offAt+u32
				body += copy(out[bodyAt+body:], vb)
				binary.LittleEndian.PutUint32(out[cb.fixed:], cb.id)
				binary.LittleEndian.PutUint32(out[cb.fixed+u32:], uint32(i)<<segEncBits|uint32(cb.enc))
				cb.fixed += segEntryBytes
				continue
			}
			out[cb.off+byteAt] |= bit
			switch cb.enc {
			case SegInt, SegFloat, SegBool:
				cb.fixed += copy(out[cb.fixed:], vb)
			default:
				cb.varb += copy(out[cb.varb:], vb)
				cb.varDone += uint32(len(vb))
				binary.LittleEndian.PutUint32(out[cb.end:], cb.varDone)
				cb.end += u32
			}
		}
		binary.LittleEndian.PutUint32(out[rawAt:], uint32(kept))
		binary.LittleEndian.PutUint32(out[offAt:], uint32(body))
		rawAt = bodyAt + body
		binary.LittleEndian.PutUint32(out[rawOff+i*u32:], uint32(rawAt-rawOff-n*u32))
	}

	f := out[footerOff:footerOff]
	f = binary.LittleEndian.AppendUint32(f, uint32(n))
	f = binary.LittleEndian.AppendUint32(f, uint32(sections))
	f = binary.LittleEndian.AppendUint32(f, uint32(nullOff))
	f = binary.LittleEndian.AppendUint32(f, uint32(rawOff))
	f = binary.LittleEndian.AppendUint32(f, uint32(rawSecLen))
	f = binary.LittleEndian.AppendUint32(f, uint32(sparseOff))
	f = binary.LittleEndian.AppendUint32(f, uint32((footerOff-sparseOff)/segEntryBytes))
	for _, ci := range e.order {
		cb := &e.cols[ci]
		if cb.sparse {
			continue
		}
		f = binary.LittleEndian.AppendUint32(f, cb.id)
		f = binary.LittleEndian.AppendUint32(f, uint32(cb.enc))
		f = binary.LittleEndian.AppendUint32(f, uint32(cb.off))
		f = binary.LittleEndian.AppendUint32(f, uint32(cb.sectionLen(nwords)))
		f = binary.LittleEndian.AppendUint32(f, uint32(cb.count))
		var flags uint32
		if cb.valid() {
			flags |= segFlagHasRange
		}
		f = binary.LittleEndian.AppendUint32(f, flags)
		f = binary.LittleEndian.AppendUint64(f, cb.minBits)
		f = binary.LittleEndian.AppendUint64(f, cb.maxBits)
	}
	binary.LittleEndian.AppendUint32(f, uint32(footerOff))
	return out, nil
}

// SegColumn is one attribute of a segment, read in place, in either of its
// forms. A dense attribute's views alias its column section and its
// scalars are copied out of the footer's directory entry; a sparse one
// holds its run of the sparse index and reads each value from its record
// in the raw vector. Segment.Column builds one on demand; holding it costs
// nothing beyond the value itself.
type SegColumn struct {
	id    uint32
	enc   SegEncoding
	count int

	// Dense form.
	words []byte // presence bitmap, little-endian u64 words; bit set = value present
	fixed []byte // int/float/bool payload
	ends  []byte // string/raw cumulative ends
	varb  []byte // string/raw bytes

	rng segRange // the directory entry's range flag and extrema

	// Sparse form: the index entries of the attribute, rows ascending, and
	// the segment whose raw vector holds the values (nil for a dense column).
	entries []byte
	seg     *Segment
}

// ID returns the attribute ID of the column.
func (c *SegColumn) ID() uint32 { return c.id }

// Encoding returns the vector encoding of the column.
func (c *SegColumn) Encoding() SegEncoding { return c.enc }

// NumPresent returns how many records carry the attribute.
func (c *SegColumn) NumPresent() int { return c.count }

// MarkPresent sets bit i of dst, a bitmap of 64-bit words covering the
// segment's records, for every record i that carries the attribute.
func (c *SegColumn) MarkPresent(dst []uint64) {
	if c.seg != nil {
		for k := 0; k < c.count; k++ {
			i := c.entryRow(k)
			dst[i/64] |= 1 << uint(i%64)
		}
		return
	}
	for w := range len(c.words) / 8 {
		dst[w] |= binary.LittleEndian.Uint64(c.words[w*8:])
	}
}

// IntRange returns the min/max of an int column.
func (c *SegColumn) IntRange() (lo, hi int64, ok bool) {
	if c.enc != SegInt {
		return 0, 0, false
	}
	r := c.valueRange()
	if !r.valid() {
		return 0, 0, false
	}
	return int64(r.minBits), int64(r.maxBits), true
}

// FloatRange returns the min/max of a float column; a column holding NaN
// has none.
func (c *SegColumn) FloatRange() (lo, hi float64, ok bool) {
	if c.enc != SegFloat {
		return 0, 0, false
	}
	r := c.valueRange()
	if !r.valid() {
		return 0, 0, false
	}
	return math.Float64frombits(r.minBits), math.Float64frombits(r.maxBits), true
}

// valueRange is the range of an int or float column: the directory
// entry's for a dense one, computed from the values of a sparse one.
func (c *SegColumn) valueRange() segRange {
	if c.seg == nil {
		return c.rng
	}
	var r segRange
	c.forEachSparse(func(_ int, b []byte) {
		if c.enc == SegInt {
			r.noteInt(int64(binary.LittleEndian.Uint64(b)))
		} else {
			r.noteFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
	})
	return r
}

// entryRow returns the row of the column's k-th sparse index entry.
func (c *SegColumn) entryRow(k int) int {
	return int(binary.LittleEndian.Uint32(c.entries[k*segEntryBytes+u32:]) >> segEncBits)
}

// forEachSparse walks a sparse column's index entries; fn receives the row
// and the value's bytes in its record.
func (c *SegColumn) forEachSparse(fn func(row int, b []byte)) {
	for k := 0; k < c.count; k++ {
		row := c.entryRow(k)
		rec, _ := c.seg.RawRecord(row)
		fn(row, heldValueBytes(rec, c.id))
	}
}

// forEach walks the presence bitmap; fn receives (row, k) where k is the
// dense payload index of the row's value.
func (c *SegColumn) forEach(fn func(row, k int)) {
	k := 0
	for wi := 0; wi < len(c.words)/8; wi++ {
		w := binary.LittleEndian.Uint64(c.words[wi*8:])
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64+b, k)
			k++
			w &^= 1 << uint(b)
		}
	}
}

// Ints streams the values of an int column as (row, value) pairs.
func (c *SegColumn) Ints(fn func(row int, v int64)) error {
	if c.enc != SegInt {
		return fmt.Errorf("serial: segment attr %d is %s, not int", c.id, c.enc)
	}
	if c.seg != nil {
		c.forEachSparse(func(row int, b []byte) { fn(row, int64(binary.LittleEndian.Uint64(b))) })
		return nil
	}
	c.forEach(func(row, k int) {
		fn(row, int64(binary.LittleEndian.Uint64(c.fixed[k*8:])))
	})
	return nil
}

// Floats streams the values of a float column as (row, value) pairs.
func (c *SegColumn) Floats(fn func(row int, v float64)) error {
	if c.enc != SegFloat {
		return fmt.Errorf("serial: segment attr %d is %s, not float", c.id, c.enc)
	}
	if c.seg != nil {
		c.forEachSparse(func(row int, b []byte) { fn(row, math.Float64frombits(binary.LittleEndian.Uint64(b))) })
		return nil
	}
	c.forEach(func(row, k int) {
		fn(row, math.Float64frombits(binary.LittleEndian.Uint64(c.fixed[k*8:])))
	})
	return nil
}

// Bools streams the values of a bool column as (row, value) pairs.
func (c *SegColumn) Bools(fn func(row int, v bool)) error {
	if c.enc != SegBool {
		return fmt.Errorf("serial: segment attr %d is %s, not bool", c.id, c.enc)
	}
	if c.seg != nil {
		c.forEachSparse(func(row int, b []byte) { fn(row, b[0] != 0) })
		return nil
	}
	c.forEach(func(row, k int) {
		fn(row, c.fixed[k] != 0)
	})
	return nil
}

// Strings streams the values of a string column as (row, bytes) pairs.
// The bytes alias the segment buffer; callers must copy to retain.
func (c *SegColumn) Strings(fn func(row int, b []byte)) error {
	if c.enc != SegString {
		return fmt.Errorf("serial: segment attr %d is %s, not string", c.id, c.enc)
	}
	c.forEachVar(fn)
	return nil
}

// Raws streams the raw value bytes of an object/array column as (row,
// bytes) pairs; decode with DecodeDatum. The bytes alias the segment buffer.
func (c *SegColumn) Raws(fn func(row int, b []byte)) error {
	if c.enc != SegRaw {
		return fmt.Errorf("serial: segment attr %d is %s, not raw", c.id, c.enc)
	}
	c.forEachVar(fn)
	return nil
}

func (c *SegColumn) forEachVar(fn func(row int, b []byte)) {
	if c.seg != nil {
		c.forEachSparse(fn)
		return
	}
	c.forEach(func(row, k int) {
		start := uint32(0)
		if k > 0 {
			start = binary.LittleEndian.Uint32(c.ends[(k-1)*u32:])
		}
		end := binary.LittleEndian.Uint32(c.ends[k*u32:])
		fn(row, c.varb[start:end])
	})
}

// Segment is a parsed column-striped segment. It keeps no per-column
// state: the footer directory and the sparse index are read in place, the
// way a record header is (§4.1), and every view aliases the encoded bytes,
// which must not be mutated while the Segment is in use.
type Segment struct {
	data     []byte
	n        int
	nulls    []byte // record-null bitmap, little-endian u64 words
	rawEnds  []byte // n*4 cumulative ends
	rawBytes []byte
	dir      []byte // footer directory: segColDirBytes per section, ascending attribute ID
	entries  []byte // sparse index: segEntryBytes per value, ascending (attribute, row)
	nsparse  int    // distinct attributes in the sparse index
}

// ParseSegment validates an encoded segment once, whole: every section's
// bounds, presence bitmap, value ends and zone map, every raw entry's
// header, and every sparse index entry's order, row and value, are checked
// here, so the on-demand reads of Column and AppendRecord slice the bytes
// without re-checking. Corrupt input — truncated footers, presence bitmaps
// whose popcount disagrees with the payload, attribute-ID/vector length
// mismatches, raw entries that are no record, carry a sectioned attribute
// or an attribute the sparse index does not name, index entries out of
// order or naming a value their record does not hold — returns an error,
// never panics. Bytes of another format version are rejected.
func ParseSegment(data []byte) (*Segment, error) {
	if len(data) < 3*u32 {
		return nil, fmt.Errorf("serial: segment too short (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data) != segMagic {
		return nil, fmt.Errorf("serial: bad segment magic")
	}
	if v := binary.LittleEndian.Uint32(data[u32:]); v != segVersion {
		return nil, fmt.Errorf("serial: unsupported segment version %d", v)
	}
	footerOff := int(binary.LittleEndian.Uint32(data[len(data)-u32:]))
	trailer := len(data) - u32
	if footerOff < 2*u32 || footerOff+segFooterHead > trailer {
		return nil, fmt.Errorf("serial: segment footer offset %d out of range", footerOff)
	}
	f := data[footerOff:trailer]
	n := int(binary.LittleEndian.Uint32(f))
	ncols := int(binary.LittleEndian.Uint32(f[u32:]))
	nullOff := int(binary.LittleEndian.Uint32(f[2*u32:]))
	rawOff := int(binary.LittleEndian.Uint32(f[3*u32:]))
	rawSecLen := int(binary.LittleEndian.Uint32(f[4*u32:]))
	sparseOff := int(binary.LittleEndian.Uint32(f[5*u32:]))
	nentries := int(binary.LittleEndian.Uint32(f[6*u32:]))
	if n <= 0 || n > maxSegRecords {
		return nil, fmt.Errorf("serial: segment record count %d", n)
	}
	if len(f)-segFooterHead != ncols*segColDirBytes {
		return nil, fmt.Errorf("serial: segment footer length %d does not fit %d columns", len(f), ncols)
	}

	nwords := (n + 63) / 64
	if nullOff < 2*u32 || nwords > (footerOff-nullOff)/8 {
		return nil, fmt.Errorf("serial: segment null bitmap out of range")
	}
	nulls := data[nullOff : nullOff+nwords*8]
	if err := checkTailBits(nulls, n); err != nil {
		return nil, err
	}

	if rawOff < 2*u32 || rawSecLen < n*u32 || rawOff+rawSecLen > footerOff {
		return nil, fmt.Errorf("serial: segment raw vector out of range")
	}
	if sparseOff < 2*u32 || sparseOff > footerOff || nentries > (footerOff-sparseOff)/segEntryBytes {
		return nil, fmt.Errorf("serial: segment sparse index out of range")
	}
	s := &Segment{
		data:     data,
		n:        n,
		nulls:    nulls,
		rawEnds:  data[rawOff : rawOff+n*u32],
		rawBytes: data[rawOff+n*u32 : rawOff+rawSecLen],
		dir:      f[segFooterHead:],
		entries:  data[sparseOff : sparseOff+nentries*segEntryBytes],
	}
	prev := uint32(0)
	for i := 0; i < n; i++ {
		e := binary.LittleEndian.Uint32(s.rawEnds[i*u32:])
		if e < prev || int(e) > len(s.rawBytes) {
			return nil, fmt.Errorf("serial: segment raw vector ends not monotonic at record %d", i)
		}
		if s.RecordNull(i) && e != prev {
			return nil, fmt.Errorf("serial: segment null record %d has raw bytes", i)
		}
		prev = e
	}
	if int(prev) != len(s.rawBytes) {
		return nil, fmt.Errorf("serial: segment raw vector length mismatch (%d of %d bytes)", prev, len(s.rawBytes))
	}
	if err := s.checkSections(nwords, footerOff); err != nil {
		return nil, err
	}
	held, err := s.checkRaw()
	if err != nil {
		return nil, err
	}
	if err := s.checkSparse(); err != nil {
		return nil, err
	}
	// Every entry names a distinct attribute its record holds, so as many
	// entries as raw attributes name them all: Column finds every value a
	// splice puts back.
	if held != s.numEntries() {
		return nil, fmt.Errorf("serial: segment raw records hold %d attributes, the sparse index names %d", held, s.numEntries())
	}
	return s, nil
}

// checkRaw validates every non-NULL record's raw entry as a record in the
// record writer's layout — IDs strictly ascending, offsets from 0, values
// back to back, nothing after the body — that holds no sectioned
// attribute, so a splice emits every ID once and in order. It returns how
// many attributes the entries hold.
func (s *Segment) checkRaw() (int, error) {
	held := 0
	var h header
	for i := 0; i < s.n; i++ {
		rec, ok := s.RawRecord(i)
		if !ok {
			continue
		}
		if err := parseHeader(rec, &h); err != nil {
			return 0, fmt.Errorf("serial: segment record %d: %w", i, err)
		}
		if len(rec) != u32*(2+2*h.n)+int(h.bodyLen) || h.n > 0 && h.off(0) != 0 {
			return 0, fmt.Errorf("serial: segment record %d: not in the record layout", i)
		}
		di := 0
		for a := 0; a < h.n; a++ {
			id := h.aid(a)
			if a > 0 && id <= h.aid(a-1) {
				return 0, fmt.Errorf("serial: segment record %d: attribute IDs not ascending at %d", i, id)
			}
			if _, err := h.valueBytes(a); err != nil {
				return 0, fmt.Errorf("serial: segment record %d: %w", i, err)
			}
			for di < s.numSections() && s.attrID(di) < id {
				di++
			}
			if di < s.numSections() && s.attrID(di) == id {
				return 0, fmt.Errorf("serial: segment record %d carries sectioned attribute %d", i, id)
			}
		}
		held += h.n
	}
	return held, nil
}

// checkSections validates every column section through its directory
// entry.
func (s *Segment) checkSections(nwords, footerOff int) error {
	n := s.n
	prevID := int64(-1)
	for ci := 0; ci < s.numSections(); ci++ {
		// The directory entry's bounds first: sectionAt slices by them.
		d := s.dir[ci*segColDirBytes:]
		id := binary.LittleEndian.Uint32(d)
		enc := SegEncoding(binary.LittleEndian.Uint32(d[u32:]))
		off := int(binary.LittleEndian.Uint32(d[2*u32:]))
		length := int(binary.LittleEndian.Uint32(d[3*u32:]))
		count := int(binary.LittleEndian.Uint32(d[4*u32:]))
		if int64(id) <= prevID {
			return fmt.Errorf("serial: segment attribute IDs not ascending at %d", id)
		}
		prevID = int64(id)
		if off < 2*u32 || length < nwords*8 || off+length > footerOff {
			return fmt.Errorf("serial: segment attr %d section out of range", id)
		}
		if count > n {
			return fmt.Errorf("serial: segment attr %d count %d exceeds %d records", id, count, n)
		}
		if count*segSparseDiv <= n {
			return fmt.Errorf("serial: segment attr %d has a section for %d of %d records", id, count, n)
		}
		payloadLen := length - nwords*8
		switch enc {
		case SegInt, SegFloat:
			if payloadLen != count*8 {
				return fmt.Errorf("serial: segment attr %d payload %d bytes for %d values", id, payloadLen, count)
			}
		case SegBool:
			if payloadLen != count {
				return fmt.Errorf("serial: segment attr %d payload %d bytes for %d bools", id, payloadLen, count)
			}
		case SegString, SegRaw:
			if payloadLen < count*u32 {
				return fmt.Errorf("serial: segment attr %d truncated ends array", id)
			}
		default:
			return fmt.Errorf("serial: segment attr %d unknown encoding %d", id, uint8(enc))
		}

		// Then the section's contents, through the column view.
		col := s.sectionAt(ci)
		pop := 0
		for i := 0; i < nwords; i++ {
			w := binary.LittleEndian.Uint64(col.words[i*8:])
			pop += bits.OnesCount64(w)
			if w&binary.LittleEndian.Uint64(s.nulls[i*8:]) != 0 {
				return fmt.Errorf("serial: segment attr %d present on a null record", id)
			}
		}
		if pop != count {
			return fmt.Errorf("serial: segment attr %d presence bitmap has %d bits, footer says %d", id, pop, count)
		}
		if err := checkTailBits(col.words, n); err != nil {
			return err
		}
		if enc == SegString || enc == SegRaw {
			prevEnd := uint32(0)
			for k := 0; k < count; k++ {
				e := binary.LittleEndian.Uint32(col.ends[k*u32:])
				if e < prevEnd || int(e) > len(col.varb) {
					return fmt.Errorf("serial: segment attr %d ends not monotonic at value %d", id, k)
				}
				prevEnd = e
			}
			if count > 0 && int(prevEnd) != len(col.varb) {
				return fmt.Errorf("serial: segment attr %d value bytes length mismatch", id)
			}
		}
		// A splice copies a bool byte back into its record as it is.
		if enc == SegBool {
			for _, v := range col.fixed {
				if v > 1 {
					return fmt.Errorf("serial: segment attr %d bool byte %d", id, v)
				}
			}
		}
		// Zone-map sanity: the range flag is only meaningful on numeric
		// vectors with at least one value, and min must not exceed max. Page
		// skipping trusts these extrema to prove rows absent, so a corrupt
		// footer here would silently drop rows instead of erroring later.
		if r := col.rng; r.ok {
			switch enc {
			case SegInt:
				if int64(r.minBits) > int64(r.maxBits) {
					return fmt.Errorf("serial: segment attr %d int range min exceeds max", id)
				}
			case SegFloat:
				lo, hi := math.Float64frombits(r.minBits), math.Float64frombits(r.maxBits)
				if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
					return fmt.Errorf("serial: segment attr %d float range invalid", id)
				}
			default:
				return fmt.Errorf("serial: segment attr %d range flag on %s encoding", id, enc)
			}
		}
	}
	return nil
}

// checkSparse validates every sparse index entry: (attribute, row) strictly
// ascending, one encoding per attribute, no attribute both sparse and
// sectioned nor in more than n/segSparseDiv records, every row a non-NULL
// record that holds the attribute, and fixed-width values of their width.
// It counts the sparse attributes. checkRaw has parsed every record's
// header, so each entry's value is found through it in place.
func (s *Segment) checkSparse() error {
	ne := s.numEntries()
	di, run := 0, 0
	for k := 0; k < ne; k++ {
		id, row, enc := s.entry(k)
		if k > 0 {
			pid, prow, penc := s.entry(k - 1)
			switch {
			case id < pid || id == pid && row <= prow:
				return fmt.Errorf("serial: segment sparse index not ascending at entry %d", k)
			case id == pid && enc != penc:
				return fmt.Errorf("serial: segment sparse attr %d has two encodings", id)
			}
		}
		if k == 0 || id != s.entryID(k-1) {
			if (k-run)*segSparseDiv > s.n {
				return fmt.Errorf("serial: segment sparse attr %d in %d of %d records", s.entryID(run), k-run, s.n)
			}
			run = k
			s.nsparse++
			for di < s.numSections() && s.attrID(di) < id {
				di++
			}
			if di < s.numSections() && s.attrID(di) == id {
				return fmt.Errorf("serial: segment attr %d both sparse and sectioned", id)
			}
		}
		if row >= s.n {
			return fmt.Errorf("serial: segment sparse attr %d row %d past %d records", id, row, s.n)
		}
		rec, ok := s.RawRecord(row)
		if !ok {
			return fmt.Errorf("serial: segment sparse attr %d on null record %d", id, row)
		}
		b, ok, err := parsedValueBytes(rec, id)
		if err != nil {
			return fmt.Errorf("serial: segment sparse attr %d: value outside record %d: %w", id, row, err)
		}
		if !ok {
			return fmt.Errorf("serial: segment sparse attr %d not in record %d", id, row)
		}
		switch enc {
		case SegInt, SegFloat:
			if len(b) != 8 {
				return fmt.Errorf("serial: segment sparse attr %d record %d: %s value of %d bytes", id, row, enc, len(b))
			}
		case SegBool:
			if len(b) != 1 || b[0] > 1 {
				return fmt.Errorf("serial: segment sparse attr %d record %d: bool value % x", id, row, b)
			}
		case SegString, SegRaw:
		default:
			return fmt.Errorf("serial: segment sparse attr %d unknown encoding %d", id, uint8(enc))
		}
	}
	if (ne-run)*segSparseDiv > s.n {
		return fmt.Errorf("serial: segment sparse attr %d in %d of %d records", s.entryID(run), ne-run, s.n)
	}
	return nil
}

// checkTailBits rejects bitmap bits at positions >= n (a corrupt bitmap
// could otherwise address rows past the segment). words is a bitmap of
// little-endian u64 words covering n.
func checkTailBits(words []byte, n int) error {
	if rem := n % 64; rem != 0 {
		if binary.LittleEndian.Uint64(words[len(words)-8:])&^(1<<uint(rem)-1) != 0 {
			return fmt.Errorf("serial: segment bitmap has bits past record %d", n)
		}
	}
	return nil
}

// NumRecords returns the number of records in the segment.
func (s *Segment) NumRecords() int { return s.n }

// SizeBytes returns the size of the encoded segment.
func (s *Segment) SizeBytes() int { return len(s.data) }

// RecordNull reports whether record i is NULL.
func (s *Segment) RecordNull(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return binary.LittleEndian.Uint64(s.nulls[i/64*8:])&(1<<uint(i%64)) != 0
}

// RawRecord returns record i's entry in the raw vector — the record
// without its sectioned attributes — aliasing the segment buffer; ok=false
// for NULL records. It is the whole record when Spliced says nothing is.
func (s *Segment) RawRecord(i int) ([]byte, bool) {
	if i < 0 || i >= s.n || s.RecordNull(i) {
		return nil, false
	}
	start := uint32(0)
	if i > 0 {
		start = binary.LittleEndian.Uint32(s.rawEnds[(i-1)*u32:])
	}
	end := binary.LittleEndian.Uint32(s.rawEnds[i*u32:])
	return s.rawBytes[start:end], true
}

// present reports whether record i carries directory entry ci's
// attribute.
func (s *Segment) present(ci, i int) bool {
	off := binary.LittleEndian.Uint32(s.dir[ci*segColDirBytes+2*u32:])
	return s.data[int(off)+i/64*8+i%64/8]&(1<<uint(i%8)) != 0
}

// sectionValue returns the value of record i in directory entry ci's
// section; ok=false when the record lacks the attribute. The value's index
// in the payload is the count of present records before i.
func (s *Segment) sectionValue(ci, i int) ([]byte, bool) {
	d := s.dir[ci*segColDirBytes:]
	sec := s.data[binary.LittleEndian.Uint32(d[2*u32:]):]
	w := binary.LittleEndian.Uint64(sec[i/64*8:])
	bit := uint64(1) << uint(i%64)
	if w&bit == 0 {
		return nil, false
	}
	k := bits.OnesCount64(w & (bit - 1))
	for j := 0; j < i/64; j++ {
		k += bits.OnesCount64(binary.LittleEndian.Uint64(sec[j*8:]))
	}
	payload := sec[len(s.nulls):]
	switch SegEncoding(binary.LittleEndian.Uint32(d[u32:])) {
	case SegInt, SegFloat:
		return payload[k*8 : k*8+8], true
	case SegBool:
		return payload[k : k+1], true
	default:
		count := int(binary.LittleEndian.Uint32(d[4*u32:]))
		varb := payload[count*u32:]
		start := uint32(0)
		if k > 0 {
			start = binary.LittleEndian.Uint32(payload[(k-1)*u32:])
		}
		return varb[start:binary.LittleEndian.Uint32(payload[k*u32:])], true
	}
}

// Spliced reports whether AppendRecord must splice record i: whether any
// of its attributes (of ids, when not nil) is sectioned. When it is not,
// the raw entry holds all of them.
func (s *Segment) Spliced(i int, ids []uint32) bool {
	if s.RecordNull(i) || i < 0 || i >= s.n {
		return false
	}
	if ids != nil {
		for _, id := range ids {
			if ci, ok := s.section(id); ok && s.present(ci, i) {
				return true
			}
		}
		return false
	}
	for ci := 0; ci < s.numSections(); ci++ {
		if s.present(ci, i) {
			return true
		}
	}
	return false
}

// AppendRecord appends record i's original bytes to dst and returns the
// extended buffer; a NULL record appends nothing. It splices: the raw
// entry's attributes and the record's section values are merged by
// ascending attribute ID into a header and a body in the record writer's
// layout, which is the layout the record was frozen in, so the bytes are
// the ones EncodeSegment was given. The raw entry's values are copied a
// run at a time: in that layout they lie back to back in ID order. ids,
// when not nil, keeps only the attributes it names (ascending): the record
// as a reader that looks up no other top-level attribute sees it, spliced
// from fewer bytes.
func (s *Segment) AppendRecord(dst []byte, i int, ids []uint32) []byte {
	raw, ok := s.RawRecord(i)
	if !ok {
		return dst
	}
	if ids != nil {
		return s.appendNarrowed(dst, raw, i, ids)
	}
	nr := int(binary.LittleEndian.Uint32(raw))
	rawBody := raw[u32*(2+2*nr):]
	// rawAt returns the raw entry's attribute a's ID and value offset; a =
	// nr gives the body's length.
	rawAt := func(a int) (uint32, uint32) {
		off := binary.LittleEndian.Uint32(raw[u32*(1+nr+a):])
		if a == nr {
			return math.MaxUint32, off
		}
		return binary.LittleEndian.Uint32(raw[u32*(1+a):]), off
	}
	// present marks the first 64 sections the record is in, so the second
	// pass looks up no absent one.
	n, body, present := nr, len(rawBody), uint64(0)
	for ci := 0; ci < s.numSections(); ci++ {
		if v, ok := s.sectionValue(ci, i); ok {
			n, body = n+1, body+len(v)
			present |= 1 << uint(ci%64)
		}
	}
	at := len(dst)
	offAt, bodyAt := at+u32*(1+n), at+u32*(2+2*n)
	dst = slices.Grow(dst, bodyAt-at+body)[:bodyAt+body]
	binary.LittleEndian.PutUint32(dst[at:], uint32(n))
	binary.LittleEndian.PutUint32(dst[offAt+u32*n:], uint32(body))
	k, a, off := 0, 0, uint32(0) // attributes written, raw ones read, body bytes written
	// rawRun copies the raw entry's attributes below ID end: IDs, offsets
	// moved by what went before, and their values in one copy.
	rawRun := func(end uint32) {
		b := a
		for b < nr {
			if id, _ := rawAt(b); id >= end {
				break
			}
			b++
		}
		if b == a {
			return
		}
		copy(dst[at+u32*(1+k):], raw[u32*(1+a):u32*(1+b)])
		_, from := rawAt(a)
		_, to := rawAt(b)
		for x := a; x < b; x++ {
			_, o := rawAt(x)
			binary.LittleEndian.PutUint32(dst[offAt+u32*(k+x-a):], o-from+off)
		}
		off += uint32(copy(dst[bodyAt+int(off):], rawBody[from:to]))
		k, a = k+b-a, b
	}
	for ci := 0; ci < s.numSections(); ci++ {
		if ci < 64 && present&(1<<uint(ci)) == 0 {
			continue
		}
		v, ok := s.sectionValue(ci, i)
		if !ok {
			continue
		}
		id := s.attrID(ci)
		rawRun(id)
		binary.LittleEndian.PutUint32(dst[at+u32*(1+k):], id)
		binary.LittleEndian.PutUint32(dst[offAt+u32*k:], off)
		off += uint32(copy(dst[bodyAt+int(off):], v))
		k++
	}
	rawRun(math.MaxUint32)
	return dst
}

// appendNarrowed is AppendRecord of record i, whose raw entry is raw,
// narrowed to the attributes ids names: each looked up by binary search in
// the directory and then in the raw entry's header.
func (s *Segment) appendNarrowed(dst, raw []byte, i int, ids []uint32) []byte {
	find := func(id uint32) ([]byte, bool) {
		if ci, ok := s.section(id); ok {
			return s.sectionValue(ci, i)
		}
		v, ok, _ := parsedValueBytes(raw, id)
		return v, ok
	}
	n, body := 0, 0
	for _, id := range ids {
		if v, ok := find(id); ok {
			n, body = n+1, body+len(v)
		}
	}
	at := len(dst)
	offAt, bodyAt := at+u32*(1+n), at+u32*(2+2*n)
	dst = slices.Grow(dst, bodyAt-at+body)[:bodyAt+body]
	binary.LittleEndian.PutUint32(dst[at:], uint32(n))
	binary.LittleEndian.PutUint32(dst[offAt+u32*n:], uint32(body))
	k, off := 0, 0
	for _, id := range ids {
		if v, ok := find(id); ok {
			binary.LittleEndian.PutUint32(dst[at+u32*(1+k):], id)
			binary.LittleEndian.PutUint32(dst[offAt+u32*k:], uint32(off))
			off += copy(dst[bodyAt+off:], v)
			k++
		}
	}
	return dst
}

// AttrIDs returns the attribute IDs present anywhere in the segment,
// ascending — the page-summary attribute set, sectioned and sparse merged.
func (s *Segment) AttrIDs() []uint32 {
	out := make([]uint32, 0, s.NumAttrs())
	di, k, ne := 0, 0, s.numEntries()
	for di < s.numSections() || k < ne {
		if k < ne && (di == s.numSections() || s.entryID(k) < s.attrID(di)) {
			id := s.entryID(k)
			out = append(out, id)
			for k < ne && s.entryID(k) == id {
				k++
			}
			continue
		}
		out = append(out, s.attrID(di))
		di++
	}
	return out
}

// NumAttrs returns the number of attributes the segment holds, sectioned
// and sparse.
func (s *Segment) NumAttrs() int { return s.numSections() + s.nsparse }

// numSections returns the number of column sections.
func (s *Segment) numSections() int { return len(s.dir) / segColDirBytes }

// attrID returns the attribute ID of directory entry i.
func (s *Segment) attrID(i int) uint32 {
	return binary.LittleEndian.Uint32(s.dir[i*segColDirBytes:])
}

// numEntries returns the number of sparse index entries.
func (s *Segment) numEntries() int { return len(s.entries) / segEntryBytes }

// entryID returns the attribute ID of sparse index entry k.
func (s *Segment) entryID(k int) uint32 {
	return binary.LittleEndian.Uint32(s.entries[k*segEntryBytes:])
}

// entry decodes sparse index entry k.
func (s *Segment) entry(k int) (id uint32, row int, enc SegEncoding) {
	re := binary.LittleEndian.Uint32(s.entries[k*segEntryBytes+u32:])
	return s.entryID(k), int(re >> segEncBits), SegEncoding(re & segEncMask)
}

// section binary-searches the footer directory for attribute id's
// section.
func (s *Segment) section(id uint32) (int, bool) {
	lo, hi := 0, s.numSections()
	for lo < hi {
		mid := (lo + hi) / 2
		switch at := s.attrID(mid); {
		case at < id:
			lo = mid + 1
		case at > id:
			hi = mid
		default:
			return mid, true
		}
	}
	return 0, false
}

// Column returns attribute id's column, binary-searching the footer
// directory and then the sparse index; ok=false when no record in the
// segment carries it.
func (s *Segment) Column(id uint32) (SegColumn, bool) {
	if ci, ok := s.section(id); ok {
		return s.sectionAt(ci), true
	}
	lo, hi := 0, s.numEntries()
	for lo < hi {
		if mid := (lo + hi) / 2; s.entryID(mid) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == s.numEntries() || s.entryID(lo) != id {
		return SegColumn{}, false
	}
	return s.sparseAt(lo), true
}

// sparseAt returns the sparse column whose index run starts at entry k.
func (s *Segment) sparseAt(k int) SegColumn {
	id, _, enc := s.entry(k)
	end := k + 1
	for end < s.numEntries() && s.entryID(end) == id {
		end++
	}
	return SegColumn{id: id, enc: enc, count: end - k, entries: s.entries[k*segEntryBytes : end*segEntryBytes], seg: s}
}

// sectionAt returns the column of directory entry i, built over the
// segment bytes ParseSegment validated.
func (s *Segment) sectionAt(i int) SegColumn {
	d := s.dir[i*segColDirBytes:]
	c := SegColumn{
		id:    binary.LittleEndian.Uint32(d),
		enc:   SegEncoding(binary.LittleEndian.Uint32(d[u32:])),
		count: int(binary.LittleEndian.Uint32(d[4*u32:])),
		rng: segRange{
			ok:      binary.LittleEndian.Uint32(d[5*u32:])&segFlagHasRange != 0,
			minBits: binary.LittleEndian.Uint64(d[6*u32:]),
			maxBits: binary.LittleEndian.Uint64(d[6*u32+8:]),
		},
	}
	off := int(binary.LittleEndian.Uint32(d[2*u32:]))
	sec := s.data[off : off+int(binary.LittleEndian.Uint32(d[3*u32:]))]
	bitmap := len(s.nulls) // every bitmap of the segment has the same length
	c.words = sec[:bitmap]
	switch c.enc {
	case SegString, SegRaw:
		c.ends = sec[bitmap : bitmap+c.count*u32]
		c.varb = sec[bitmap+c.count*u32:]
	default:
		c.fixed = sec[bitmap:]
	}
	return c
}
