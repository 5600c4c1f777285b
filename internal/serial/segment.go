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
//	[raw vector: ends u32*n | bytes]      original record bytes, verbatim
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
// The raw vector keeps the exact input bytes of every record, so freezing
// is lossless: un-freezing a segment back to heap rows is a byte-identical
// reconstruction, and extraction paths that need full-record descent
// (dotted paths through nested objects, extract_any probes) still work.

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
	segVersion = 2
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

// sectionLen is the size of the attribute's column section over records of
// nwords presence words: bitmap, then the payload.
func (cb *segColBuilder) sectionLen(nwords int) int {
	switch cb.enc {
	case SegInt, SegFloat:
		return nwords*8 + cb.count*8
	case SegBool:
		return nwords*8 + cb.count
	default:
		return nwords*8 + cb.count*u32 + cb.varLen
	}
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
// be a well-formed record, its attribute IDs ascending, whose attributes
// resolve in dict; any parse or dictionary failure aborts the encode — the
// caller keeps the rows as-is.
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
	rawLen := 0
	for i, rec := range records {
		if rec == nil {
			continue
		}
		rawLen += len(rec)
		var h header
		if err := parseHeader(rec, &h); err != nil {
			return nil, fmt.Errorf("serial: segment record %d: %w", i, err)
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
				if len(vb) != 1 {
					return nil, fmt.Errorf("serial: segment record %d attr %d: bad bool length %d", i, id, len(vb))
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
	// ascending attribute ID, footer, trailing footer offset.
	for ci := range e.cols {
		e.order = append(e.order, int32(ci))
	}
	slices.SortFunc(e.order, func(a, b int32) int { return cmp.Compare(e.cols[a].id, e.cols[b].id) })
	nullOff := 2 * u32
	rawOff := nullOff + nwords*8
	rawSecLen := n*u32 + rawLen
	at := rawOff + rawSecLen
	sections := 0
	for _, ci := range e.order {
		cb := &e.cols[ci]
		if cb.sparse = cb.count*segSparseDiv <= n; cb.sparse {
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

	// Second pass: every record into the raw vector, every dense value into
	// its attribute's section, every sparse one into an index entry.
	rawAt, ref := rawOff+n*u32, 0
	for i, rec := range records {
		byteAt, bit := (i/64)*8+(i%64)/8, byte(1)<<uint(i%8)
		if rec == nil {
			out[nullOff+byteAt] |= bit
		}
		rawAt += copy(out[rawAt:], rec)
		binary.LittleEndian.PutUint32(out[rawOff+i*u32:], uint32(rawAt-rawOff-n*u32))
		if rec == nil {
			continue
		}
		var h header
		_ = parseHeader(rec, &h) // parsed in the first pass
		for a := 0; a < h.n; a++ {
			cb := &e.cols[e.refs[ref]]
			ref++
			if cb.sparse {
				binary.LittleEndian.PutUint32(out[cb.fixed:], cb.id)
				binary.LittleEndian.PutUint32(out[cb.fixed+u32:], uint32(i)<<segEncBits|uint32(cb.enc))
				cb.fixed += segEntryBytes
				continue
			}
			vb, _ := h.valueBytes(a)
			out[cb.off+byteAt] |= bit
			switch cb.enc {
			case SegInt, SegFloat:
				cb.fixed += copy(out[cb.fixed:], vb)
			case SegBool:
				if vb[0] != 0 {
					out[cb.fixed] = 1
				}
				cb.fixed++
			default:
				cb.varb += copy(out[cb.varb:], vb)
				cb.varDone += uint32(len(vb))
				binary.LittleEndian.PutUint32(out[cb.end:], cb.varDone)
				cb.end += u32
			}
		}
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
		rec, _ := c.seg.RecordBytes(row)
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
// bounds, presence bitmap, value ends and zone map, and every sparse index
// entry's order, row and value, are checked here, so the on-demand reads
// of Column slice the bytes without re-checking. Corrupt
// input — truncated footers, presence bitmaps whose popcount disagrees
// with the payload, attribute-ID/vector length mismatches, index entries
// out of order or naming a value their record does not hold — returns an
// error, never panics. Bytes of another format version are rejected.
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
	if err := s.checkSparse(); err != nil {
		return nil, err
	}
	return s, nil
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
// It counts the sparse attributes. A record is named once per sparse
// attribute it holds, in attribute order, so its header is parsed the
// first time an entry names it (a bit per row records that) and every
// entry's value found through the checked header in place.
func (s *Segment) checkSparse() error {
	ne := s.numEntries()
	// Rows of a heap page fit the stack buffer; a larger segment allocates.
	var parsedBuf [4]uint64
	parsed := parsedBuf[:]
	if words := (s.n + 63) / 64; ne > 0 && words > len(parsedBuf) {
		parsed = make([]uint64, words)
	}
	di, run := 0, 0
	var h header
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
		rec, ok := s.RecordBytes(row)
		if !ok {
			return fmt.Errorf("serial: segment sparse attr %d on null record %d", id, row)
		}
		if bit := uint64(1) << uint(row%64); parsed[row/64]&bit == 0 {
			if err := parseHeader(rec, &h); err != nil {
				return fmt.Errorf("serial: segment sparse attr %d: value outside record %d: %w", id, row, err)
			}
			parsed[row/64] |= bit
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
			if len(b) != 1 {
				return fmt.Errorf("serial: segment sparse attr %d record %d: bool value of %d bytes", id, row, len(b))
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

// RecordBytes returns the original serialized bytes of record i; ok=false
// for NULL records. The bytes alias the segment buffer.
func (s *Segment) RecordBytes(i int) ([]byte, bool) {
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

// Column returns attribute id's column, binary-searching the footer
// directory and then the sparse index; ok=false when no record in the
// segment carries it.
func (s *Segment) Column(id uint32) (SegColumn, bool) {
	lo, hi := 0, s.numSections()
	for lo < hi {
		mid := (lo + hi) / 2
		switch at := s.attrID(mid); {
		case at < id:
			lo = mid + 1
		case at > id:
			hi = mid
		default:
			return s.sectionAt(mid), true
		}
	}
	lo, hi = 0, s.numEntries()
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
