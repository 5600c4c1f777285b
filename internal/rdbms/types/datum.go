// Package types defines the value system of the embedded relational engine:
// SQL types, datums, comparison, casting, and hashing. It is shared by the
// storage layer, planner, executor, and by Sinew's serialization format.
package types

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Type is a SQL column type.
type Type uint8

// The supported SQL types. Unknown is the type of an untyped NULL literal
// and of expressions whose type cannot be derived.
const (
	Unknown Type = iota
	Bool
	Int
	Float
	Text
	Bytes
	Array
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case Unknown:
		return "unknown"
	case Bool:
		return "boolean"
	case Int:
		return "integer"
	case Float:
		return "real"
	case Text:
		return "text"
	case Bytes:
		return "bytea"
	case Array:
		return "array"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType resolves a SQL type name (as written in DDL) to a Type.
func ParseType(name string) (Type, error) {
	switch strings.ToLower(name) {
	case "bool", "boolean":
		return Bool, nil
	case "int", "integer", "bigint", "int8", "int4", "smallint":
		return Int, nil
	case "real", "float", "float8", "double", "double precision", "numeric", "decimal":
		return Float, nil
	case "text", "varchar", "char", "string":
		return Text, nil
	case "bytea", "blob", "bytes":
		return Bytes, nil
	case "array":
		return Array, nil
	default:
		return Unknown, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Datum is a single SQL value: a 24-byte tagged union with one pointer
// word (DESIGN.md §5 "Value representation"). The zero Datum is the SQL
// NULL of unknown type. Typ selects what the two payload words mean:
//
//	Typ      I                      p
//	Bool     0 or 1                 nil
//	Int      the value              nil
//	Float    math.Float64bits       nil
//	Text     length in bytes        first byte (unsafe.StringData)
//	Bytes    length in bytes        first byte (unsafe.SliceData)
//	Array    number of elements     first element (unsafe.SliceData)
//
// A Datum with Null set has no payload. Build datums with the New*
// constructors and read payloads through Bool/Float/Text/Bytes/Array (I is
// the integer payload and may be read directly when Typ == Int); writing
// Typ or I of an existing datum can desynchronize the tag from the payload
// and is never done outside this package. Datums must not be compared with
// ==: p is an address, not a value — use Equal or Compare.
//
// The struct is kept at four fields: beyond that the compiler stops
// treating it as an SSA value (passed, returned and copied in registers).
type Datum struct {
	p    unsafe.Pointer
	I    int64
	Typ  Type
	Null bool
}

// Constructors.

// NewNull returns a NULL of the given type.
func NewNull(t Type) Datum { return Datum{Typ: t, Null: true} }

// NewBool returns a boolean datum.
func NewBool(b bool) Datum {
	if b {
		return Datum{Typ: Bool, I: 1}
	}
	return Datum{Typ: Bool}
}

// NewInt returns an integer datum.
func NewInt(i int64) Datum { return Datum{Typ: Int, I: i} }

// NewFloat returns a real datum.
func NewFloat(f float64) Datum { return Datum{Typ: Float, I: int64(math.Float64bits(f))} }

// NewText returns a text datum (s is not copied; the datum shares its
// bytes).
func NewText(s string) Datum {
	return Datum{Typ: Text, p: unsafe.Pointer(unsafe.StringData(s)), I: int64(len(s))}
}

// AliasText returns a text datum over b without copying it. It is valid
// only over bytes that are never written afterwards — a record or segment
// of a copy-on-write heap page, a buffer the caller hands over — because a
// Go string must not change. A value written into a heap takes its own
// copy (Clone), so that it pins no record or segment.
func AliasText(b []byte) Datum {
	return Datum{Typ: Text, p: unsafe.Pointer(unsafe.SliceData(b)), I: int64(len(b))}
}

// NewBytes returns a bytea datum (b is not copied: the datum aliases
// b[:len(b)], and nil stays distinguishable from empty).
func NewBytes(b []byte) Datum {
	return Datum{Typ: Bytes, p: unsafe.Pointer(unsafe.SliceData(b)), I: int64(len(b))}
}

// NewArray returns an array datum over elems (not copied).
func NewArray(elems ...Datum) Datum {
	return Datum{Typ: Array, p: unsafe.Pointer(unsafe.SliceData(elems)), I: int64(len(elems))}
}

// Accessors. Each returns the zero value of its result when the datum holds
// another type (what reading the unused payload field of the former
// side-by-side struct returned), so a mismatched read is wrong but never
// reinterprets memory. A NULL built by NewNull has no payload; a datum whose
// Null flag was set afterwards keeps its payload.

// Bool returns the boolean payload.
func (d Datum) Bool() bool { return d.Typ == Bool && d.I != 0 }

// Float returns the real payload (use Float64 to widen integers too).
func (d Datum) Float() float64 {
	if d.Typ != Float {
		return 0
	}
	return math.Float64frombits(uint64(d.I))
}

// Text returns the text payload.
func (d Datum) Text() string {
	if d.Typ != Text {
		return ""
	}
	return unsafe.String((*byte)(d.p), int(d.I))
}

// Bytes returns the bytea payload: a view of the bytes the datum was built
// over, with cap == len, so an append reallocates and never writes through
// to memory the datum (or the slice NewBytes was given) still references.
// Writing to elements of the view does write through.
func (d Datum) Bytes() []byte {
	if d.Typ != Bytes {
		return nil
	}
	return unsafe.Slice((*byte)(d.p), int(d.I))
}

// Array returns the array's elements, as a cap == len view like Bytes.
func (d Datum) Array() []Datum {
	if d.Typ != Array {
		return nil
	}
	return unsafe.Slice((*Datum)(d.p), int(d.I))
}

// Clone returns d over a copy of its payload — text, bytea, and array
// elements down to the leaves — so the result shares no memory with the
// record or segment d was extracted from. Values written into a heap take
// a copy: an alias would pin the whole source record or segment.
func (d Datum) Clone() Datum {
	if d.Null {
		return d
	}
	switch d.Typ {
	case Text:
		return NewText(strings.Clone(d.Text()))
	case Bytes:
		return NewBytes(bytes.Clone(d.Bytes()))
	case Array:
		if d.p == nil {
			return d // nil stays distinguishable from empty
		}
		elems := make([]Datum, d.I)
		for i, e := range d.Array() {
			elems[i] = e.Clone()
		}
		return NewArray(elems...)
	default:
		return d
	}
}

// IsNull reports whether the datum is SQL NULL. A Datum of Unknown type is
// always NULL (no expression produces a non-null Unknown value), so the zero
// Datum is the untyped NULL literal.
func (d Datum) IsNull() bool { return d.Null || d.Typ == Unknown }

// String renders the datum for display (EXPLAIN, result printing, tests).
func (d Datum) String() string {
	if d.Null {
		return "NULL"
	}
	switch d.Typ {
	case Unknown:
		return "NULL"
	case Bool:
		if d.Bool() {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(d.I, 10)
	case Float:
		return strconv.FormatFloat(d.Float(), 'g', -1, 64)
	case Text:
		return d.Text()
	case Bytes:
		return fmt.Sprintf("\\x%x", d.Bytes())
	case Array:
		var sb strings.Builder
		sb.WriteByte('{')
		for i, e := range d.Array() {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(e.String())
		}
		sb.WriteByte('}')
		return sb.String()
	default:
		return fmt.Sprintf("<datum %v>", d.Typ)
	}
}

// SizeBytes estimates the on-disk footprint of the datum, used by the
// byte-accounting pager (and therefore by the I/O model and Table 3 storage
// sizes). NULLs cost nothing beyond the row's null bitmap.
func (d Datum) SizeBytes() int64 {
	if d.Null {
		return 0
	}
	switch d.Typ {
	case Bool:
		return 1
	case Int:
		return 8
	case Float:
		return 8
	case Text:
		return 4 + d.I // 4-byte varlena length header
	case Bytes:
		return 4 + d.I
	case Array:
		n := int64(4)
		for _, e := range d.Array() {
			n += 1 + e.SizeBytes() // element type tag + payload
		}
		return n
	default:
		return 0
	}
}

// Float64 widens numeric datums to float64; ok is false for non-numerics
// and NULL.
func (d Datum) Float64() (float64, bool) {
	if d.Null {
		return 0, false
	}
	switch d.Typ {
	case Int:
		return float64(d.I), true
	case Float:
		return d.Float(), true
	default:
		return 0, false
	}
}

// Compare orders two non-NULL datums: -1, 0, +1. Numeric types compare
// cross-type (integer vs real); all other cross-type comparisons are
// incomparable and return an error. NULL handling is the caller's job
// (SQL three-valued logic lives in the expression evaluator).
func Compare(a, b Datum) (int, error) {
	if a.Null || b.Null {
		return 0, fmt.Errorf("types: Compare called with NULL operand")
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.Typ == Int && b.Typ == Int {
			return cmpInt(a.I, b.I), nil
		}
		af, _ := a.Float64()
		bf, _ := b.Float64()
		return cmpFloat(af, bf), nil
	}
	if a.Typ != b.Typ {
		return 0, fmt.Errorf("types: cannot compare %v with %v", a.Typ, b.Typ)
	}
	switch a.Typ {
	case Bool:
		return cmpBool(a.Bool(), b.Bool()), nil
	case Text:
		return strings.Compare(a.Text(), b.Text()), nil
	case Bytes:
		return bytes.Compare(a.Bytes(), b.Bytes()), nil
	case Array:
		ae, be := a.Array(), b.Array()
		for i := 0; i < len(ae) && i < len(be); i++ {
			if ae[i].Null || be[i].Null {
				if ae[i].Null && be[i].Null {
					continue
				}
				if ae[i].Null {
					return -1, nil // NULLs first inside arrays
				}
				return 1, nil
			}
			c, err := Compare(ae[i], be[i])
			if err != nil {
				return 0, err
			}
			if c != 0 {
				return c, nil
			}
		}
		return cmpInt(a.I, b.I), nil
	default:
		return 0, fmt.Errorf("types: cannot compare values of type %v", a.Typ)
	}
}

// CompareOrder orders two non-NULL datums totally, the way ORDER BY does:
// as Compare where they are comparable, otherwise by type tag, so a
// multi-typed attribute sorts deterministically instead of failing. The
// sort operators and the storage layer's Top-N page bound share it.
func CompareOrder(a, b Datum) int {
	c, err := Compare(a, b)
	if err != nil {
		return int(a.Typ) - int(b.Typ)
	}
	return c
}

// IsNumeric reports whether the datum holds an integer or real value.
func (d Datum) IsNumeric() bool { return d.Typ == Int || d.Typ == Float }

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// NaN ordering: NaN sorts after everything and equals itself, so sorts
	// and aggregates terminate deterministically.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return 1
	default:
		return -1
	}
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// Equal reports SQL equality of two non-NULL datums; incomparable types are
// simply unequal (rather than an error) which matches the dynamic-typing
// behaviour Sinew needs for multi-typed attributes.
func Equal(a, b Datum) bool {
	if a.Null || b.Null {
		return false
	}
	if a.Typ == b.Typ {
		switch a.Typ {
		case Int:
			return a.I == b.I
		case Text:
			return a.Text() == b.Text()
		default:
			// Compare below.
		}
	} else if !(a.IsNumeric() && b.IsNumeric()) {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// KeyEqual is Equal with NULL equal to NULL: the rule by which GROUP BY,
// DISTINCT and the hash tables put values in one group.
func KeyEqual(a, b Datum) bool {
	if an, bn := a.IsNull(), b.IsNull(); an || bn {
		return an && bn
	}
	return Equal(a, b)
}

// Interchangeable reports whether two KeyEqual values equal exactly the
// same values: KeyEqual(a, p) == KeyEqual(b, p) for every p. Equality is
// transitive except across Int and Float beyond 2^53 (2^53 and 2^53+1 both
// equal the float 2^53 and not each other), so KeyEqual values are
// interchangeable unless an Int of magnitude 2^53 or more meets a Float,
// in an array element too. A hash join whose build keys are all
// interchangeable with their group's first key can answer a probe from
// that one group.
func Interchangeable(a, b Datum) bool {
	if a.IsNull() || b.IsNull() {
		return true
	}
	if a.Typ == Array && b.Typ == Array {
		ae, be := a.Array(), b.Array()
		for i := range ae {
			if !Interchangeable(ae[i], be[i]) {
				return false
			}
		}
		return true
	}
	if a.Typ == b.Typ {
		return true
	}
	i := a.I
	if b.Typ == Int {
		i = b.I
	}
	return -1<<53 < i && i < 1<<53
}

// hashSeed keys the content hash of text and bytes for the process, so
// hash values are comparable across every table built in it.
var hashSeed = maphash.MakeSeed()

// Salts separating the hash domains of NULL, booleans and arrays.
const (
	nullHash  = 0x6a09e667f3bcc908
	boolSalt  = 0xbb67ae8584caa73b
	arraySalt = 0x3c6ef372fe94f82b
	nanHash   = 0xa54ff53a5f1d36f1
)

// Hash returns a 64-bit hash of d that is consistent with KeyEqual:
// KeyEqual(a, b) implies Hash(a) == Hash(b). Numerics hash through float64
// (2 and 2.0 collide, -0.0 hashes as 0.0, every NaN alike), text and bytes
// by content, arrays element by element, and every NULL to one value. The
// executor's hash tables hash key columns with it and confirm with
// KeyEqual; unlike HashKey it builds nothing.
func Hash(d Datum) uint64 {
	if d.IsNull() {
		return nullHash
	}
	switch d.Typ {
	case Int:
		return hashFloat(float64(d.I))
	case Float:
		return hashFloat(d.Float())
	case Bool:
		return mix64(uint64(d.I) ^ boolSalt)
	case Text:
		return maphash.String(hashSeed, d.Text())
	case Bytes:
		return maphash.Bytes(hashSeed, d.Bytes())
	case Array:
		h := mix64(uint64(d.I) ^ arraySalt)
		for _, e := range d.Array() {
			h = HashCombine(h, Hash(e))
		}
		return h
	default:
		return nullHash
	}
}

// HashCombine folds the hash v of the next key column into h.
func HashCombine(h, v uint64) uint64 { return mix64(h*0x9e3779b97f4a7c15 ^ v) }

func hashFloat(f float64) uint64 {
	switch {
	case f == 0:
		return mix64(0) // -0.0 and 0.0
	case f != f:
		return nanHash
	default:
		return mix64(math.Float64bits(f))
	}
}

// mix64 is the MurmurHash3 finalizer: every input bit reaches every output
// bit, so the low bits a table masks by are well spread.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// HashKey encodes the datum into buf as a self-delimiting, order-defining
// byte key. Numerics are normalized to float64 so 2 and 2.0 encode alike;
// the normalization also folds integers beyond 2^53 together and keeps
// -0.0 apart from 0.0, so equal keys are not the same thing as Equal
// datums (Hash is the one consistent with Equal). It orders a hash
// aggregate's output groups and keys the column statistics.
func (d Datum) HashKey(buf []byte) []byte {
	if d.Null {
		return append(buf, 0x00)
	}
	switch d.Typ {
	case Bool:
		if d.Bool() {
			return append(buf, 0x01, 1)
		}
		return append(buf, 0x01, 0)
	case Int, Float:
		f, _ := d.Float64()
		bits := math.Float64bits(f)
		buf = append(buf, 0x02)
		for shift := 56; shift >= 0; shift -= 8 {
			buf = append(buf, byte(bits>>shift))
		}
		return buf
	case Text:
		buf = append(buf, 0x03)
		buf = appendLenPrefixed(buf, d.Text())
		return buf
	case Bytes:
		buf = append(buf, 0x04)
		buf = appendLen(buf, int(d.I))
		return append(buf, d.Bytes()...)
	case Array:
		buf = append(buf, 0x05)
		buf = append(buf, byte(d.I>>8), byte(d.I))
		for _, e := range d.Array() {
			buf = e.HashKey(buf)
		}
		return buf
	default:
		return append(buf, 0xff)
	}
}

func appendLen(buf []byte, n int) []byte {
	return append(buf, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
}

func appendLenPrefixed(buf []byte, s string) []byte {
	return append(appendLen(buf, len(s)), s...)
}
