package types

import (
	"math"
	"testing"
)

// TestHashConsistentWithEqual pins the pairs the executor's hash tables
// must put in one group (KeyEqual, so equal hashes) and the ones HashKey
// gets wrong that they must keep apart.
func TestHashConsistentWithEqual(t *testing.T) {
	const big = 1 << 53
	nan2 := math.Float64frombits(0x7ff8000000000123)
	equal := [][2]Datum{
		{NewInt(2), NewFloat(2)},
		{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		{NewInt(0), NewFloat(math.Copysign(0, -1))},
		{NewFloat(math.NaN()), NewFloat(nan2)},
		{NewInt(big), NewFloat(big)},
		{NewInt(big + 1), NewFloat(big)},
		{NewText("abc"), NewText(string([]byte("abc")))},
		{NewBytes([]byte{1, 2}), NewBytes([]byte{1, 2})},
		{NewNull(Int), NewNull(Text)},
		{NewNull(Float), {}},
		{NewArray(NewInt(1), NewNull(Int)), NewArray(NewFloat(1), NewNull(Text))},
		{NewArray(NewFloat(math.Copysign(0, -1))), NewArray(NewInt(0))},
	}
	for _, p := range equal {
		if !KeyEqual(p[0], p[1]) {
			t.Errorf("KeyEqual(%v, %v) = false, want true", p[0], p[1])
		}
		if Hash(p[0]) != Hash(p[1]) {
			t.Errorf("Hash(%v) != Hash(%v) for KeyEqual values", p[0], p[1])
		}
	}
	unequal := [][2]Datum{
		{NewInt(big), NewInt(big + 1)},
		{NewInt(1), NewBool(true)},
		{NewText("a"), NewBytes([]byte("a"))},
		{NewNull(Int), NewInt(0)},
		{NewArray(NewInt(1)), NewArray(NewInt(1), NewInt(1))},
	}
	for _, p := range unequal {
		if KeyEqual(p[0], p[1]) {
			t.Errorf("KeyEqual(%v, %v) = true, want false", p[0], p[1])
		}
	}
	if Interchangeable(NewInt(big), NewFloat(big)) || Interchangeable(NewArray(NewFloat(big)), NewArray(NewInt(big))) {
		t.Error("2^53 as Int and as Float are interchangeable; 2^53+1 tells them apart")
	}
	if !Interchangeable(NewInt(big-1), NewFloat(big-1)) || !Interchangeable(NewFloat(0), NewFloat(math.Copysign(0, -1))) {
		t.Error("Int/Float below 2^53 and the two zeros are not interchangeable")
	}
	if Equal(NewNull(Int), NewNull(Int)) {
		t.Error("Equal(NULL, NULL) = true; only KeyEqual matches NULLs")
	}
}

// FuzzKeyHashMatchesEqual checks the contract the executor's key table
// rests on: KeyEqual(a, b) implies Hash(a) == Hash(b), Equal implies
// KeyEqual, and Interchangeable KeyEqual values equal the same values.
// Two values decoded from the input meet each other, a rebuilt twin over
// other memory, and their numeric peers (Int ↔ Float of the same value,
// the neighbouring integers, -0.0 ↔ 0.0, NaN with other payload bits),
// which are where equality crosses types.
func FuzzKeyHashMatchesEqual(f *testing.F) {
	for _, s := range datumSeeds() {
		f.Add(s)
	}
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0x20, 0, 4, 0, 0, 0, 0, 0, 0, 0x40, 0x43}) // 2^53 vs the float 2^53
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0x20, 0, 3, 0, 0, 0, 0, 0, 0, 0x20, 0})    // 2^53+1 vs 2^53
	f.Fuzz(func(t *testing.T, data []byte) {
		ra, rest := decodeRef(data, 0)
		rb, _ := decodeRef(rest, 0)
		vals := []Datum{ra.build(), ra.build(), rb.build()}
		vals = append(vals, numericPeers(vals[0])...)
		vals = append(vals, numericPeers(vals[2])...)
		for _, a := range vals {
			for _, b := range vals {
				if Equal(a, b) && !KeyEqual(a, b) {
					t.Fatalf("Equal(%v, %v) but not KeyEqual", a, b)
				}
				if !KeyEqual(a, b) {
					continue
				}
				if Hash(a) != Hash(b) {
					t.Fatalf("KeyEqual(%v, %v) but hashes %x != %x", a, b, Hash(a), Hash(b))
				}
				if !Interchangeable(a, b) {
					continue
				}
				for _, p := range vals {
					if KeyEqual(a, p) != KeyEqual(b, p) {
						t.Fatalf("Interchangeable(%v, %v) but only one equals %v", a, b, p)
					}
				}
			}
		}
	})
}

// numericPeers returns values of other representations that may equal d —
// the other numeric type, the other zero, another NaN, and arrays with
// their elements so replaced — and the integers next to it. The last peer
// is always one that equals d.
func numericPeers(d Datum) []Datum {
	if d.IsNull() {
		return nil
	}
	switch d.Typ {
	case Int:
		return []Datum{NewInt(d.I - 1), NewInt(d.I + 1), NewFloat(float64(d.I))}
	case Float:
		f := d.Float()
		out := []Datum{NewFloat(-f)}
		switch {
		case f != f:
			out = append(out, NewFloat(math.Float64frombits(0x7ff8000000000001)))
		case f == math.Trunc(f) && math.Abs(f) < 1<<63:
			out = append(out, NewInt(int64(f)+1), NewInt(int64(f)))
		default:
			out = append(out, NewFloat(f))
		}
		return out
	case Array:
		elems := d.Array()
		peer := make([]Datum, len(elems))
		for i, e := range elems {
			peer[i] = e
			if p := numericPeers(e); len(p) > 0 {
				peer[i] = p[len(p)-1]
			}
		}
		return []Datum{NewArray(peer...)}
	default:
		return nil
	}
}
