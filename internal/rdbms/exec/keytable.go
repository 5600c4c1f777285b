package exec

import (
	"slices"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// keyTable is the one hash table of the executor's hash operators: the
// hash aggregate's groups, the hash join's build keys and a DISTINCT
// aggregate's seen values. It numbers distinct keys with dense int32 ids in
// first-appearance order and keeps the keys column-major, one []Datum per
// key column indexed by id. A key is located by its types.Hash (hashKeys
// computes a batch's column-at-a-time) in an open-addressed array of ids
// and confirmed with types.KeyEqual, so NULL matches NULL; a join skips
// NULL keys before it gets here. No key is ever encoded to bytes.
//
// Equal keys share a hash, so they share a probe sequence, and linear
// probing meets them in insertion order (growth reinserts in id order):
// a key always finds the earliest-inserted id it is KeyEqual to. Int/Float
// equality is not transitive beyond 2^53 (2^53 and 2^53+1 both equal the
// float 2^53 and not each other), so that is the rule that says which group
// such a key joins: the first-seen key that equals it.
type keyTable struct {
	cols   [][]types.Datum // cols[k][id]: key column k of key id
	hashes []uint64        // hashes[id]: the key's hash
	slots  []int32         // id+1 per occupied slot, 0 for empty
	mask   uint64
	// collided records that two distinct keys share a hash.
	collided bool

	one     [1]types.Datum // insertValue's one-column key
	oneCols [1][]types.Datum
}

// keyTableMinIDs is a new table's id capacity: a 21-group aggregate fits
// without growing, and a DISTINCT aggregate per group stays small.
const keyTableMinIDs = 32

func newKeyTable(nkeys int) *keyTable {
	t := &keyTable{cols: make([][]types.Datum, nkeys)}
	t.resize(keyTableMinIDs)
	return t
}

// resize gives the table room for capIDs ids at a load factor of at most
// one half, rehashing the ids it holds in id order.
func (t *keyTable) resize(capIDs int) {
	for k, col := range t.cols {
		t.cols[k] = append(make([]types.Datum, 0, capIDs), col...)
	}
	t.hashes = append(make([]uint64, 0, capIDs), t.hashes...)
	t.slots = make([]int32, 2*capIDs)
	t.mask = uint64(len(t.slots) - 1)
	for id, h := range t.hashes {
		s := h & t.mask
		for t.slots[s] != 0 {
			s = (s + 1) & t.mask
		}
		t.slots[s] = int32(id + 1)
	}
}

// len reports the number of distinct keys.
func (t *keyTable) len() int { return len(t.hashes) }

// equalAt reports whether key id equals row i of cols.
func (t *keyTable) equalAt(id int32, cols [][]types.Datum, i int) bool {
	for k, col := range cols {
		if !types.KeyEqual(t.cols[k][id], col[i]) {
			return false
		}
	}
	return true
}

// lookup returns the id of the key at row i of cols, whose hash is h, or
// -1 when the table does not hold it.
func (t *keyTable) lookup(cols [][]types.Datum, i int, h uint64) int32 {
	for s := h & t.mask; ; s = (s + 1) & t.mask {
		id := t.slots[s] - 1
		if id < 0 {
			return -1
		}
		if t.hashes[id] == h && t.equalAt(id, cols, i) {
			return id
		}
	}
}

// insert returns the id of the key at row i of cols, whose hash is h,
// entering it with the next id when the table does not hold it yet; isNew
// reports that it did.
func (t *keyTable) insert(cols [][]types.Datum, i int, h uint64) (id int32, isNew bool) {
	s := h & t.mask
	for ; ; s = (s + 1) & t.mask {
		id := t.slots[s] - 1
		if id < 0 {
			break
		}
		if t.hashes[id] == h {
			if t.equalAt(id, cols, i) {
				return id, false
			}
			t.collided = true
		}
	}
	if len(t.hashes) == cap(t.hashes) {
		t.resize(2 * len(t.hashes))
		for s = h & t.mask; t.slots[s] != 0; s = (s + 1) & t.mask {
		}
	}
	id = int32(len(t.hashes))
	for k, col := range cols {
		t.cols[k] = append(t.cols[k], col[i])
	}
	t.hashes = append(t.hashes, h)
	t.slots[s] = id + 1
	return id, true
}

// appendIDs appends to dst the ids of every key whose hash is h.
func (t *keyTable) appendIDs(dst []int32, h uint64) []int32 {
	for s := h & t.mask; t.slots[s] != 0; s = (s + 1) & t.mask {
		if id := t.slots[s] - 1; t.hashes[id] == h {
			dst = append(dst, id)
		}
	}
	return dst
}

// insertValue enters a one-column key, reporting whether it was new.
func (t *keyTable) insertValue(v types.Datum) bool {
	t.one[0] = v
	t.oneCols[0] = t.one[:]
	_, isNew := t.insert(t.oneCols[:], 0, types.Hash(v))
	return isNew
}

// hashKeys hashes the n logical rows of a batch (physical row selIdx(sel,
// si) for logical row si) over the key columns, a column at a time, into
// dst[:n].
func hashKeys(dst []uint64, cols [][]types.Datum, sel []int32, n int) []uint64 {
	dst = slices.Grow(dst[:0], n)[:n]
	for k, col := range cols {
		if k == 0 {
			for si := range dst {
				dst[si] = types.Hash(col[selIdx(sel, si)])
			}
			continue
		}
		for si := range dst {
			dst[si] = types.HashCombine(dst[si], types.Hash(col[selIdx(sel, si)]))
		}
	}
	return dst
}

// anyNull reports whether row i holds a NULL in any of cols: a join key
// that can match nothing.
func anyNull(cols [][]types.Datum, i int) bool {
	for _, col := range cols {
		if col[i].IsNull() {
			return true
		}
	}
	return false
}
