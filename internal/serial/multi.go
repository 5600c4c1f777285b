package serial

import (
	"strings"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// This file implements the fused multi-key extraction kernel: when a query
// projects several virtual keys of the same reservoir column, the batch
// operator parses each record header once and resolves every requested
// (path, type) pair in a single sorted merge over the header's attribute
// IDs, instead of one full lookup per key per row. Dictionary lookups
// happen once per query (PrepareMulti), not once per row per key.

// MultiSpec is one (path, type) extraction request of a prepared
// multi-extract; Want TypeAny asks for sinew_extract_any's answer. Specs
// are built once per query by PrepareMulti.
type MultiSpec struct {
	Path string
	Want AttrType

	// id is the dictionary ID of the literal (Path, Want) attribute,
	// absentID for never-seen attributes.
	id uint32
	// anyIDs are the candidate IDs of a TypeAny spec, in probe order.
	anyIDs [numAttrTypes]uint32
	// dotted marks paths needing the nested-object descent fallback when
	// the literal attribute is absent from a record.
	dotted bool
}

// PreparedMulti is a set of extraction requests with dictionary IDs
// resolved up front and a merge order precomputed over the sorted IDs.
type PreparedMulti struct {
	Specs []MultiSpec
	// merge lists indices into Specs with a resolved literal ID, sorted by
	// that ID — the probe sequence of the header merge.
	merge []int
	// slow lists indices that can never match via the literal-ID merge and
	// always take the fallback path (TypeAny specs, unresolved dotted
	// paths).
	slow []int
}

// PrepareMulti resolves a set of extraction requests against the
// dictionary once. Requests keep their input order in Specs (outputs of
// ExtractDatums and MultiExtract are positional).
func PrepareMulti(reqs []MultiSpec, dict Dict) *PreparedMulti {
	pm := &PreparedMulti{Specs: make([]MultiSpec, len(reqs))}
	copy(pm.Specs, reqs)
	for i := range pm.Specs {
		s := &pm.Specs[i]
		s.dotted = strings.IndexByte(s.Path, '.') >= 0
		if s.Want == TypeAny {
			s.anyIDs = anyIDs(dict, s.Path)
			pm.slow = append(pm.slow, i)
			continue
		}
		if s.id = idOf(dict, s.Path, s.Want); s.id != absentID {
			pm.merge = append(pm.merge, i)
		} else if s.dotted {
			pm.slow = append(pm.slow, i)
		}
		// Non-dotted paths with no dictionary entry can never match any
		// record: they stay out of both lists and always yield found=false.
	}
	// Insertion sort (stable, allocation-free): the merge list is a handful
	// of specs and PrepareMulti runs once per query, where sort.SliceStable's
	// closure and swapper show up in per-query allocation counts.
	for i := 1; i < len(pm.merge); i++ {
		for j := i; j > 0 && pm.Specs[pm.merge[j]].id < pm.Specs[pm.merge[j-1]].id; j-- {
			pm.merge[j], pm.merge[j-1] = pm.merge[j-1], pm.merge[j]
		}
	}
	return pm
}

// Record is a serialized record with its header parsed, reused across the
// rows of a scan (Reset).
type Record struct {
	h header
}

// Reset re-parses r against new record bytes in place, so one scratch
// Record serves every row of a scan without allocating. The Record aliases
// data; the caller must not mutate it while the Record is in use.
func (r *Record) Reset(data []byte) error {
	h, err := parseHeader(data)
	if err != nil {
		r.h = header{}
		return err
	}
	r.h = h
	return nil
}

// ExtractDatums resolves every prepared request against the record and
// decodes each value with DecodeDatum (a TypeAny request: its JSON text).
// out[i] receives spec i's value, or its typed NULL when the key is absent
// or differently typed (§3.2.2 type-selective NULLs); len(out) must be
// len(pm.Specs).
func (r *Record) ExtractDatums(pm *PreparedMulti, dict Dict, out []types.Datum) error {
	for i := range out {
		out[i] = types.NewNull(DatumType(pm.Specs[i].Want))
	}
	return r.locateAll(pm, dict, func(si int, vb []byte, t AttrType) (err error) {
		out[si], err = decodeAs(vb, t, pm.Specs[si].Want, dict)
		return err
	})
}

// MultiExtract is ExtractDatums decoding into jsonx.Values (a TypeAny
// request: the value itself). out[i] and found[i] receive spec i's value;
// both slices must have len(pm.Specs). The query side does not use it; the
// serialization benchmarks (Table 4, the layer timings) do.
func (r *Record) MultiExtract(pm *PreparedMulti, dict Dict, out []jsonx.Value, found []bool) error {
	clear(out)
	clear(found)
	return r.locateAll(pm, dict, func(si int, vb []byte, t AttrType) (err error) {
		out[si], err = decodeValue(vb, t, dict)
		found[si] = err == nil
		return err
	})
}

// locateAll finds every prepared request in the record and hands each one
// found to emit with its bytes and type: a two-pointer merge of the
// prepared (sorted) literal IDs with the record's sorted attribute IDs,
// then the nested descent and the TypeAny probe for the specs that need
// them.
func (r *Record) locateAll(pm *PreparedMulti, dict Dict, emit func(si int, vb []byte, t AttrType) error) error {
	h := r.h
	// Both h.aids and pm.merge are ascending, so each side advances
	// monotonically. Duplicate spec IDs re-match without moving the header
	// cursor.
	pos := 0
	for _, si := range pm.merge {
		s := &pm.Specs[si]
		for pos < h.n && h.aid(pos) < s.id {
			pos++
		}
		var vb []byte
		var ok bool
		var err error
		if pos < h.n && h.aid(pos) == s.id {
			vb, err = h.valueBytes(pos)
			ok = err == nil
		} else if s.dotted {
			// Literal dotted attribute absent from this record: descend
			// through nested objects the slow way.
			vb, ok, err = h.descend(s.Path, s.Want, dict)
		}
		if ok {
			err = emit(si, vb, s.Want)
		}
		if err != nil {
			return err
		}
	}
	for _, si := range pm.slow {
		s := &pm.Specs[si]
		var vb []byte
		var ok bool
		var err error
		t := s.Want
		if t == TypeAny {
			vb, t, ok, err = h.locateAny(s.Path, &s.anyIDs, dict)
		} else {
			// Unresolved dotted path: no literal attribute exists anywhere,
			// so every record takes the descent.
			vb, ok, err = h.descend(s.Path, s.Want, dict)
		}
		if ok {
			err = emit(si, vb, t)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
