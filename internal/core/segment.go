package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
)

// This file connects the storage layer's frozen-page machinery to Sinew's
// serialized-record format. When ANALYZE freezes a cold page, the
// installed segmenter stripes every record-holding Bytes column — the
// reservoir and materialized nested-object columns — into a
// serial.Segment: a typed vector with a presence bitmap and a footer
// min/max for every attribute dense on the page, a sparse index into the
// record bytes for the rest. The striped extraction kernel then answers
// fused sinew_extract_* requests by streaming those columns instead of
// decoding each record, falling back to the exact row kernel for the rare
// rows that need a nested descent.

// recordSegment adapts a serial.Segment to storage.ColumnSegment.
type recordSegment struct {
	seg *serial.Segment
}

func (r *recordSegment) NumRows() int      { return r.seg.NumRecords() }
func (r *recordSegment) AttrIDs() []uint32 { return r.seg.AttrIDs() }
func (r *recordSegment) SizeBytes() int64  { return int64(r.seg.SizeBytes()) }

// AttrZone implements storage.ZoneMapped from the segment's column of the
// attribute: its presence count and, for int and float vectors, its
// extrema — a dense column's from the footer, a sparse one's from its few
// values — become a page-summary zone map, so range predicates on
// extracted keys can skip whole frozen pages without decoding them.
func (r *recordSegment) AttrZone(id uint32) (storage.AttrZone, bool) {
	c, ok := r.seg.Column(id)
	if !ok {
		return storage.AttrZone{}, false
	}
	z := storage.AttrZone{ID: id, Present: c.NumPresent()}
	if lo, hi, ok := c.IntRange(); ok {
		z.Min, z.Max, z.HasRange = types.NewInt(lo), types.NewInt(hi), true
	} else if flo, fhi, fok := c.FloatRange(); fok {
		z.Min, z.Max, z.HasRange = types.NewFloat(flo), types.NewFloat(fhi), true
	}
	return z, true
}

// Values gives back the records of rows [lo, lo+len(dst)) as they were
// frozen: the reads of whole records (un-freeze, Get, Scan, a statement
// that reads the column as values).
func (r *recordSegment) Values(dst []types.Datum, lo int, a *storage.ValueArena) error {
	for k := range dst {
		if b, ok := r.record(lo+k, nil, a); ok {
			dst[k] = types.NewBytes(b)
		} else {
			dst[k] = types.NewNull(types.Bytes)
		}
	}
	return nil
}

// splicedRecords counts the records recordSegment.record has spliced (a
// test hook: a statement splices the records of the rows it returns, not
// whole pages).
var splicedRecords atomic.Int64

// record returns record i's original bytes, narrowed to the attributes ids
// names when it is not nil; ok=false for a NULL record. A record none of
// whose attributes (of ids) is sectioned is its raw entry, aliasing the
// segment, which outlives any row view built from it; any other is
// spliced into a, which the caller's values may alias as long as they
// live.
func (r *recordSegment) record(i int, ids []uint32, a *storage.ValueArena) ([]byte, bool) {
	raw, ok := r.seg.RawRecord(i)
	if !ok || !r.seg.Spliced(i, ids) {
		return raw, ok
	}
	splicedRecords.Add(1)
	return a.Keep(r.seg.AppendRecord(a.Tail(), i, ids)), true
}

// reservoirSegmenter returns the ColumnSegmenter installed on every
// collection heap. A column stripes when all its non-NULL values are
// serialized records; anything else stays a plain vector ((nil, nil)), so
// freezing never depends on which columns the materializer has added.
// Encoding is verified by a full round-trip before the rows are dropped —
// every record spliced back, through one scratch buffer, and compared — so
// a page that cannot be reproduced byte-for-byte keeps its row form.
func (db *DB) reservoirSegmenter() storage.ColumnSegmenter {
	return func(_ int, vals []types.Datum) (storage.ColumnSegment, error) {
		var records [][]byte
		for i, d := range vals {
			if d.IsNull() {
				continue
			}
			if d.Typ != types.Bytes {
				return nil, nil
			}
			if records == nil {
				records = make([][]byte, len(vals))
			}
			records[i] = d.Bytes()
		}
		if records == nil {
			return nil, nil
		}
		dict := db.dict()
		data, err := serial.EncodeSegment(records, dict)
		if err != nil {
			// Not a record column (or a corrupt value): keep the rows.
			return nil, nil
		}
		seg, err := serial.ParseSegment(data)
		if err != nil {
			return nil, fmt.Errorf("core: freeze round-trip parse: %w", err)
		}
		var scratch []byte
		for i, want := range records {
			scratch = seg.AppendRecord(scratch[:0], i, nil)
			if seg.RecordNull(i) != (want == nil) || !bytes.Equal(scratch, want) {
				return nil, fmt.Errorf("core: freeze round-trip mismatch at row %d", i)
			}
		}
		return &recordSegment{seg: seg}, nil
	}
}

// stripedExtractFactory builds the segment-side kernel of the
// "sinew_extract" family (exec.SegExtractFactory). It must agree
// cell-for-cell with the row kernel registered in registerUDFs:
//
//   - a key cataloged as a literal (path, type) attribute streams straight
//     from the segment's typed vector for the rows where it is present;
//   - rows that could resolve through a nested descent (a dotted path with
//     an object/array-typed proper prefix present) or an untyped probe
//     (extract_any) replay the row kernel's extractor on the record bytes;
//   - everything else is the typed NULL the row path would produce.
func (db *DB) stripedExtractFactory(reqs []exec.MultiExtractReq) (exec.SegExtractKernel, error) {
	dict := db.dict()
	rx := newRowExtractor(reqs, dict)

	// Vector-path specs: a resolved literal attribute read directly from
	// its segment column.
	type vecSpec struct {
		k    int
		id   uint32
		want serial.AttrType
	}
	var vecs []vecSpec
	// cands[k] lists the attribute IDs whose presence on a row forces that
	// row through the row-path fallback for spec k: the prefix objects and
	// arrays a dotted path can descend through, plus every typed candidate
	// of an Any probe. Rows presenting none of them provably resolve to
	// found=false (or to the literal vector value) on the row path too.
	cands := make([][]uint32, len(reqs))
	addPrefixIDs := func(k int, path string) {
		for i := 0; i < len(path); i++ {
			if path[i] != '.' {
				continue
			}
			if id, ok := dict.IDOf(path[:i], serial.TypeObject); ok {
				cands[k] = append(cands[k], id)
			}
			if id, ok := dict.IDOf(path[:i], serial.TypeArray); ok {
				cands[k] = append(cands[k], id)
			}
		}
	}
	for k, r := range reqs {
		want := serial.AttrType(r.Type)
		if want == serial.TypeAny {
			for _, a := range dict.IDsOfKey(r.Key) {
				cands[k] = append(cands[k], a.ID)
			}
			addPrefixIDs(k, r.Key)
			continue
		}
		if id, ok := dict.IDOf(r.Key, want); ok {
			vecs = append(vecs, vecSpec{k: k, id: id, want: want})
		}
		if strings.ContainsRune(r.Key, '.') {
			addPrefixIDs(k, r.Key)
		}
	}

	// The rows the row kernel replays, the top-level attributes it looks
	// up — so a row is spliced from them alone (never nil once set: nil
	// keeps every attribute) — and the arena of the records it splices: the
	// values extracted from them may alias them, and a kernel serves one
	// statement.
	var fb struct {
		rows    []uint64
		look    []uint32
		spliced storage.ValueArena
	}

	return func(cs storage.ColumnSegment, out [][]types.Datum) (bool, error) {
		rs, ok := cs.(*recordSegment)
		if !ok {
			return false, nil
		}
		seg := rs.seg
		n := seg.NumRecords()
		for k := range out {
			nullK := types.NewNull(reqs[k].Ret)
			col := out[k]
			for i := range col {
				col[i] = nullK
			}
		}

		// Mark the rows that need the row-path replay.
		words := (n + 63) / 64
		if cap(fb.rows) < words {
			fb.rows = make([]uint64, words)
		}
		fb.rows = fb.rows[:words]
		clear(fb.rows)
		fbAny := false
		for k := range reqs {
			for _, id := range cands[k] {
				if col, ok := seg.Column(id); ok {
					col.MarkPresent(fb.rows)
					fbAny = true
				}
			}
		}

		// Typed vector streams for literal attributes. Fallback rows are
		// filled here too and overwritten below with the identical value —
		// replaying the full row kernel there keeps every spec consistent.
		for _, v := range vecs {
			col, ok := seg.Column(v.id)
			if !ok {
				continue
			}
			outK := out[v.k]
			var err, cbErr error
			switch v.want {
			case serial.TypeString:
				// The values alias the segment, which is never written.
				err = col.Strings(func(row int, b []byte) {
					outK[row] = types.AliasText(b)
				})
			case serial.TypeInt:
				err = col.Ints(func(row int, x int64) {
					outK[row] = types.NewInt(x)
				})
			case serial.TypeFloat:
				err = col.Floats(func(row int, x float64) {
					outK[row] = types.NewFloat(x)
				})
			case serial.TypeBool:
				err = col.Bools(func(row int, x bool) {
					outK[row] = types.NewBool(x)
				})
			default: // TypeObject, TypeArray: raw-encoded sub-values
				err = col.Raws(func(row int, b []byte) {
					if cbErr == nil {
						outK[row], cbErr = serial.DecodeDatum(b, v.want, dict)
					}
				})
			}
			if err == nil {
				err = cbErr
			}
			if err != nil {
				return true, err
			}
		}

		if !fbAny {
			return true, nil
		}
		if fb.look == nil {
			fb.look = []uint32{}
			for k := range reqs {
				fb.look = append(fb.look, cands[k]...)
			}
			for _, v := range vecs {
				fb.look = append(fb.look, v.id)
			}
			slices.Sort(fb.look)
			fb.look = slices.Compact(fb.look)
		}
		for w, word := range fb.rows {
			for word != 0 {
				i := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				b, ok := rs.record(i, fb.look, &fb.spliced)
				if !ok {
					continue
				}
				if err := rx.row(b, out, i); err != nil {
					return true, err
				}
			}
		}
		return true, nil
	}, nil
}
