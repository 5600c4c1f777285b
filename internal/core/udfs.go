package core

import (
	"fmt"
	"sync"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
)

// tojsonBufPool recycles sinew_tojson's render buffer. The UDF closure is
// shared by every session's statements, which run concurrently, so the
// scratch cannot live in the closure; a pool keeps the per-row
// append-growth allocations (a ~1 KB document regrows its buffer several
// times from empty) down to one amortized buffer per running statement.
var tojsonBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Cost constants for the optimizer (abstract units per call). Extraction
// from Sinew's format is one binary search plus a memory dereference
// (Appendix B); it is far cheaper than parsing JSON text but pricier than
// reading a physical column.
const (
	extractCost = 0.05
	tojsonCost  = 1.0
	setKeyCost  = 0.5
)

// registerUDFs installs Sinew's extraction and maintenance functions in the
// underlying RDBMS — the same shape as the paper's Postgres UDF extension
// (§5). All are stats-opaque: the optimizer cannot see through them, which
// is precisely what makes virtual columns invisible to it (§3.1.1).
func (db *DB) registerUDFs() {
	// One extraction UDF per attribute type, plus sinew_extract_any — the
	// projection with no type constraint, whose value per §3.2.2 is
	// returned downcast to text, probing each attribute type observed for
	// the key.
	for _, d := range []struct {
		name string
		want serial.AttrType
		cost float64
	}{
		{"sinew_extract_text", serial.TypeString, extractCost},
		{"sinew_extract_int", serial.TypeInt, extractCost},
		{"sinew_extract_real", serial.TypeFloat, extractCost},
		{"sinew_extract_bool", serial.TypeBool, extractCost},
		{"sinew_extract_array", serial.TypeArray, extractCost},
		{"sinew_extract_doc", serial.TypeObject, extractCost},
		{"sinew_extract_any", serial.TypeAny, extractCost * 1.5},
	} {
		ret := serial.DatumType(d.want)
		db.rdb.RegisterFunc(&exec.FuncDef{
			Name: d.name, MinArgs: 2, MaxArgs: 2,
			RetType:     func([]types.Type) types.Type { return ret },
			CostPerCall: d.cost,
			Opaque:      true,
			FuseFamily:  "sinew_extract",
			FuseType:    uint8(d.want),
			FuseAny:     d.want == serial.TypeAny,
			Eval: func(args []types.Datum) (types.Datum, error) {
				data, key, err := extractArgs(args)
				if err != nil {
					return types.Datum{}, err
				}
				if data == nil {
					return types.NewNull(ret), nil
				}
				// An absent key or a mismatched type is the typed NULL,
				// never an error (§3.2.2's graceful multi-type handling).
				return serial.ExtractDatum(data, key, d.want, db.dict())
			},
		})
	}

	// sinew_tojson reconstructs the reservoir's content as JSON text
	// (SELECT * uses it to surface remaining virtual attributes).
	db.rdb.RegisterFunc(&exec.FuncDef{
		Name: "sinew_tojson", MinArgs: 1, MaxArgs: 1,
		RetType:     func([]types.Type) types.Type { return types.Text },
		CostPerCall: tojsonCost,
		Opaque:      true,
		Eval: func(args []types.Datum) (types.Datum, error) {
			if args[0].IsNull() {
				return types.NewNull(types.Text), nil
			}
			if args[0].Typ != types.Bytes {
				return types.Datum{}, fmt.Errorf("sinew_tojson: want bytea, got %v", args[0].Typ)
			}
			// Streaming render first: one pass over the record, one text
			// allocation. Declined records (duplicate keys, corruption)
			// take the document path, which owns the canonical error.
			scratch := tojsonBufPool.Get().(*[]byte)
			buf, err := serial.AppendJSON((*scratch)[:0], args[0].Bytes(), db.dict())
			if err == nil {
				out := types.NewText(string(buf))
				*scratch = buf
				tojsonBufPool.Put(scratch)
				return out, nil
			}
			*scratch = buf
			tojsonBufPool.Put(scratch)
			doc, err := serial.Deserialize(args[0].Bytes(), db.dict())
			if err != nil {
				return types.Datum{}, err
			}
			return types.NewText(jsonx.ObjectValue(doc).String()), nil
		},
	})

	// sinew_set_key(data, key, value) writes a key into the reservoir
	// (UPDATEs on virtual columns); the value's SQL type picks the
	// attribute type.
	db.rdb.RegisterFunc(&exec.FuncDef{
		Name: "sinew_set_key", MinArgs: 3, MaxArgs: 3,
		RetType:     func([]types.Type) types.Type { return types.Bytes },
		CostPerCall: setKeyCost,
		Opaque:      true,
		Eval: func(args []types.Datum) (types.Datum, error) {
			data, key, err := extractArgs(args)
			if err != nil {
				return types.Datum{}, err
			}
			val := args[2]
			doc := jsonx.NewDoc()
			if data != nil {
				d, err := serial.Deserialize(data, db.dict())
				if err != nil {
					return types.Datum{}, err
				}
				doc = d
			}
			jv, err := jsonFromDatum(val, db.dict())
			if err != nil {
				return types.Datum{}, err
			}
			if val.IsNull() {
				// Setting NULL removes the key (absence is NULL).
				doc.Delete(key)
			} else {
				// Replace any differently-typed attribute of the same key.
				doc.Delete(key)
				doc.Set(key, jv)
			}
			out, err := serial.Serialize(doc, db.dict())
			if err != nil {
				return types.Datum{}, err
			}
			return types.NewBytes(out), nil
		},
	})

	// sinew_remove_key(data, key) strips every attribute of the key from
	// the reservoir (the UPDATE path for dirty physical columns).
	db.rdb.RegisterFunc(&exec.FuncDef{
		Name: "sinew_remove_key", MinArgs: 2, MaxArgs: 2,
		RetType:     func([]types.Type) types.Type { return types.Bytes },
		CostPerCall: setKeyCost,
		Opaque:      true,
		Eval: func(args []types.Datum) (types.Datum, error) {
			data, key, err := extractArgs(args)
			if err != nil {
				return types.Datum{}, err
			}
			if data == nil {
				return types.NewNull(types.Bytes), nil
			}
			var ids []uint32
			for _, attr := range db.dict().IDsOfKey(key) {
				ids = append(ids, attr.ID)
			}
			out, err := serial.DeleteAttrs(data, ids...)
			if err != nil {
				return types.Datum{}, err
			}
			return types.NewBytes(out), nil
		},
	})

	// sinew_match_set(_id, handle) probes a cached text-index result set
	// (§4.3: the index search result applied as a filter).
	db.rdb.RegisterFunc(&exec.FuncDef{
		Name: "sinew_match_set", MinArgs: 2, MaxArgs: 2,
		RetType:     func([]types.Type) types.Type { return types.Bool },
		CostPerCall: 0.01,
		Opaque:      true,
		Eval: func(args []types.Datum) (types.Datum, error) {
			if args[0].IsNull() || args[1].IsNull() {
				return types.NewBool(false), nil
			}
			// I holds a length or float bits under any other tag.
			if args[0].Typ != types.Int || args[1].Typ != types.Int {
				return types.Datum{}, fmt.Errorf("sinew_match_set: want (integer, integer), got (%v, %v)", args[0].Typ, args[1].Typ)
			}
			set, ok := db.lookupMatchSet(args[1].I)
			if !ok {
				return types.Datum{}, fmt.Errorf("sinew_match_set: unknown result set %d", args[1].I)
			}
			_, hit := set[args[0].I]
			return types.NewBool(hit), nil
		},
	})

	// sinew_stats() reports runtime counters — the prepared-plan cache, the
	// frozen pages and their segments' bytes, plus the executor's page-skip
	// and operator totals since the last pager reset — as a one-line text
	// summary. sel_vector_batches counts the selection-carrying batches
	// scans returned, frozen pages and row-form runs alike.
	db.rdb.RegisterFunc(&exec.FuncDef{
		Name: "sinew_stats", MinArgs: 0, MaxArgs: 0,
		RetType:     func([]types.Type) types.Type { return types.Text },
		CostPerCall: 0.01,
		Opaque:      true,
		Eval: func([]types.Datum) (types.Datum, error) {
			s := db.rdb.PlanCacheStats()
			skipped, _ := db.rdb.Pager().ExecStats()
			segScanned, segUnfrozen := db.rdb.Pager().SegStats()
			zoneSkipped, selBatches, _ := db.rdb.Pager().SelStats()
			sortBatches, topnShort, _ := db.rdb.Pager().SortStats()
			snapOpen, snapEpoch, pagesCoW := db.rdb.SnapshotStats()
			return types.NewText(fmt.Sprintf(
				"plan_cache hits=%d misses=%d entries=%d invalidations=%d epoch=%d exec pages_skipped=%d segments_total=%d segment_bytes=%d segments_scanned=%d segment_pages_unfrozen=%d segments_skipped_zonemap=%d sel_vector_batches=%d sort_batches=%d topn_short_circuits=%d snapshots_open=%d snapshot_epoch=%d pages_cow=%d sessions_active=%d",
				s.Hits, s.Misses, s.Entries, s.Invalidations, s.Epoch, skipped,
				db.rdb.FrozenPages(), db.rdb.SegmentBytes(), segScanned, segUnfrozen,
				zoneSkipped, selBatches, sortBatches, topnShort,
				snapOpen, snapEpoch, pagesCoW, db.rdb.SessionsActive())), nil
		},
	})

	// The fused multi-key extraction kernel (§4.1's per-record binary search
	// amortized across keys): the planner collapses co-occurring
	// sinew_extract_* calls over one reservoir column into a single batch
	// operator; the kernel parses each record header once and resolves every
	// (key, type) request in one sorted merge, with dictionary IDs resolved
	// once per query instead of once per row per key.
	db.rdb.RegisterMultiExtract("sinew_extract",
		func(reqs []exec.MultiExtractReq) (exec.MultiExtractKernel, error) {
			// The dictionary IDs are resolved at plan-open time; the
			// extractor's scratch is reused across every row this kernel
			// instance sees (one instance per Open, so no sharing between
			// statements).
			x := newRowExtractor(reqs, db.dict())
			return func(data []types.Datum, out [][]types.Datum) error {
				for i, d := range data {
					if d.IsNull() {
						for k := range out {
							out[k][i] = types.NewNull(reqs[k].Ret)
						}
						continue
					}
					if d.Typ != types.Bytes {
						return fmt.Errorf("sinew: reservoir argument must be bytea, got %v", d.Typ)
					}
					if err := x.row(d.Bytes(), out, i); err != nil {
						return err
					}
				}
				return nil
			}, nil
		})

	// The striped counterpart: when a scan delivers a frozen page's
	// reservoir column as a per-attribute segment (see segment.go), the
	// fused kernel streams typed vectors instead of decoding records.
	db.rdb.RegisterStripedExtract("sinew_extract", db.stripedExtractFactory)

	// The attribute resolver backs page skipping: the planner maps an
	// extraction key to the set of dictionary attribute IDs whose joint
	// absence from a page proves the extraction NULL on every row. A dotted
	// path may be cataloged under the full path or under any prefix (nested
	// objects are stored as a single attribute holding the subtree), so the
	// union over all prefixes is the necessary-presence superset. The
	// result is always non-nil: an empty set means the key exists nowhere
	// in the dictionary, so every summarized page is skippable.
	db.rdb.Funcs().SetAttrResolver(func(key string) []uint32 {
		dict := db.dict()
		ids := []uint32{}
		add := func(k string) {
			for _, a := range dict.IDsOfKey(k) {
				ids = append(ids, a.ID)
			}
		}
		add(key)
		for i := 0; i < len(key); i++ {
			if key[i] == '.' {
				add(key[:i])
			}
		}
		return ids
	})
}

// rowExtractor answers a fused request list one record at a time — the
// row kernel's rows and the striped kernel's fallback rows — through one
// reused Record and datum buffer, so each kernel instance owns one.
type rowExtractor struct {
	pm   *serial.PreparedMulti
	dict serial.Dict
	rec  serial.Record
	vals []types.Datum
}

func newRowExtractor(reqs []exec.MultiExtractReq, dict serial.Dict) *rowExtractor {
	specs := make([]serial.MultiSpec, len(reqs))
	for i, r := range reqs {
		specs[i] = serial.MultiSpec{Path: r.Key, Want: serial.AttrType(r.Type)}
	}
	return &rowExtractor{pm: serial.PrepareMulti(specs, dict), dict: dict, vals: make([]types.Datum, len(reqs))}
}

// row writes row i of every request's output column from the record data.
func (x *rowExtractor) row(data []byte, out [][]types.Datum, i int) error {
	if err := x.rec.Reset(data); err != nil {
		return err
	}
	if err := x.rec.ExtractDatums(x.pm, x.dict, x.vals); err != nil {
		return err
	}
	for k, v := range x.vals {
		out[k][i] = v
	}
	return nil
}

// extractArgs validates the common (data bytea, key text, ...) prefix;
// data nil means the reservoir was NULL.
func extractArgs(args []types.Datum) ([]byte, string, error) {
	if args[1].IsNull() {
		return nil, "", fmt.Errorf("sinew: extraction key must not be NULL")
	}
	if args[1].Typ != types.Text {
		return nil, "", fmt.Errorf("sinew: extraction key must be text, got %v", args[1].Typ)
	}
	if args[0].IsNull() {
		return nil, args[1].Text(), nil
	}
	if args[0].Typ != types.Bytes {
		return nil, "", fmt.Errorf("sinew: reservoir argument must be bytea, got %v", args[0].Typ)
	}
	return args[0].Bytes(), args[1].Text(), nil
}
