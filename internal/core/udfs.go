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
// shared across parallel pipeline workers, so the scratch cannot live in
// the closure; a pool keeps the per-row append-growth allocations (a ~1 KB
// document regrows its buffer several times from empty) down to one
// amortized buffer per worker.
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
	type extractDef struct {
		name string
		want serial.AttrType
		ret  types.Type
	}
	for _, d := range []extractDef{
		{"sinew_extract_text", serial.TypeString, types.Text},
		{"sinew_extract_int", serial.TypeInt, types.Int},
		{"sinew_extract_real", serial.TypeFloat, types.Float},
		{"sinew_extract_bool", serial.TypeBool, types.Bool},
		{"sinew_extract_array", serial.TypeArray, types.Array},
		{"sinew_extract_doc", serial.TypeObject, types.Bytes},
	} {
		d := d
		db.rdb.RegisterFunc(&exec.FuncDef{
			Name: d.name, MinArgs: 2, MaxArgs: 2,
			RetType:     func([]types.Type) types.Type { return d.ret },
			CostPerCall: extractCost,
			Opaque:      true,
			FuseFamily:  "sinew_extract",
			FuseType:    uint8(d.want),
			Eval: func(args []types.Datum) (types.Datum, error) {
				data, key, err := extractArgs(args)
				if err != nil {
					return types.Datum{}, err
				}
				if data == nil {
					return types.NewNull(d.ret), nil
				}
				v, found, err := serial.ExtractPath(data, key, d.want, db.dict())
				if err != nil {
					return types.Datum{}, err
				}
				if !found {
					// Absent key or mismatched type: NULL, never an error
					// (§3.2.2's graceful multi-type handling).
					return types.NewNull(d.ret), nil
				}
				return datumFromJSON(v, db.dict())
			},
			// Batch entry point: the serialization header of each distinct
			// reservoir value is parsed once per batch and shared across
			// every extract expression via the per-batch record cache,
			// instead of once per expression node per row.
			EvalBatch: func(ctx *exec.UDFBatchCtx, args [][]types.Datum, out []types.Datum) error {
				recs := batchRecords(ctx, args[0])
				rowArgs := make([]types.Datum, 2)
				for i := range out {
					rowArgs[0], rowArgs[1] = args[0][i], args[1][i]
					data, key, err := extractArgs(rowArgs)
					if err != nil {
						return err
					}
					if data == nil {
						out[i] = types.NewNull(d.ret)
						continue
					}
					rec, err := rowRecord(recs, i, data)
					if err != nil {
						return err
					}
					v, found, err := rec.ExtractPath(key, d.want, db.dict())
					if err != nil {
						return err
					}
					if !found {
						out[i] = types.NewNull(d.ret)
						continue
					}
					out[i], err = datumFromJSON(v, db.dict())
					if err != nil {
						return err
					}
				}
				return nil
			},
		})
	}

	// sinew_extract_any: projection with no type constraint — per §3.2.2
	// the value is returned downcast to text, probing each attribute type
	// observed for the key.
	db.rdb.RegisterFunc(&exec.FuncDef{
		Name: "sinew_extract_any", MinArgs: 2, MaxArgs: 2,
		RetType:     func([]types.Type) types.Type { return types.Text },
		CostPerCall: extractCost * 1.5,
		Opaque:      true,
		FuseFamily:  "sinew_extract",
		FuseAny:     true,
		Eval: func(args []types.Datum) (types.Datum, error) {
			data, key, err := extractArgs(args)
			if err != nil {
				return types.Datum{}, err
			}
			if data == nil {
				return types.NewNull(types.Text), nil
			}
			for _, want := range []serial.AttrType{
				serial.TypeString, serial.TypeInt, serial.TypeFloat,
				serial.TypeBool, serial.TypeArray, serial.TypeObject,
			} {
				v, found, err := serial.ExtractPath(data, key, want, db.dict())
				if err != nil {
					return types.Datum{}, err
				}
				if found {
					return types.NewText(v.String()), nil
				}
			}
			return types.NewNull(types.Text), nil
		},
		EvalBatch: func(ctx *exec.UDFBatchCtx, args [][]types.Datum, out []types.Datum) error {
			recs := batchRecords(ctx, args[0])
			rowArgs := make([]types.Datum, 2)
			for i := range out {
				rowArgs[0], rowArgs[1] = args[0][i], args[1][i]
				data, key, err := extractArgs(rowArgs)
				if err != nil {
					return err
				}
				if data == nil {
					out[i] = types.NewNull(types.Text)
					continue
				}
				rec, err := rowRecord(recs, i, data)
				if err != nil {
					return err
				}
				out[i] = types.NewNull(types.Text)
				for _, want := range []serial.AttrType{
					serial.TypeString, serial.TypeInt, serial.TypeFloat,
					serial.TypeBool, serial.TypeArray, serial.TypeObject,
				} {
					v, found, err := rec.ExtractPath(key, want, db.dict())
					if err != nil {
						return err
					}
					if found {
						out[i] = types.NewText(v.String())
						break
					}
				}
			}
			return nil
		},
	})

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

	// sinew_stats() reports runtime counters — the prepared-plan cache plus
	// the executor's page-skip and parallel-worker totals since the last
	// pager reset — as a one-line text summary.
	db.rdb.RegisterFunc(&exec.FuncDef{
		Name: "sinew_stats", MinArgs: 0, MaxArgs: 0,
		RetType:     func([]types.Type) types.Type { return types.Text },
		CostPerCall: 0.01,
		Opaque:      true,
		// Reads global mutable counters: evaluating it from concurrent
		// pipeline workers would interleave with the counters it reports.
		Volatile: true,
		Eval: func([]types.Datum) (types.Datum, error) {
			s := db.rdb.PlanCacheStats()
			skipped, workers := db.rdb.Pager().ExecStats()
			segScanned, segUnfrozen := db.rdb.Pager().SegStats()
			zoneSkipped, selBatches, parStriped := db.rdb.Pager().SelStats()
			sortBatches, topnShort, mergeParts := db.rdb.Pager().SortStats()
			snapOpen, snapEpoch, pagesCoW := db.rdb.SnapshotStats()
			return types.NewText(fmt.Sprintf(
				"plan_cache hits=%d misses=%d entries=%d invalidations=%d epoch=%d exec pages_skipped=%d parallel_workers=%d segments_total=%d segments_scanned=%d segment_pages_unfrozen=%d segments_skipped_zonemap=%d sel_vector_batches=%d parallel_striped_scans=%d sort_batches=%d topn_short_circuits=%d sorted_merge_partitions=%d snapshots_open=%d snapshot_epoch=%d pages_cow=%d sessions_active=%d",
				s.Hits, s.Misses, s.Entries, s.Invalidations, s.Epoch, skipped, workers,
				db.rdb.FrozenPages(), segScanned, segUnfrozen,
				zoneSkipped, selBatches, parStriped,
				sortBatches, topnShort, mergeParts,
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
			specs := make([]serial.MultiSpec, len(reqs))
			rets := make([]types.Type, len(reqs))
			for i, r := range reqs {
				specs[i] = serial.MultiSpec{Path: r.Key, Want: serial.AttrType(r.Type), Any: r.Any}
				rets[i] = r.Ret
			}
			dict := db.dict()
			// PrepareMulti resolves dictionary IDs at plan-open time; the
			// scratch Record and value buffers are reused across every row
			// this kernel instance sees (one instance per Open, so no
			// cross-goroutine sharing).
			pm := serial.PrepareMulti(specs, dict)
			var rec serial.Record
			vals := make([]jsonx.Value, len(reqs))
			found := make([]bool, len(reqs))
			return func(data []types.Datum, out [][]types.Datum) error {
				for i := range data {
					d := data[i]
					if d.IsNull() {
						for k := range out {
							out[k][i] = types.NewNull(rets[k])
						}
						continue
					}
					if d.Typ != types.Bytes {
						return fmt.Errorf("sinew: reservoir argument must be bytea, got %v", d.Typ)
					}
					if err := rec.Reset(d.Bytes()); err != nil {
						return err
					}
					if err := rec.MultiExtract(pm, dict, vals, found); err != nil {
						return err
					}
					for k := range out {
						switch {
						case !found[k]:
							out[k][i] = types.NewNull(rets[k])
						case reqs[k].Any:
							out[k][i] = types.NewText(vals[k].String())
						default:
							dm, err := datumFromJSON(vals[k], dict)
							if err != nil {
								return err
							}
							out[k][i] = dm
						}
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

// batchRecords returns the per-batch parsed-record slots for the reservoir
// column col: one slot per row, shared by every extract expression reading
// the same column in this batch. The slice is keyed by the column's first
// element address (batch columns are aliased, not copied, between extract
// expressions) and cleared by BeginBatch. A single map lookup per batch
// replaces a per-row parse in every extract expression after the first.
func batchRecords(ctx *exec.UDFBatchCtx, col []types.Datum) []*serial.Record {
	if len(col) == 0 {
		return nil
	}
	if ctx.Cache == nil {
		ctx.Cache = make(map[any]any)
	}
	key := &col[0]
	if v, ok := ctx.Cache[key].([]*serial.Record); ok && len(v) >= len(col) {
		return v
	}
	recs := make([]*serial.Record, len(col))
	ctx.Cache[key] = recs
	return recs
}

// rowRecord parses the record for row i, memoizing it in recs.
func rowRecord(recs []*serial.Record, i int, data []byte) (*serial.Record, error) {
	if rec := recs[i]; rec != nil {
		return rec, nil
	}
	rec, err := serial.ParseRecord(data)
	if err != nil {
		return nil, err
	}
	recs[i] = rec
	return rec, nil
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
