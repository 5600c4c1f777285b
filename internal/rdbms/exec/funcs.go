package exec

import (
	"fmt"
	"math"
	"strings"

	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// FuncDef describes a scalar function callable from SQL: built-ins and
// user-defined functions (Sinew's extraction functions, pgjson's
// json_extract, the text-index matches() hook) share this mechanism.
type FuncDef struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 for variadic
	// RetType derives the static result type from argument types; nil
	// means Unknown (dynamically typed).
	RetType func(args []types.Type) types.Type
	// Eval computes the result. Functions are assumed pure.
	Eval func(args []types.Datum) (types.Datum, error)
	// CostPerCall is the optimizer's per-call CPU cost estimate. Built-in
	// operators are ~0.0025; an expensive UDF (JSON text parsing) is far
	// higher, which is how the cost model learns that pgjson scans are
	// CPU-bound.
	CostPerCall float64
	// Opaque marks functions whose result distribution the optimizer knows
	// nothing about; predicates over them get fixed default selectivities
	// (the effect behind Table 2 of the paper).
	Opaque bool
	// FuseFamily, when non-empty, names the multi-extract kernel family this
	// function belongs to: calls of the form f(col, 'key') on the same column
	// can be fused into one batch-level kernel invocation (registered with
	// RegisterMultiExtract) that decodes each record once for all keys.
	FuseFamily string
	// FuseType is the family-specific type tag of this function's requests
	// (serial.AttrType for Sinew's extraction functions).
	FuseType uint8
	// FuseAny marks the family's untyped variant (first value of any type).
	FuseAny bool
	// Volatile marks functions whose result may differ across calls with
	// equal arguments (random(), nextval()-style). Volatile calls pin a
	// pipeline fragment to serial execution: a parallel pipeline would
	// evaluate them in a different interleaving than the serial plan.
	Volatile bool
}

// MultiExtractReq is one (key, type) request of a fused multi-extraction.
type MultiExtractReq struct {
	Key  string
	Type uint8 // family-specific type tag; ignored when Any
	Any  bool
	// Ret is the static SQL type of the output column.
	Ret types.Type
}

// MultiExtractKernel fills out[k][i] with request k evaluated against
// data[i], decoding each record once for every request. out columns are
// pre-sized to len(data) by the caller. Absent or differently-typed keys
// yield typed NULLs, matching the per-call UDF semantics.
type MultiExtractKernel func(data []types.Datum, out [][]types.Datum) error

// MultiExtractFactory builds a kernel instance for a fixed request set.
// Instances may carry scratch state (a reusable parsed record, prepared
// dictionary lookups) and must not be shared across goroutines.
type MultiExtractFactory func(reqs []MultiExtractReq) (MultiExtractKernel, error)

// SegExtractKernel evaluates a fused multi-extraction straight against a
// striped column segment (one frozen page of the data column), filling the
// same out columns a MultiExtractKernel would. handled=false means the
// kernel does not recognize the segment's concrete type; the caller falls
// back to the row kernel over the materialized column. Results must agree
// with the row kernel cell-for-cell.
type SegExtractKernel func(seg storage.ColumnSegment, out [][]types.Datum) (handled bool, err error)

// SegExtractFactory builds a segment kernel for a fixed request set. Like
// MultiExtractFactory instances, kernels carry scratch state and must not
// be shared across goroutines.
type SegExtractFactory func(reqs []MultiExtractReq) (SegExtractKernel, error)

// AttrResolver maps an extraction key (dotted path as written in SQL) to a
// superset of the dictionary attribute IDs whose presence on a heap page is
// necessary for the extraction to yield non-NULL there. The host (core)
// installs it so the planner can turn strict sparse-key predicates into
// page-skip conditions without the plan layer depending on the serializer.
// An empty (non-nil) result means the key appears nowhere in the corpus.
type AttrResolver func(key string) []uint32

// Registry maps lowercase function names to definitions.
type Registry struct {
	funcs    map[string]*FuncDef
	multi    map[string]MultiExtractFactory
	striped  map[string]SegExtractFactory
	resolver AttrResolver
}

// SetAttrResolver installs the page-skip attribute resolver.
func (r *Registry) SetAttrResolver(f AttrResolver) { r.resolver = f }

// AttrResolverFn returns the installed resolver, or nil.
func (r *Registry) AttrResolverFn() AttrResolver { return r.resolver }

// NewRegistry returns a registry preloaded with the built-in functions.
func NewRegistry() *Registry {
	r := &Registry{
		funcs:   make(map[string]*FuncDef),
		multi:   make(map[string]MultiExtractFactory),
		striped: make(map[string]SegExtractFactory),
	}
	for _, f := range builtins() {
		r.funcs[f.Name] = f
	}
	return r
}

// Register adds or replaces a function definition.
func (r *Registry) Register(def *FuncDef) {
	r.funcs[strings.ToLower(def.Name)] = def
}

// Lookup finds a function by (lowercase) name.
func (r *Registry) Lookup(name string) (*FuncDef, bool) {
	def, ok := r.funcs[strings.ToLower(name)]
	return def, ok
}

// RegisterMultiExtract installs the fused-kernel factory of a function
// family (the FuseFamily of its member FuncDefs).
func (r *Registry) RegisterMultiExtract(family string, f MultiExtractFactory) {
	r.multi[family] = f
}

// MultiExtract returns the fused-kernel factory of a family, if one is
// registered.
func (r *Registry) MultiExtract(family string) (MultiExtractFactory, bool) {
	f, ok := r.multi[family]
	return f, ok
}

// RegisterStripedExtract installs the segment-kernel factory of a function
// family: the striped-scan counterpart of RegisterMultiExtract, consulted
// when the data column arrives as a frozen-page ColumnSegment.
func (r *Registry) RegisterStripedExtract(family string, f SegExtractFactory) {
	r.striped[family] = f
}

// StripedExtract returns the segment-kernel factory of a family, if one is
// registered.
func (r *Registry) StripedExtract(family string) (SegExtractFactory, bool) {
	f, ok := r.striped[family]
	return f, ok
}

func fixed(t types.Type) func([]types.Type) types.Type {
	return func([]types.Type) types.Type { return t }
}

func builtins() []*FuncDef {
	return []*FuncDef{
		{
			Name: "coalesce", MinArgs: 1, MaxArgs: -1,
			RetType: func(args []types.Type) types.Type {
				for _, t := range args {
					if t != types.Unknown {
						return t
					}
				}
				return types.Unknown
			},
			Eval: func(args []types.Datum) (types.Datum, error) {
				for _, a := range args {
					if !a.IsNull() {
						return a, nil
					}
				}
				if len(args) > 0 {
					return args[len(args)-1], nil
				}
				return types.NewNull(types.Unknown), nil
			},
			CostPerCall: 0.0025,
		},
		{
			Name: "length", MinArgs: 1, MaxArgs: 1, RetType: fixed(types.Int),
			Eval: func(args []types.Datum) (types.Datum, error) {
				a := args[0]
				if a.IsNull() {
					return types.NewNull(types.Int), nil
				}
				switch a.Typ {
				case types.Text:
					return types.NewInt(int64(len(a.Text()))), nil
				case types.Bytes:
					return types.NewInt(int64(len(a.Bytes()))), nil
				case types.Array:
					return types.NewInt(int64(len(a.Array()))), nil
				default:
					return types.Datum{}, fmt.Errorf("length: unsupported type %v", a.Typ)
				}
			},
			CostPerCall: 0.0025,
		},
		{
			Name: "lower", MinArgs: 1, MaxArgs: 1, RetType: fixed(types.Text),
			Eval: textFunc(strings.ToLower), CostPerCall: 0.01,
		},
		{
			Name: "upper", MinArgs: 1, MaxArgs: 1, RetType: fixed(types.Text),
			Eval: textFunc(strings.ToUpper), CostPerCall: 0.01,
		},
		{
			Name: "abs", MinArgs: 1, MaxArgs: 1,
			RetType: func(args []types.Type) types.Type { return args[0] },
			Eval: func(args []types.Datum) (types.Datum, error) {
				a := args[0]
				if a.IsNull() {
					return a, nil
				}
				switch a.Typ {
				case types.Int:
					if a.I < 0 {
						return types.NewInt(-a.I), nil
					}
					return a, nil
				case types.Float:
					return types.NewFloat(math.Abs(a.Float())), nil
				default:
					return types.Datum{}, fmt.Errorf("abs: unsupported type %v", a.Typ)
				}
			},
			CostPerCall: 0.0025,
		},
		{
			Name: "substr", MinArgs: 2, MaxArgs: 3, RetType: fixed(types.Text),
			Eval: func(args []types.Datum) (types.Datum, error) {
				if args[0].IsNull() || args[1].IsNull() {
					return types.NewNull(types.Text), nil
				}
				s, err := types.Cast(args[0], types.Text)
				if err != nil {
					return types.Datum{}, err
				}
				start, err := types.Cast(args[1], types.Int)
				if err != nil {
					return types.Datum{}, err
				}
				// SQL substr is 1-based.
				from := int(start.I) - 1
				if from < 0 {
					from = 0
				}
				if from > len(s.Text()) {
					return types.NewText(""), nil
				}
				to := len(s.Text())
				if len(args) == 3 && !args[2].IsNull() {
					n, err := types.Cast(args[2], types.Int)
					if err != nil {
						return types.Datum{}, err
					}
					if t := from + int(n.I); t < to {
						to = t
					}
					if to < from {
						to = from
					}
				}
				return types.NewText(s.Text()[from:to]), nil
			},
			CostPerCall: 0.01,
		},
		{
			Name: "array_contains", MinArgs: 2, MaxArgs: 2, RetType: fixed(types.Bool),
			Eval: func(args []types.Datum) (types.Datum, error) {
				arr, v := args[0], args[1]
				if arr.IsNull() || v.IsNull() {
					return types.NewNull(types.Bool), nil
				}
				if arr.Typ != types.Array {
					return types.Datum{}, fmt.Errorf("array_contains: first argument must be an array")
				}
				for _, e := range arr.Array() {
					if types.Equal(e, v) {
						return types.NewBool(true), nil
					}
				}
				return types.NewBool(false), nil
			},
			CostPerCall: 0.02,
		},
		{
			Name: "array_length", MinArgs: 1, MaxArgs: 1, RetType: fixed(types.Int),
			Eval: func(args []types.Datum) (types.Datum, error) {
				a := args[0]
				if a.IsNull() {
					return types.NewNull(types.Int), nil
				}
				if a.Typ != types.Array {
					return types.Datum{}, fmt.Errorf("array_length: argument must be an array")
				}
				return types.NewInt(int64(len(a.Array()))), nil
			},
			CostPerCall: 0.0025,
		},
		{
			Name: "array_get", MinArgs: 2, MaxArgs: 2,
			Eval: func(args []types.Datum) (types.Datum, error) {
				a, idx := args[0], args[1]
				if a.IsNull() || idx.IsNull() {
					return types.NewNull(types.Unknown), nil
				}
				if a.Typ != types.Array {
					return types.Datum{}, fmt.Errorf("array_get: first argument must be an array")
				}
				i, err := types.Cast(idx, types.Int)
				if err != nil {
					return types.Datum{}, err
				}
				elems := a.Array()
				if i.I < 0 || i.I >= int64(len(elems)) {
					return types.NewNull(types.Unknown), nil
				}
				return elems[i.I], nil
			},
			CostPerCall: 0.0025,
		},
	}
}

func textFunc(fn func(string) string) func([]types.Datum) (types.Datum, error) {
	return func(args []types.Datum) (types.Datum, error) {
		if args[0].IsNull() {
			return types.NewNull(types.Text), nil
		}
		s, err := types.Cast(args[0], types.Text)
		if err != nil {
			return types.Datum{}, err
		}
		return types.NewText(fn(s.Text())), nil
	}
}

// AggKind enumerates the supported aggregate functions.
type AggKind uint8

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggFromName resolves an aggregate function name; ok is false for scalar
// functions.
func AggFromName(name string, star bool) (AggKind, bool) {
	switch strings.ToLower(name) {
	case "count":
		if star {
			return AggCountStar, true
		}
		return AggCount, true
	case "sum":
		return AggSum, true
	case "avg":
		return AggAvg, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	}
	return 0, false
}

// IsAggName reports whether name is an aggregate function.
func IsAggName(name string) bool {
	_, ok := AggFromName(name, false)
	return ok
}
