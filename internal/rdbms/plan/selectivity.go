package plan

import (
	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Config holds the optimizer's cost constants and default selectivities.
// The defaults mirror Postgres where the paper depends on them; most
// importantly DefaultEqRows: a predicate over an expression the optimizer
// has no statistics for (UDF calls such as Sinew's extract_key, i.e.
// virtual columns) is estimated at a fixed 200 rows regardless of the true
// selectivity — §3.1.1 ("the optimizer assumes a fixed selectivity for
// queries over virtual columns (200 rows out of 10 million)").
//
// One field is a session variable (SET, part of the plan-cache key):
// EnableBatch. It is kept because something needs its other position —
// the reference plan (EnableBatch off) is the "want" side of every
// differential test and the benchmark's oracle. What the executor does the
// same way for every statement (rows per batch, aliasing frozen pages, one
// goroutine) is not configuration.
type Config struct {
	// SeqPageCostPerByte converts scanned bytes into cost units
	// (Postgres seq_page_cost=1.0 per 8 KB page).
	SeqPageCostPerByte float64
	// CPUTupleCost is charged per row processed by an operator.
	CPUTupleCost float64
	// CPUOperatorCost is charged per primitive expression evaluation.
	CPUOperatorCost float64
	// DefaultEqRows is the absolute row estimate for equality over opaque
	// expressions or un-analyzed columns.
	DefaultEqRows float64
	// DefaultIneqSel is the selectivity of a single inequality without
	// usable statistics (Postgres DEFAULT_INEQ_SEL).
	DefaultIneqSel float64
	// DefaultRangeSel is the selectivity of a closed range (BETWEEN)
	// without statistics (Postgres DEFAULT_RANGE_INEQ_SEL).
	DefaultRangeSel float64
	// DefaultMatchSel is the selectivity of LIKE / containment predicates
	// without statistics.
	DefaultMatchSel float64
	// DefaultNDistinct is the assumed distinct count of an opaque grouping
	// or join key.
	DefaultNDistinct float64
	// DefaultNullFrac is the assumed NULL fraction without statistics.
	DefaultNullFrac float64
	// HashAggMaxGroups caps the estimated group count for which a hash
	// aggregate is considered to fit in working memory; beyond it the
	// planner switches to sort-based grouping (Postgres work_mem).
	HashAggMaxGroups float64
	// HashJoinMaxBuildRows caps the estimated build-side size for hash
	// joins; beyond it the planner uses a merge join.
	HashJoinMaxBuildRows float64
	// EnableBatch applies the plan shortcuts — Top-N, fused extraction,
	// segment kernels and compiled selection filters, column pruning and
	// page skipping. Off, PlanSelect returns the reference plan: the same
	// tree of the same batch operators with none of them. Session knob: SET enable_batch = on|off (the name
	// predates the one operator set).
	EnableBatch bool
}

// DefaultConfig returns Postgres-flavoured defaults.
func DefaultConfig() *Config {
	return &Config{
		SeqPageCostPerByte:   1.0 / 8192,
		CPUTupleCost:         0.01,
		CPUOperatorCost:      0.0025,
		DefaultEqRows:        200,
		DefaultIneqSel:       1.0 / 3,
		DefaultRangeSel:      0.005,
		DefaultMatchSel:      0.005,
		DefaultNDistinct:     200,
		DefaultNullFrac:      0.005,
		HashAggMaxGroups:     10000,
		HashJoinMaxBuildRows: 1 << 20,
		EnableBatch:          true,
	}
}

// estimator computes selectivities for bound predicates over a layout.
type estimator struct {
	cfg    *Config
	layout *Layout
	rows   float64 // input row estimate the predicate applies to
	// b is the statement's parameter binding: a parameter is a constant of
	// its bound value, and reading it is recorded. Nil outside PlanSelect.
	b *binding
}

// estimator returns an estimator over layout for rows input rows that
// reads the statement's parameters.
func (p *Planner) estimator(layout *Layout, rows float64) *estimator {
	return &estimator{cfg: p.Cfg, layout: layout, rows: rows, b: &p.b}
}

// selectivity estimates the fraction of rows satisfying the (normalized)
// conjunct e.
func (es *estimator) selectivity(e sqlparse.Expr) float64 {
	switch x := e.(type) {
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case sqlparse.OpAnd:
			return es.selectivity(x.L) * es.selectivity(x.R)
		case sqlparse.OpOr:
			sl, sr := es.selectivity(x.L), es.selectivity(x.R)
			return sl + sr - sl*sr
		case sqlparse.OpEq:
			return es.eqSelectivity(x.L, x.R)
		case sqlparse.OpNe:
			return clampSel(1 - es.eqSelectivity(x.L, x.R))
		case sqlparse.OpLt, sqlparse.OpLe:
			return es.rangeSelectivity(x.L, x.R, true)
		case sqlparse.OpGt, sqlparse.OpGe:
			return es.rangeSelectivity(x.L, x.R, false)
		default:
			return 0.5
		}
	case *sqlparse.UnaryExpr:
		if x.Op == "NOT" {
			return clampSel(1 - es.selectivity(x.X))
		}
		return 0.5
	case *sqlparse.IsNullExpr:
		nf := es.nullFrac(x.X)
		if x.Not {
			return clampSel(1 - nf)
		}
		return clampSel(nf)
	case *sqlparse.BetweenExpr:
		return es.betweenSelectivity(x)
	case *sqlparse.InListExpr:
		s := 0.0
		for _, v := range x.List {
			s += es.eqSelectivity(x.X, v)
		}
		if x.Not {
			s = 1 - s
		}
		return clampSel(s)
	case *sqlparse.LikeExpr:
		if x.Not {
			return clampSel(1 - es.cfg.DefaultMatchSel)
		}
		return es.cfg.DefaultMatchSel
	case *sqlparse.AnyExpr:
		return es.cfg.DefaultMatchSel
	case *sqlparse.FuncCall:
		// Boolean function call as a predicate (e.g. array_contains,
		// matches): opaque.
		return es.cfg.DefaultMatchSel
	case *sqlparse.Literal:
		if !x.Val.IsNull() && x.Val.Typ == types.Bool {
			if x.Val.Bool() {
				return 1
			}
			return 0
		}
		return 0
	default:
		return 0.5
	}
}

// colInfo resolves e to a base column's statistics when e is a direct
// column reference of an analyzed table. opaque is true when the
// expression contains a stats-opaque function call (a UDF such as
// extract_key) — these never get real statistics.
func (es *estimator) colInfo(e sqlparse.Expr) (stats *storage.ColumnStats, opaque bool) {
	switch x := e.(type) {
	case *sqlparse.ColumnRef:
		idx, err := es.layout.Resolve(x.Table, x.Name)
		if err != nil {
			return nil, false
		}
		return es.layout.Cols[idx].Stats, false
	case *sqlparse.CastExpr:
		return es.colInfo(x.X)
	case *sqlparse.FuncCall:
		if x.Name == "coalesce" && len(x.Args) > 0 {
			// COALESCE(col, extract(...)) — the dirty-column rewrite. Its
			// distribution is the column's, but the optimizer cannot know
			// that; Postgres treats it as opaque, and so do we.
			return nil, true
		}
		return nil, true
	default:
		// Look for any function call inside.
		op := false
		sqlparse.WalkExpr(e, func(n sqlparse.Expr) bool {
			if _, ok := n.(*sqlparse.FuncCall); ok {
				op = true
				return false
			}
			return true
		})
		return nil, op
	}
}

// isConst reports whether e is a constant, and its value: a literal, a
// bound parameter (whose value the estimate then depends on), or a cast or
// negation of one.
func (es *estimator) isConst(e sqlparse.Expr) (types.Datum, bool) {
	switch x := e.(type) {
	case *sqlparse.Literal:
		return x.Val, true
	case *sqlparse.Param:
		if es.b == nil || x.Slot < 0 || x.Slot >= len(es.b.vals) {
			return types.Datum{}, false
		}
		es.b.read = true
		return es.b.vals[x.Slot], true
	case *sqlparse.CastExpr:
		if d, ok := es.isConst(x.X); ok {
			if cast, err := types.Cast(d, x.To); err == nil {
				return cast, true
			}
		}
	case *sqlparse.UnaryExpr:
		if x.Op == "-" {
			if d, ok := es.isConst(x.X); ok && d.IsNumeric() {
				if d.Typ == types.Int {
					return types.NewInt(-d.I), true
				}
				return types.NewFloat(-d.Float()), true
			}
		}
	}
	return types.Datum{}, false
}

// eqSelectivity estimates expr = expr.
func (es *estimator) eqSelectivity(l, r sqlparse.Expr) float64 {
	// Normalize to column-ish on the left, constant on the right.
	if _, lconst := es.isConst(l); lconst {
		l, r = r, l
	}
	cval, rconst := es.isConst(r)
	stats, _ := es.colInfo(l)
	if rconst {
		if stats != nil && stats.RowCount > 0 {
			// MCV hit gives the exact frequency; otherwise spread the
			// non-MCV mass over remaining distincts.
			var mcvTotal float64
			for _, m := range stats.MCVs {
				mcvTotal += m.Freq
				if types.Equal(m.Val, cval) {
					return clampSel(m.Freq)
				}
			}
			nd := float64(stats.NDistinct) - float64(len(stats.MCVs))
			if nd < 1 {
				nd = 1
			}
			nullFrac := float64(stats.NullCount) / float64(stats.RowCount)
			rest := 1 - nullFrac - mcvTotal
			if rest < 0 {
				rest = 0
			}
			return clampSel(rest / nd)
		}
		// Opaque or un-analyzed: the fixed default row estimate.
		return es.defaultEqSel()
	}
	// column = column (within one relation or a residual join condition).
	ndL := es.ndistinct(l)
	ndR := es.ndistinct(r)
	nd := ndL
	if ndR > nd {
		nd = ndR
	}
	if nd < 1 {
		nd = 1
	}
	return clampSel(1 / nd)
}

func (es *estimator) defaultEqSel() float64 {
	if es.rows <= 0 {
		return 0.005
	}
	return clampSel(es.cfg.DefaultEqRows / es.rows)
}

// rangeSelectivity estimates expr < const (lt=true) or expr > const using
// min/max interpolation when numeric statistics exist.
func (es *estimator) rangeSelectivity(l, r sqlparse.Expr, lt bool) float64 {
	if _, lconst := es.isConst(l); lconst {
		l, r = r, l
		lt = !lt
	}
	cval, rconst := es.isConst(r)
	if !rconst {
		return es.cfg.DefaultIneqSel
	}
	stats, _ := es.colInfo(l)
	if stats == nil || !stats.HasMinMax {
		return es.cfg.DefaultIneqSel
	}
	frac, ok := interpolate(stats, cval)
	if !ok {
		return es.cfg.DefaultIneqSel
	}
	if lt {
		return clampSel(frac)
	}
	return clampSel(1 - frac)
}

func (es *estimator) betweenSelectivity(b *sqlparse.BetweenExpr) float64 {
	lo, loConst := es.isConst(b.Lo)
	hi, hiConst := es.isConst(b.Hi)
	stats, _ := es.colInfo(b.X)
	sel := es.cfg.DefaultRangeSel
	if stats != nil && stats.HasMinMax && loConst && hiConst {
		fLo, okLo := interpolate(stats, lo)
		fHi, okHi := interpolate(stats, hi)
		if okLo && okHi {
			sel = clampSel(fHi - fLo)
		}
	}
	if b.Not {
		sel = 1 - sel
	}
	return clampSel(sel)
}

// interpolate computes the fraction of the column's [min,max] span below v.
func interpolate(stats *storage.ColumnStats, v types.Datum) (float64, bool) {
	minF, ok1 := stats.Min.Float64()
	maxF, ok2 := stats.Max.Float64()
	vF, ok3 := v.Float64()
	if !ok1 || !ok2 || !ok3 {
		return 0, false
	}
	if maxF <= minF {
		if vF >= maxF {
			return 1, true
		}
		return 0, true
	}
	f := (vF - minF) / (maxF - minF)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f, true
}

// nullFrac estimates the NULL fraction of e.
func (es *estimator) nullFrac(e sqlparse.Expr) float64 {
	stats, opaque := es.colInfo(e)
	if stats != nil && stats.RowCount > 0 {
		return float64(stats.NullCount) / float64(stats.RowCount)
	}
	if opaque {
		// Virtual-column extraction: the optimizer has no idea how sparse
		// the key is; Postgres assumes almost nothing is NULL.
		return es.cfg.DefaultNullFrac
	}
	return es.cfg.DefaultNullFrac
}

// ndistinct estimates the number of distinct values of e, used for
// grouping and join cardinality. Opaque expressions get the fixed default
// (200), which is what flips HashAggregate/Unique in Table 2.
func (es *estimator) ndistinct(e sqlparse.Expr) float64 {
	stats, _ := es.colInfo(e)
	if stats != nil && stats.NDistinct > 0 {
		return float64(stats.NDistinct)
	}
	return es.cfg.DefaultNDistinct
}

func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// exprCostOf sums compiled-expression evaluation costs (per row).
func exprCostOf(preds []exec.Expr) float64 {
	var c float64
	for _, p := range preds {
		c += p.Cost()
	}
	return c
}
