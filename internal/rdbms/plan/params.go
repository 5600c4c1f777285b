package plan

import (
	"math"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// A cached statement shape (sqlparse.ScanShape) is planned once, with the
// values of its first execution, and run with every later execution's
// values bound at open. That is right only while no plan choice depends on
// the value, so PlanSelect records, in the plan's ValueDependent, whether
// any did:
//
//   - a join of two or more relations whose estimates read a parameter
//     (join order and algorithm follow the row estimates);
//   - a hash-or-sort choice for GROUP BY or DISTINCT whose group bound,
//     ignoring the parameterized conjuncts — n_distinct capped by the
//     tables' rows, which no value's estimate exceeds — does not fit the
//     hash table when an estimate read a parameter;
//   - a parameter the batch operators would only evaluate row by row,
//     through a bound copy per open (rowPathParam), or outside a scan or
//     filter.
//
// The cache runs a value-dependent statement from a plan of its literal
// text instead — exactly the plan it had before shapes existed.

// binding is one PlanSelect's view of the statement's parameters.
type binding struct {
	vals []types.Datum
	// read records that an estimate read a parameter's value.
	read bool
	// tableRows is the product of the FROM tables' row counts: no row
	// estimate of the statement exceeds it, whatever the values.
	tableRows float64
	// dependent marks a plan another value could change.
	dependent bool
}

// checkGroupChoice records whether the hash-or-sort choice over an
// estimated nd distinct groups holds for every value: it does when no
// estimate read a parameter, or when the bound ignoring them picks the
// hash table — every value's estimate is at most the bound.
func (b *binding) checkGroupChoice(nd, maxGroups float64) {
	if b.read && math.Min(nd, math.Max(b.tableRows, 1)) > maxGroups {
		b.dependent = true
	}
}

// paramsCovered reports whether every parameter in the plan under n is
// read where the batch operators bind it without a row-wise copy: in a
// scan's or a filter's conjuncts, under nodes the batch evaluator
// evaluates a column at a time. Parameters come from WHERE, so the only
// other place they can land is a join's keys and conditions.
func paramsCovered(n Node) bool {
	var exprs []exec.Expr
	rowPath := true
	switch x := n.(type) {
	case *ScanNode:
		exprs, rowPath = x.Preds, false
	case *FilterNode:
		exprs, rowPath = x.Preds, false
	case *HashJoinNode:
		exprs = append(append(append(exprs, x.ProbeKeys...), x.BuildKeys...), x.Residual...)
	case *MergeJoinNode:
		exprs = append(append(append(exprs, x.LeftKeys...), x.RightKeys...), x.Residual...)
	case *NestedLoopNode:
		exprs = x.Cond
	}
	for _, e := range exprs {
		if rowPathParam(e, rowPath) {
			return false
		}
	}
	for _, c := range n.Children() {
		if !paramsCovered(c) {
			return false
		}
	}
	return true
}

// rowPathParam reports whether e holds a parameter the batch evaluator
// (exec.EvalBatch) reaches only row by row — under AND or OR, COALESCE,
// an IN list, or a negation, whose error path re-evaluates the row — or
// any parameter at all when rowPath is already set.
func rowPathParam(e exec.Expr, rowPath bool) bool {
	switch x := e.(type) {
	case *exec.ParamExpr:
		return rowPath
	case *exec.BinExpr:
		rp := rowPath || x.Op == "AND" || x.Op == "OR"
		return rowPathParam(x.L, rp) || rowPathParam(x.R, rp)
	case *exec.NegExpr:
		return rowPathParam(x.X, true)
	case *exec.NotExpr:
		return rowPathParam(x.X, rowPath)
	case *exec.IsNullExpr:
		return rowPathParam(x.X, rowPath)
	case *exec.CastExpr:
		return rowPathParam(x.X, rowPath)
	case *exec.BetweenExpr:
		return rowPathParam(x.X, rowPath) || rowPathParam(x.Lo, rowPath) || rowPathParam(x.Hi, rowPath)
	case *exec.LikeExpr:
		return rowPathParam(x.X, rowPath) || rowPathParam(x.Pattern, rowPath)
	case *exec.AnyExpr:
		return rowPathParam(x.X, rowPath) || rowPathParam(x.Array, rowPath)
	case *exec.CallExpr:
		return anyRowPathParam(x.Args, rowPath)
	case *exec.InListExpr:
		return rowPathParam(x.X, true) || anyRowPathParam(x.List, true)
	case *exec.CoalesceExpr:
		return anyRowPathParam(x.Args, true)
	default:
		return false
	}
}

func anyRowPathParam(es []exec.Expr, rowPath bool) bool {
	for _, e := range es {
		if rowPathParam(e, rowPath) {
			return true
		}
	}
	return false
}
