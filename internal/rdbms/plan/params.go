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
//   - a parameter outside a scan's or a filter's conjuncts — in a join's
//     keys or condition — where no operator reads it at open.
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
// read where the batch operators bind it at open: in a scan's or a
// filter's conjuncts. Parameters come from WHERE, so the only other place
// they can land is a join's keys and conditions.
func paramsCovered(n Node) bool {
	var exprs []exec.Expr
	switch x := n.(type) {
	case *HashJoinNode:
		exprs = append(append(append(exprs, x.ProbeKeys...), x.BuildKeys...), x.Residual...)
	case *MergeJoinNode:
		exprs = append(append(append(exprs, x.LeftKeys...), x.RightKeys...), x.Residual...)
	case *NestedLoopNode:
		exprs = x.Cond
	}
	if anyParam(exprs) {
		return false
	}
	for _, c := range n.Children() {
		if !paramsCovered(c) {
			return false
		}
	}
	return true
}

// hasParam reports whether e holds a parameter.
func hasParam(e exec.Expr) bool {
	switch x := e.(type) {
	case *exec.ParamExpr:
		return true
	case *exec.BinExpr:
		return hasParam(x.L) || hasParam(x.R)
	case *exec.NegExpr:
		return hasParam(x.X)
	case *exec.NotExpr:
		return hasParam(x.X)
	case *exec.IsNullExpr:
		return hasParam(x.X)
	case *exec.CastExpr:
		return hasParam(x.X)
	case *exec.BetweenExpr:
		return hasParam(x.X) || hasParam(x.Lo) || hasParam(x.Hi)
	case *exec.LikeExpr:
		return hasParam(x.X) || hasParam(x.Pattern)
	case *exec.AnyExpr:
		return hasParam(x.X) || hasParam(x.Array)
	case *exec.CallExpr:
		return anyParam(x.Args)
	case *exec.InListExpr:
		return hasParam(x.X) || anyParam(x.List)
	case *exec.CoalesceExpr:
		return anyParam(x.Args)
	default:
		return false
	}
}

func anyParam(es []exec.Expr) bool {
	for _, e := range es {
		if hasParam(e) {
			return true
		}
	}
	return false
}
