package plan

import (
	"fmt"
	"math"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// aggEnv rewrites post-aggregation expressions: occurrences of a GROUP BY
// key become references to the aggregate output's group columns, and
// aggregate calls become references to its aggregate columns. Anything
// else that still touches a base column is an error ("must appear in the
// GROUP BY clause").
type aggEnv struct {
	groupKeys  []sqlparse.Expr       // normalized group expressions
	groupRefs  []*sqlparse.ColumnRef // post-agg references, one per key
	groupByKey map[string]int

	aggCalls []*sqlparse.FuncCall // unique aggregate calls in input order
	aggByKey map[string]int
}

func newAggEnv(groupKeys []sqlparse.Expr) *aggEnv {
	env := &aggEnv{
		groupKeys:  groupKeys,
		groupByKey: make(map[string]int),
		aggByKey:   make(map[string]int),
	}
	for i, g := range groupKeys {
		env.groupByKey[exprKey(g)] = i
		if cr, ok := g.(*sqlparse.ColumnRef); ok {
			env.groupRefs = append(env.groupRefs, &sqlparse.ColumnRef{Table: cr.Table, Name: cr.Name})
		} else {
			env.groupRefs = append(env.groupRefs, &sqlparse.ColumnRef{Table: "", Name: fmt.Sprintf("$g%d", i)})
		}
	}
	return env
}

// aggRef returns the post-agg reference for aggregate call index j.
func aggRef(j int) *sqlparse.ColumnRef {
	return &sqlparse.ColumnRef{Name: fmt.Sprintf("$a%d", j)}
}

// rewrite maps a normalized expression into post-aggregation space,
// registering aggregate calls as it goes.
func (env *aggEnv) rewrite(e sqlparse.Expr) (sqlparse.Expr, error) {
	if e == nil {
		return nil, nil
	}
	if i, ok := env.groupByKey[exprKey(e)]; ok {
		return env.groupRefs[i], nil
	}
	switch x := e.(type) {
	case *sqlparse.FuncCall:
		if exec.IsAggName(x.Name) {
			key := exprKey(x)
			j, ok := env.aggByKey[key]
			if !ok {
				j = len(env.aggCalls)
				env.aggByKey[key] = j
				env.aggCalls = append(env.aggCalls, x)
			}
			return aggRef(j), nil
		}
		args := make([]sqlparse.Expr, len(x.Args))
		for i, a := range x.Args {
			ra, err := env.rewrite(a)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return &sqlparse.FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}, nil
	case *sqlparse.ColumnRef:
		return nil, fmt.Errorf("plan: column %q must appear in the GROUP BY clause or be used in an aggregate function", displayRef(x))
	case *sqlparse.Literal:
		return x, nil
	case *sqlparse.BinaryExpr:
		l, err := env.rewrite(x.L)
		if err != nil {
			return nil, err
		}
		r, err := env.rewrite(x.R)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *sqlparse.UnaryExpr:
		sub, err := env.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		return &sqlparse.UnaryExpr{Op: x.Op, X: sub}, nil
	case *sqlparse.IsNullExpr:
		sub, err := env.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		return &sqlparse.IsNullExpr{X: sub, Not: x.Not}, nil
	case *sqlparse.BetweenExpr:
		sub, err := env.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := env.rewrite(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := env.rewrite(x.Hi)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BetweenExpr{X: sub, Lo: lo, Hi: hi, Not: x.Not}, nil
	case *sqlparse.InListExpr:
		sub, err := env.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		list := make([]sqlparse.Expr, len(x.List))
		for i, a := range x.List {
			ra, err := env.rewrite(a)
			if err != nil {
				return nil, err
			}
			list[i] = ra
		}
		return &sqlparse.InListExpr{X: sub, List: list, Not: x.Not}, nil
	case *sqlparse.LikeExpr:
		sub, err := env.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		pat, err := env.rewrite(x.Pattern)
		if err != nil {
			return nil, err
		}
		return &sqlparse.LikeExpr{X: sub, Pattern: pat, Not: x.Not}, nil
	case *sqlparse.AnyExpr:
		sub, err := env.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		arr, err := env.rewrite(x.Array)
		if err != nil {
			return nil, err
		}
		return &sqlparse.AnyExpr{X: sub, Op: x.Op, Array: arr}, nil
	case *sqlparse.CastExpr:
		sub, err := env.rewrite(x.X)
		if err != nil {
			return nil, err
		}
		return &sqlparse.CastExpr{X: sub, To: x.To}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T after aggregation", e)
	}
}

func displayRef(cr *sqlparse.ColumnRef) string {
	if cr.Table != "" {
		return cr.Table + "." + cr.Name
	}
	return cr.Name
}

// planAggregation inserts the aggregation operator (hash or sort-based,
// chosen from the estimated group count — the Table 2 decision), the HAVING
// filter, and returns the rewritten item and ORDER BY ASTs together with
// the post-aggregation layout.
func (p *Planner) planAggregation(
	cur Node, curLayout *Layout,
	groupBy []sqlparse.Expr, having sqlparse.Expr,
	items []sqlparse.Expr, orderBy []sqlparse.OrderItem,
) (Node, *Layout, []sqlparse.Expr, []sqlparse.OrderItem, error) {
	env := newAggEnv(groupBy)

	// Rewrite items, HAVING, ORDER BY into post-agg space (registering
	// aggregate calls).
	outItems := make([]sqlparse.Expr, len(items))
	for i, it := range items {
		r, err := env.rewrite(it)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		outItems[i] = r
	}
	var havingOut sqlparse.Expr
	if having != nil {
		r, err := env.rewrite(having)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		havingOut = r
	}
	outOrder := make([]sqlparse.OrderItem, len(orderBy))
	for i, o := range orderBy {
		r, err := env.rewrite(o.Expr)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		outOrder[i] = sqlparse.OrderItem{Expr: r, Desc: o.Desc}
	}

	// Compile group keys and aggregate arguments against the input layout.
	groupExprs := make([]exec.Expr, len(groupBy))
	for i, g := range groupBy {
		ge, err := CompileExpr(g, curLayout, p.Funcs, "GROUP BY")
		if err != nil {
			return nil, nil, nil, nil, err
		}
		groupExprs[i] = ge
	}
	aggSpecs := make([]*exec.AggSpec, len(env.aggCalls))
	for j, call := range env.aggCalls {
		kind, _ := exec.AggFromName(call.Name, call.Star)
		spec := &exec.AggSpec{Kind: kind, Distinct: call.Distinct}
		if !call.Star {
			if len(call.Args) != 1 {
				return nil, nil, nil, nil, fmt.Errorf("plan: aggregate %s() takes exactly one argument", call.Name)
			}
			arg, err := CompileExpr(call.Args[0], curLayout, p.Funcs, "aggregate")
			if err != nil {
				return nil, nil, nil, nil, err
			}
			spec.Arg = arg
		}
		aggSpecs[j] = spec
	}

	// Post-aggregation layout: group columns then aggregate columns.
	aggLayout := &Layout{}
	for i, ref := range env.groupRefs {
		aggLayout.Cols = append(aggLayout.Cols, LayoutCol{
			Table: ref.Table, Name: ref.Name, Typ: groupExprs[i].Type(),
		})
	}
	for j, call := range env.aggCalls {
		typ := aggResultType(call, aggSpecs[j])
		aggLayout.Cols = append(aggLayout.Cols, LayoutCol{Name: fmt.Sprintf("$a%d", j), Typ: typ})
	}

	// Estimate group count and choose the operator.
	es := p.estimator(curLayout, cur.Rows())
	nGroups := 1.0
	for _, g := range groupBy {
		nGroups *= es.ndistinct(g)
	}
	if len(groupBy) > 0 {
		p.b.checkGroupChoice(nGroups, p.Cfg.HashAggMaxGroups)
	}
	nGroups = math.Min(nGroups, math.Max(cur.Rows(), 1))
	aggLayout.Rows = nGroups

	ct, co := p.Cfg.CPUTupleCost, p.Cfg.CPUOperatorCost
	aggEvalCost := exprCostOf(groupExprs)
	for _, s := range aggSpecs {
		if s.Arg != nil {
			aggEvalCost += s.Arg.Cost()
		}
	}
	if len(groupBy) == 0 || nGroups <= p.Cfg.HashAggMaxGroups {
		cur = &HashAggNode{
			baseNode: baseNode{layout: aggLayout, rows: nGroups,
				cost: cur.Cost() + cur.Rows()*(ct+aggEvalCost) + nGroups*co},
			Child: cur, GroupBy: groupExprs, Aggs: aggSpecs,
		}
	} else {
		keys := make([]exec.SortKey, len(groupExprs))
		for i, g := range groupExprs {
			keys[i] = exec.SortKey{Expr: g}
		}
		sorted := p.newSort(cur, curLayout, keys)
		cur = &GroupAggNode{
			baseNode: baseNode{layout: aggLayout, rows: nGroups,
				cost: sorted.Cost() + cur.Rows()*(ct+aggEvalCost)},
			Child: sorted, GroupBy: groupExprs, Aggs: aggSpecs,
		}
	}

	// HAVING filter.
	if havingOut != nil {
		pred, err := CompileExpr(havingOut, aggLayout, p.Funcs, "HAVING")
		if err != nil {
			return nil, nil, nil, nil, err
		}
		cur = &FilterNode{
			baseNode: baseNode{layout: aggLayout, rows: math.Max(cur.Rows()/3, 1),
				cost: cur.Cost() + cur.Rows()*(ct+pred.Cost())},
			Child: cur, Preds: []exec.Expr{pred},
			filter: exec.CompileSelFilter([]exec.Expr{pred}, len(aggLayout.Cols), nil, nil),
		}
	}
	return cur, aggLayout, outItems, outOrder, nil
}

func aggResultType(call *sqlparse.FuncCall, spec *exec.AggSpec) typesType {
	switch spec.Kind {
	case exec.AggCount, exec.AggCountStar:
		return intType
	case exec.AggAvg:
		return floatType
	case exec.AggSum:
		if spec.Arg != nil {
			return spec.Arg.Type()
		}
		return unknownType
	default: // MIN/MAX keep the argument type
		if spec.Arg != nil {
			return spec.Arg.Type()
		}
		return unknownType
	}
}

// Local aliases keep aggResultType terse.
type typesType = types.Type

var (
	intType     = types.Int
	floatType   = types.Float
	unknownType = types.Unknown
)
