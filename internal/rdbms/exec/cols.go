package exec

// ColumnsUsed calls add with the index of every input column e reads and
// reports whether the expression tree was fully understood. A false return
// means an unknown node type was encountered, so the caller must assume
// the expression may read any column. The planner uses this to push
// referenced-column sets into batch scans (scan column pruning).
func ColumnsUsed(e Expr, add func(int)) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *ColExpr:
		add(x.Idx)
		return true
	case *ConstExpr, *ParamExpr:
		return true
	case *BinExpr:
		return ColumnsUsed(x.L, add) && ColumnsUsed(x.R, add)
	case *NotExpr:
		return ColumnsUsed(x.X, add)
	case *NegExpr:
		return ColumnsUsed(x.X, add)
	case *IsNullExpr:
		return ColumnsUsed(x.X, add)
	case *BetweenExpr:
		return ColumnsUsed(x.X, add) && ColumnsUsed(x.Lo, add) && ColumnsUsed(x.Hi, add)
	case *InListExpr:
		if !ColumnsUsed(x.X, add) {
			return false
		}
		for _, a := range x.List {
			if !ColumnsUsed(a, add) {
				return false
			}
		}
		return true
	case *LikeExpr:
		return ColumnsUsed(x.X, add) && ColumnsUsed(x.Pattern, add)
	case *AnyExpr:
		return ColumnsUsed(x.X, add) && ColumnsUsed(x.Array, add)
	case *CastExpr:
		return ColumnsUsed(x.X, add)
	case *CoalesceExpr:
		for _, a := range x.Args {
			if !ColumnsUsed(a, add) {
				return false
			}
		}
		return true
	case *CallExpr:
		for _, a := range x.Args {
			if !ColumnsUsed(a, add) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
