// Package exec implements the runtime of the embedded RDBMS: compiled
// scalar expressions and one set of batch-at-a-time operators (scan,
// filter, project, sort, Top-N, aggregate, join, limit), plus the four
// row-at-a-time operators that have no batch form (Unique, GroupAggregate,
// Merge Join, Nested Loop) behind adapters. Plans are built by the plan
// package and evaluated here, each statement on the goroutine that issued
// it.
package exec

import (
	"fmt"
	"regexp"
	"strings"
	"sync"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Expr is a compiled scalar expression over the columns of an executor
// row, evaluated a batch at a time by EvalBatch.
type Expr interface {
	// Type is the statically derived result type (Unknown when dynamic).
	Type() types.Type
	// Cost is the estimated per-row evaluation cost in abstract CPU units,
	// used by the optimizer (UDF calls dominate).
	Cost() float64
	// String renders the expression for EXPLAIN output.
	String() string
}

// ---------- Column and constant ----------

// ColExpr reads column Idx of the executor row.
type ColExpr struct {
	Idx  int
	Typ  types.Type
	Name string // display name for EXPLAIN
}

// Type implements Expr.
func (c *ColExpr) Type() types.Type { return c.Typ }

// Cost implements Expr.
func (c *ColExpr) Cost() float64 { return 0.01 }

func (c *ColExpr) String() string { return c.Name }

// ConstExpr is a literal.
type ConstExpr struct{ Val types.Datum }

// Type implements Expr.
func (c *ConstExpr) Type() types.Type { return c.Val.Typ }

// Cost implements Expr.
func (c *ConstExpr) Cost() float64 { return 0 }

func (c *ConstExpr) String() string {
	if c.Val.Typ == types.Text && !c.Val.Null {
		return "'" + strings.ReplaceAll(c.Val.Text(), "'", "''") + "'"
	}
	return c.Val.String()
}

// ParamExpr is a constant whose value comes from the execution: the
// Slot-th parameter bound to the statement (ExecCtx.Bind), the lifted
// literal of a cached statement shape. Typ is the type every bound value
// has. A plan holding ParamExprs is immutable and shared by concurrent
// executions with different values: the batch evaluator broadcasts the
// value its EvalCtx was given, and the selection kernels and page-skip
// tests read it at open.
type ParamExpr struct {
	Slot int
	Typ  types.Type
}

// errUnbound is what a ParamExpr evaluates to when its EvalCtx holds no
// value for it.
type errUnbound struct{ slot int }

func (e errUnbound) Error() string {
	return fmt.Sprintf("exec: no value bound for parameter $%d", e.slot+1)
}

// Type implements Expr.
func (p *ParamExpr) Type() types.Type { return p.Typ }

// Cost implements Expr.
func (p *ParamExpr) Cost() float64 { return 0 }

func (p *ParamExpr) String() string { return fmt.Sprintf("$%d", p.Slot+1) }

// paramValue is the bound value of p, or an error when none is bound.
func paramValue(p *ParamExpr, params []types.Datum) (types.Datum, error) {
	if p.Slot < 0 || p.Slot >= len(params) {
		return types.Datum{}, errUnbound{p.Slot}
	}
	return params[p.Slot], nil
}

// ---------- Binary operators ----------

// BinExpr applies a binary operator with SQL three-valued logic.
type BinExpr struct {
	Op   string // "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "AND", "OR", "||"
	L, R Expr
}

// Type implements Expr.
func (b *BinExpr) Type() types.Type {
	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=", "AND", "OR":
		return types.Bool
	case "||":
		return types.Text
	default:
		lt, rt := b.L.Type(), b.R.Type()
		if lt == types.Unknown || rt == types.Unknown {
			return types.Unknown
		}
		return types.CommonNumeric(lt, rt)
	}
}

// Cost implements Expr.
func (b *BinExpr) Cost() float64 { return b.L.Cost() + b.R.Cost() + 0.0025 }

func (b *BinExpr) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// truth interprets a datum as a SQL boolean: value, isNull, error.
func truth(d types.Datum) (val, isNull bool, err error) {
	if d.IsNull() {
		return false, true, nil
	}
	if d.Typ != types.Bool {
		return false, false, fmt.Errorf("exec: argument of boolean operator must be boolean, not %v", d.Typ)
	}
	return d.Bool(), false, nil
}

func evalComparison(op string, l, r types.Datum) (types.Datum, error) {
	if l.IsNull() || r.IsNull() {
		return types.NewNull(types.Bool), nil
	}
	c, err := types.Compare(l, r)
	if err != nil {
		return types.Datum{}, err
	}
	var out bool
	switch op {
	case "=":
		out = c == 0
	case "<>":
		out = c != 0
	case "<":
		out = c < 0
	case "<=":
		out = c <= 0
	case ">":
		out = c > 0
	case ">=":
		out = c >= 0
	}
	return types.NewBool(out), nil
}

func evalArith(op string, l, r types.Datum) (types.Datum, error) {
	if l.IsNull() || r.IsNull() {
		return types.NewNull(types.CommonNumeric(l.Typ, r.Typ)), nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return types.Datum{}, fmt.Errorf("exec: operator %q requires numeric operands, got %v and %v", op, l.Typ, r.Typ)
	}
	if l.Typ == types.Int && r.Typ == types.Int {
		switch op {
		case "+":
			return types.NewInt(l.I + r.I), nil
		case "-":
			return types.NewInt(l.I - r.I), nil
		case "*":
			return types.NewInt(l.I * r.I), nil
		case "/":
			if r.I == 0 {
				return types.Datum{}, fmt.Errorf("exec: division by zero")
			}
			return types.NewInt(l.I / r.I), nil
		case "%":
			if r.I == 0 {
				return types.Datum{}, fmt.Errorf("exec: division by zero")
			}
			return types.NewInt(l.I % r.I), nil
		}
	}
	lf, _ := l.Float64()
	rf, _ := r.Float64()
	switch op {
	case "+":
		return types.NewFloat(lf + rf), nil
	case "-":
		return types.NewFloat(lf - rf), nil
	case "*":
		return types.NewFloat(lf * rf), nil
	case "/":
		if rf == 0 {
			return types.Datum{}, fmt.Errorf("exec: division by zero")
		}
		return types.NewFloat(lf / rf), nil
	case "%":
		return types.Datum{}, fmt.Errorf("exec: %% requires integer operands")
	}
	return types.Datum{}, fmt.Errorf("exec: unknown arithmetic operator %q", op)
}

// ---------- NOT / negation ----------

// NotExpr is logical NOT.
type NotExpr struct{ X Expr }

// Type implements Expr.
func (n *NotExpr) Type() types.Type { return types.Bool }

// Cost implements Expr.
func (n *NotExpr) Cost() float64 { return n.X.Cost() + 0.0025 }

func (n *NotExpr) String() string { return "(NOT " + n.X.String() + ")" }

// NegExpr is arithmetic negation.
type NegExpr struct{ X Expr }

// Type implements Expr.
func (n *NegExpr) Type() types.Type { return n.X.Type() }

// Cost implements Expr.
func (n *NegExpr) Cost() float64 { return n.X.Cost() + 0.0025 }

func (n *NegExpr) String() string { return "(-" + n.X.String() + ")" }

// ---------- Predicate forms ----------

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// Type implements Expr.
func (e *IsNullExpr) Type() types.Type { return types.Bool }

// Cost implements Expr.
func (e *IsNullExpr) Cost() float64 { return e.X.Cost() + 0.0025 }

func (e *IsNullExpr) String() string {
	if e.Not {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi, evaluated as the conjunction of
// two comparisons but with X evaluated once (the paper notes MongoDB
// precomputes the value while Postgres re-extracts per comparison; our
// engine models the Postgres behaviour in the pgjson baseline by rewriting
// BETWEEN into two explicit comparisons there).
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// Type implements Expr.
func (e *BetweenExpr) Type() types.Type { return types.Bool }

// Cost implements Expr.
func (e *BetweenExpr) Cost() float64 { return e.X.Cost() + e.Lo.Cost() + e.Hi.Cost() + 0.005 }

func (e *BetweenExpr) String() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return "(" + e.X.String() + not + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// InListExpr is x [NOT] IN (list), with SQL NULL semantics.
type InListExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// Type implements Expr.
func (e *InListExpr) Type() types.Type { return types.Bool }

// Cost implements Expr.
func (e *InListExpr) Cost() float64 {
	c := e.X.Cost()
	for _, le := range e.List {
		c += le.Cost()
	}
	return c + 0.0025*float64(len(e.List))
}

func (e *InListExpr) String() string {
	var parts []string
	for _, le := range e.List {
		parts = append(parts, le.String())
	}
	not := ""
	if e.Not {
		not = " NOT"
	}
	return "(" + e.X.String() + not + " IN (" + strings.Join(parts, ", ") + "))"
}

// LikeExpr is x [NOT] LIKE pattern. Patterns are compiled to regexps and
// cached per pattern string (patterns are usually constants).
type LikeExpr struct {
	X, Pattern Expr
	Not        bool

	mu       sync.Mutex
	cachedRx *regexp.Regexp
	cachedP  string
}

func (e *LikeExpr) compiled(pattern string) (*regexp.Regexp, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cachedRx != nil && e.cachedP == pattern {
		return e.cachedRx, nil
	}
	rx, err := regexp.Compile(likeToRegexp(pattern))
	if err != nil {
		return nil, fmt.Errorf("exec: bad LIKE pattern %q: %w", pattern, err)
	}
	e.cachedRx, e.cachedP = rx, pattern
	return rx, nil
}

// likeToRegexp converts a SQL LIKE pattern to an anchored regexp source.
func likeToRegexp(pattern string) string {
	var sb strings.Builder
	sb.WriteString(`(?s)^`)
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; c {
		case '%':
			sb.WriteString(`.*`)
		case '_':
			sb.WriteString(`.`)
		case '\\':
			if i+1 < len(pattern) {
				i++
				sb.WriteString(regexp.QuoteMeta(string(pattern[i])))
			}
		default:
			sb.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	sb.WriteString(`$`)
	return sb.String()
}

// Type implements Expr.
func (e *LikeExpr) Type() types.Type { return types.Bool }

// Cost implements Expr.
func (e *LikeExpr) Cost() float64 { return e.X.Cost() + e.Pattern.Cost() + 0.05 }

func (e *LikeExpr) String() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return "(" + e.X.String() + not + " LIKE " + e.Pattern.String() + ")"
}

// AnyExpr is x op ANY(array): true if the comparison holds for any element.
type AnyExpr struct {
	X     Expr
	Op    string
	Array Expr
}

// evalAny combines one evaluated operand pair of x op ANY(arr).
func evalAny(op string, x, arr types.Datum) (types.Datum, error) {
	if x.IsNull() || arr.IsNull() {
		return types.NewNull(types.Bool), nil
	}
	if arr.Typ != types.Array {
		return types.Datum{}, fmt.Errorf("exec: ANY requires an array, got %v", arr.Typ)
	}
	sawNull := false
	for _, elem := range arr.Array() {
		if elem.IsNull() {
			sawNull = true
			continue
		}
		// Heterogeneous arrays (Sinew's dynamic typing): incomparable
		// elements are simply non-matches, not errors. = tests equality,
		// which needs no order and builds no error for them.
		if op == "=" {
			if types.Equal(x, elem) {
				return types.NewBool(true), nil
			}
			continue
		}
		c, err := types.Compare(x, elem)
		if err != nil {
			continue
		}
		var ok bool
		switch op {
		case "<>":
			ok = c != 0
		case "<":
			ok = c < 0
		case "<=":
			ok = c <= 0
		case ">":
			ok = c > 0
		case ">=":
			ok = c >= 0
		}
		if ok {
			return types.NewBool(true), nil
		}
	}
	if sawNull {
		return types.NewNull(types.Bool), nil
	}
	return types.NewBool(false), nil
}

// Type implements Expr.
func (e *AnyExpr) Type() types.Type { return types.Bool }

// Cost implements Expr.
func (e *AnyExpr) Cost() float64 { return e.X.Cost() + e.Array.Cost() + 0.02 }

func (e *AnyExpr) String() string {
	return "(" + e.X.String() + " " + e.Op + " ANY(" + e.Array.String() + "))"
}

// CastExpr is CAST(x AS t); it raises runtime errors for malformed text
// input (the behaviour the pgjson baseline inherits).
type CastExpr struct {
	X  Expr
	To types.Type
}

// Type implements Expr.
func (e *CastExpr) Type() types.Type { return e.To }

// Cost implements Expr.
func (e *CastExpr) Cost() float64 { return e.X.Cost() + 0.0025 }

func (e *CastExpr) String() string {
	return "CAST(" + e.X.String() + " AS " + e.To.String() + ")"
}

// CoalesceExpr returns the first non-NULL argument, evaluating lazily
// (Postgres semantics): later arguments — typically Sinew's extraction
// call over a dirty column — are not evaluated when an earlier one is
// non-NULL, which is what keeps the §3.1.4 dirty-column overhead small.
type CoalesceExpr struct {
	Args []Expr
}

// Type implements Expr.
func (e *CoalesceExpr) Type() types.Type {
	for _, a := range e.Args {
		if t := a.Type(); t != types.Unknown {
			return t
		}
	}
	return types.Unknown
}

// Cost implements Expr. The first argument is always evaluated; later ones
// are costed at half weight to reflect laziness.
func (e *CoalesceExpr) Cost() float64 {
	var c float64
	for i, a := range e.Args {
		if i == 0 {
			c += a.Cost()
		} else {
			c += a.Cost() / 2
		}
	}
	return c + 0.0025
}

func (e *CoalesceExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return "coalesce(" + strings.Join(parts, ", ") + ")"
}

// ---------- Function calls ----------

// CallExpr invokes a registered scalar function.
type CallExpr struct {
	Def  *FuncDef
	Args []Expr
}

// Type implements Expr.
func (e *CallExpr) Type() types.Type {
	if e.Def.RetType == nil {
		return types.Unknown
	}
	argTypes := make([]types.Type, len(e.Args))
	for i, a := range e.Args {
		argTypes[i] = a.Type()
	}
	return e.Def.RetType(argTypes)
}

// Cost implements Expr.
func (e *CallExpr) Cost() float64 {
	c := e.Def.CostPerCall
	for _, a := range e.Args {
		c += a.Cost()
	}
	return c
}

func (e *CallExpr) String() string {
	var parts []string
	for _, a := range e.Args {
		parts = append(parts, a.String())
	}
	return e.Def.Name + "(" + strings.Join(parts, ", ") + ")"
}
