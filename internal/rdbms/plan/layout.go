// Package plan builds and costs physical query plans for the embedded
// RDBMS. It binds SQL ASTs against the catalog, estimates cardinalities
// from per-column statistics (with Postgres-style fixed defaults for
// expressions it cannot see through — the mechanism behind Table 2 of the
// Sinew paper), chooses operators and join orders, and renders EXPLAIN
// output.
package plan

import (
	"fmt"
	"strings"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Catalog is what the planner needs to know about tables; the rdbms layer
// implements it.
type Catalog interface {
	// Table resolves a table name to a readable view of its storage (the
	// live heap for single-threaded embedded callers, an epoch-pinned
	// snapshot under concurrent sessions) and the latest ANALYZE statistics
	// (stats may be nil if the table was never analyzed).
	Table(name string) (storage.ReadView, *storage.TableStats, error)
}

// LayoutCol is one column of an intermediate row layout during planning.
type LayoutCol struct {
	Table string // effective (aliased) table name; "" for derived columns
	Name  string
	Typ   types.Type
	// Stats is the column's statistics when it maps directly to a base
	// table column of an analyzed table; nil otherwise (derived columns,
	// un-analyzed tables).
	Stats *storage.ColumnStats
}

// Layout describes the row shape flowing between operators.
type Layout struct {
	Cols []LayoutCol
	// Rows is the estimated row count of the relation carrying this layout
	// at bind time (used for scaling absolute-row default estimates).
	Rows float64
}

// Resolve finds the offset of a column reference; table may be empty for an
// unqualified reference, which must be unambiguous.
func (l *Layout) Resolve(table, name string) (int, error) {
	found := -1
	for i, c := range l.Cols {
		if c.Name != name {
			continue
		}
		if table != "" && c.Table != table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("plan: column reference %q is ambiguous", name)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return 0, fmt.Errorf("plan: column %s.%s does not exist", table, name)
		}
		return 0, fmt.Errorf("plan: column %q does not exist", name)
	}
	return found, nil
}

// Concat returns a layout for the concatenation of two relations (join
// output).
func Concat(a, b *Layout) *Layout {
	out := &Layout{Cols: make([]LayoutCol, 0, len(a.Cols)+len(b.Cols))}
	out.Cols = append(out.Cols, a.Cols...)
	out.Cols = append(out.Cols, b.Cols...)
	return out
}

// compiler turns bound ASTs into executable expressions.
type compiler struct {
	layout *Layout
	funcs  *exec.Registry
	// allowAggs permits aggregate function calls (they are compiled by the
	// aggregate planner, never here; here they are an error).
	context string // "WHERE", "SELECT", ... for error messages
}

// CompileExpr binds and compiles an AST expression against a layout.
// Aggregate calls are rejected; the aggregation planner strips them first.
func CompileExpr(e sqlparse.Expr, layout *Layout, funcs *exec.Registry, context string) (exec.Expr, error) {
	c := &compiler{layout: layout, funcs: funcs, context: context}
	return c.compile(e)
}

func (c *compiler) compile(e sqlparse.Expr) (exec.Expr, error) {
	switch x := e.(type) {
	case *sqlparse.ColumnRef:
		idx, err := c.layout.Resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		col := c.layout.Cols[idx]
		name := col.Name
		if col.Table != "" {
			name = col.Table + "." + col.Name
		}
		return &exec.ColExpr{Idx: idx, Typ: col.Typ, Name: name}, nil
	case *sqlparse.Literal:
		return &exec.ConstExpr{Val: x.Val}, nil
	case *sqlparse.Param:
		return &exec.ParamExpr{Slot: x.Slot, Typ: x.Typ}, nil
	case *sqlparse.BinaryExpr:
		l, err := c.compile(x.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(x.R)
		if err != nil {
			return nil, err
		}
		return &exec.BinExpr{Op: x.Op.String(), L: l, R: r}, nil
	case *sqlparse.UnaryExpr:
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return &exec.NotExpr{X: sub}, nil
		}
		return &exec.NegExpr{X: sub}, nil
	case *sqlparse.IsNullExpr:
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		return &exec.IsNullExpr{X: sub, Not: x.Not}, nil
	case *sqlparse.BetweenExpr:
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := c.compile(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.compile(x.Hi)
		if err != nil {
			return nil, err
		}
		return &exec.BetweenExpr{X: sub, Lo: lo, Hi: hi, Not: x.Not}, nil
	case *sqlparse.InListExpr:
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		list := make([]exec.Expr, len(x.List))
		for i, le := range x.List {
			ce, err := c.compile(le)
			if err != nil {
				return nil, err
			}
			list[i] = ce
		}
		return &exec.InListExpr{X: sub, List: list, Not: x.Not}, nil
	case *sqlparse.LikeExpr:
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		pat, err := c.compile(x.Pattern)
		if err != nil {
			return nil, err
		}
		return &exec.LikeExpr{X: sub, Pattern: pat, Not: x.Not}, nil
	case *sqlparse.AnyExpr:
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		arr, err := c.compile(x.Array)
		if err != nil {
			return nil, err
		}
		return &exec.AnyExpr{X: sub, Op: x.Op.String(), Array: arr}, nil
	case *sqlparse.CastExpr:
		sub, err := c.compile(x.X)
		if err != nil {
			return nil, err
		}
		return &exec.CastExpr{X: sub, To: x.To}, nil
	case *sqlparse.FuncCall:
		if exec.IsAggName(x.Name) {
			return nil, fmt.Errorf("plan: aggregate function %s() is not allowed in %s", x.Name, c.context)
		}
		if x.Name == "coalesce" {
			// COALESCE gets lazy evaluation (Postgres semantics) instead
			// of the eager-argument builtin path.
			if len(x.Args) == 0 {
				return nil, fmt.Errorf("plan: coalesce() requires at least one argument")
			}
			args := make([]exec.Expr, len(x.Args))
			for i, a := range x.Args {
				ce, err := c.compile(a)
				if err != nil {
					return nil, err
				}
				args[i] = ce
			}
			return &exec.CoalesceExpr{Args: args}, nil
		}
		def, ok := c.funcs.Lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("plan: function %s() does not exist", x.Name)
		}
		if len(x.Args) < def.MinArgs || (def.MaxArgs >= 0 && len(x.Args) > def.MaxArgs) {
			return nil, fmt.Errorf("plan: wrong number of arguments to %s()", x.Name)
		}
		args := make([]exec.Expr, len(x.Args))
		for i, a := range x.Args {
			ce, err := c.compile(a)
			if err != nil {
				return nil, err
			}
			args[i] = ce
		}
		return &exec.CallExpr{Def: def, Args: args}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T in %s", e, c.context)
	}
}

// exprDisplayName derives an output column name for an unaliased select
// item, Postgres-style: bare columns keep their name, function calls use
// the function name, everything else is "?column?".
func exprDisplayName(e sqlparse.Expr) string {
	switch x := e.(type) {
	case *sqlparse.ColumnRef:
		return x.Name
	case *sqlparse.FuncCall:
		return x.Name
	case *sqlparse.CastExpr:
		return exprDisplayName(x.X)
	default:
		return "?column?"
	}
}

// normalizeRefs fully qualifies every column reference in e with its
// effective table name so that structurally identical expressions print
// identically (the planner matches GROUP BY keys and ORDER BY targets by
// normalized print form).
func normalizeRefs(e sqlparse.Expr, layout *Layout) (sqlparse.Expr, error) {
	var firstErr error
	out := sqlparse.RewriteExpr(e, func(n sqlparse.Expr) sqlparse.Expr {
		cr, ok := n.(*sqlparse.ColumnRef)
		if !ok {
			return n
		}
		idx, err := layout.Resolve(cr.Table, cr.Name)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return n
		}
		col := layout.Cols[idx]
		return &sqlparse.ColumnRef{Table: col.Table, Name: col.Name}
	})
	return out, firstErr
}

// exprKey is the canonical matching key of a normalized expression.
func exprKey(e sqlparse.Expr) string { return sqlparse.PrintExpr(e) }

// containsAggregate reports whether the AST contains an aggregate call.
func containsAggregate(e sqlparse.Expr) bool {
	found := false
	sqlparse.WalkExpr(e, func(n sqlparse.Expr) bool {
		if fc, ok := n.(*sqlparse.FuncCall); ok && exec.IsAggName(fc.Name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// collectColumnRefs lists the distinct tables referenced by e.
func referencedTables(e sqlparse.Expr) map[string]bool {
	out := make(map[string]bool)
	sqlparse.WalkExpr(e, func(n sqlparse.Expr) bool {
		if cr, ok := n.(*sqlparse.ColumnRef); ok && cr.Table != "" {
			out[cr.Table] = true
		}
		return true
	})
	return out
}

// splitConjuncts flattens nested ANDs into a conjunct list.
func splitConjuncts(e sqlparse.Expr, out []sqlparse.Expr) []sqlparse.Expr {
	if e == nil {
		return out
	}
	if b, ok := e.(*sqlparse.BinaryExpr); ok && b.Op == sqlparse.OpAnd {
		out = splitConjuncts(b.L, out)
		return splitConjuncts(b.R, out)
	}
	return append(out, e)
}

// conjoinExec folds compiled predicates into a single AND tree.
func conjoinExec(preds []exec.Expr) exec.Expr {
	var out exec.Expr
	for _, p := range preds {
		if out == nil {
			out = p
		} else {
			out = &exec.BinExpr{Op: "AND", L: out, R: p}
		}
	}
	return out
}

// predsDisplay renders compiled predicates for EXPLAIN Filter lines.
func predsDisplay(preds []exec.Expr) string {
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}
