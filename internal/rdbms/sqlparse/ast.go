package sqlparse

import (
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any scalar expression node.
type Expr interface{ expr() }

// ---------- Statements ----------

// SelectStmt is a SELECT query. JOIN ... ON clauses are normalized by the
// parser into From entries plus conjuncts appended to Where, so the planner
// sees a single cross-product + filter form.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr // nil when absent
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
}

// SelectItem is one projection: an expression with an optional alias, or a
// star (possibly table-qualified).
type SelectItem struct {
	Expr  Expr   // nil for star items
	Alias string // "" when none
	Star  bool
	Table string // qualifier for "t.*"; "" for bare "*"
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Name  string
	Alias string // "" when none; effective name is Alias or Name
}

// EffectiveName returns the name the table is referenced by in the query.
func (t TableRef) EffectiveName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string // empty means full schema order
	Rows    [][]Expr
}

// UpdateStmt is UPDATE t SET col = expr, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr
}

// SetClause is one column assignment in UPDATE.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt is CREATE TABLE [IF NOT EXISTS] t (col type [NOT NULL]...).
type CreateTableStmt struct {
	Table       string
	IfNotExists bool
	Columns     []ColumnDef
}

// ColumnDef is one column definition in CREATE TABLE / ALTER TABLE ADD.
type ColumnDef struct {
	Name    string
	Typ     types.Type
	NotNull bool
}

// DropTableStmt is DROP TABLE [IF EXISTS] t.
type DropTableStmt struct {
	Table    string
	IfExists bool
}

// AlterTableStmt is ALTER TABLE t ADD COLUMN def | DROP COLUMN name.
type AlterTableStmt struct {
	Table      string
	AddColumn  *ColumnDef // exactly one of AddColumn/DropColumn is set
	DropColumn string
}

// TruncateStmt is TRUNCATE [TABLE] t.
type TruncateStmt struct{ Table string }

// ExplainStmt wraps a statement whose plan should be printed, not run.
type ExplainStmt struct{ Stmt Statement }

// AnalyzeStmt is ANALYZE t, which refreshes optimizer statistics.
type AnalyzeStmt struct{ Table string }

// SetStmt is SET name = value, adjusting a session-level knob
// (enable_batch; rdbms.DB.execSet lists them). Value is an Int, Bool, or Text
// datum.
type SetStmt struct {
	Name  string
	Value types.Datum
}

func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*AlterTableStmt) stmt()  {}
func (*TruncateStmt) stmt()    {}
func (*ExplainStmt) stmt()     {}
func (*AnalyzeStmt) stmt()     {}
func (*SetStmt) stmt()         {}

// ---------- Expressions ----------

// ColumnRef references a column, optionally table-qualified. Name keeps the
// exact identifier (dots included when quoted, e.g. "user.id").
type ColumnRef struct {
	Table string
	Name  string
}

// Literal is a constant value.
type Literal struct{ Val types.Datum }

// Param is a literal lifted out of a statement shape (ScanShape): a
// constant of type Typ whose value is the shape's Slot-th parameter, bound
// per execution. Typ is Int, Float or Text.
type Param struct {
	Slot int
	Typ  types.Type
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators, in no particular order.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpConcat
)

// String returns the SQL spelling of the operator.
func (o BinOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpConcat:
		return "||"
	default:
		return "?"
	}
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

// FuncCall is a scalar or aggregate function call; Star marks COUNT(*).
type FuncCall struct {
	Name     string // lowercase
	Args     []Expr
	Star     bool
	Distinct bool // COUNT(DISTINCT x)
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// InListExpr is x [NOT] IN (e1, e2, ...).
type InListExpr struct {
	X    Expr
	List []Expr
	Not  bool
}

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	X, Pattern Expr
	Not        bool
}

// AnyExpr is x op ANY(arrayExpr) — used for array containment (NoBench Q8).
type AnyExpr struct {
	X     Expr
	Op    BinOp
	Array Expr
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X  Expr
	To types.Type
}

func (*ColumnRef) expr()   {}
func (*Literal) expr()     {}
func (*Param) expr()       {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*FuncCall) expr()    {}
func (*IsNullExpr) expr()  {}
func (*BetweenExpr) expr() {}
func (*InListExpr) expr()  {}
func (*LikeExpr) expr()    {}
func (*AnyExpr) expr()     {}
func (*CastExpr) expr()    {}

// WalkExpr calls fn on e and every sub-expression, pre-order. fn returning
// false prunes descent below that node.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *UnaryExpr:
		WalkExpr(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *IsNullExpr:
		WalkExpr(x.X, fn)
	case *BetweenExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *InListExpr:
		WalkExpr(x.X, fn)
		for _, a := range x.List {
			WalkExpr(a, fn)
		}
	case *LikeExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Pattern, fn)
	case *AnyExpr:
		WalkExpr(x.X, fn)
		WalkExpr(x.Array, fn)
	case *CastExpr:
		WalkExpr(x.X, fn)
	}
}

// RewriteExpr rebuilds e bottom-up, replacing each node with fn(node) after
// its children have been rewritten. fn must return a non-nil Expr.
func RewriteExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *BinaryExpr:
		e = &BinaryExpr{Op: x.Op, L: RewriteExpr(x.L, fn), R: RewriteExpr(x.R, fn)}
	case *UnaryExpr:
		e = &UnaryExpr{Op: x.Op, X: RewriteExpr(x.X, fn)}
	case *FuncCall:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = RewriteExpr(a, fn)
		}
		e = &FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}
	case *IsNullExpr:
		e = &IsNullExpr{X: RewriteExpr(x.X, fn), Not: x.Not}
	case *BetweenExpr:
		e = &BetweenExpr{X: RewriteExpr(x.X, fn), Lo: RewriteExpr(x.Lo, fn), Hi: RewriteExpr(x.Hi, fn), Not: x.Not}
	case *InListExpr:
		list := make([]Expr, len(x.List))
		for i, a := range x.List {
			list[i] = RewriteExpr(a, fn)
		}
		e = &InListExpr{X: RewriteExpr(x.X, fn), List: list, Not: x.Not}
	case *LikeExpr:
		e = &LikeExpr{X: RewriteExpr(x.X, fn), Pattern: RewriteExpr(x.Pattern, fn), Not: x.Not}
	case *AnyExpr:
		e = &AnyExpr{X: RewriteExpr(x.X, fn), Op: x.Op, Array: RewriteExpr(x.Array, fn)}
	case *CastExpr:
		e = &CastExpr{X: RewriteExpr(x.X, fn), To: x.To}
	}
	return fn(e)
}
