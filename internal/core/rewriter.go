package core

import (
	"fmt"
	"slices"
	"strings"

	"github.com/sinewdata/sinew/internal/rdbms"
	"github.com/sinewdata/sinew/internal/rdbms/plan"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
	"github.com/sinewdata/sinew/internal/serial"
	"github.com/sinewdata/sinew/internal/textindex"
)

// Query parses, rewrites (§3.2.2), and executes a SQL statement against
// the logical universal-relation view. Plain SELECTs are served through the
// RDBMS prepared-plan cache, keyed by the statement's shape — its text with
// the WHERE literals lifted to parameters (sqlparse.ScanShape): a statement
// whose shape was seen before skips parsing, virtual-column rewriting, and
// planning entirely, and runs with its own values bound. The rewrite of a
// shape depends on a literal's type, never on its value (hintOf), so the
// rewritten shape serves every value.
func (db *DB) Query(sql string) (*rdbms.Result, error) {
	// A statement the scan rejects takes the uncached path, which reports
	// the parser's own error. matches() binds a per-statement text-index
	// result set, released after execution: never cached.
	if sh, err := sqlparse.ScanShape(sql); err == nil && sh.Select && !sh.Matches {
		q := rdbms.CachedSelect{Text: sql, Shape: sh.Text, Params: sh.Params}
		return db.rdb.ExecSelectCached(q, func(shape bool) (*sqlparse.SelectStmt, error) {
			var stmt sqlparse.Statement
			var err error
			if shape {
				stmt, err = sqlparse.ParseShape(q.Shape)
			} else {
				stmt, err = sqlparse.Parse(sql)
			}
			if err != nil {
				return nil, err
			}
			// A statement whose first token is SELECT parses to a SELECT.
			rewritten, cleanup, err := db.RewriteStmt(stmt.(*sqlparse.SelectStmt))
			if err != nil {
				return nil, err
			}
			// No matches(), so no text-index result sets were registered:
			// cleanup is a no-op and the rewritten AST may outlive this
			// statement inside the plan cache.
			cleanup()
			return rewritten.(*sqlparse.SelectStmt), nil
		})
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if sel, ok := stmt.(*sqlparse.SelectStmt); ok {
		// A SELECT the plan cache cannot hold runs under its protocol all
		// the same: rewritten again if the catalog moved before the
		// snapshots were pinned, the last rewrite's result sets released.
		cleanup := func() {}
		defer func() { cleanup() }()
		return db.rdb.ExecSelectOnce(func() (*sqlparse.SelectStmt, error) {
			cleanup()
			rewritten, c, err := db.RewriteStmt(sel)
			cleanup = c
			if err != nil {
				return nil, err
			}
			return rewritten.(*sqlparse.SelectStmt), nil
		})
	}
	// Writes run under the same protocol: an UPDATE or DELETE is rewritten
	// again if the catalog moved before it took its table's write lock.
	// Cached plans go stale only when the write changed what the rewriter
	// emits — its rewrite cataloged a new key, or a new attribute entered
	// the dictionary while it ran — the loader's rule; DDL and ANALYZE
	// bump inside the RDBMS.
	attrsBefore := db.dict().Len()
	cataloged := false
	rw := &rewriter{db: db}
	defer func() { rw.cleanup() }()
	res, err := db.rdb.ExecWriteOnce(func() (sqlparse.Statement, error) {
		rw.cleanup()
		rw = &rewriter{db: db}
		out, err := rw.statement(stmt)
		cataloged = cataloged || rw.cataloged
		return out, err
	})
	if cataloged || db.dict().Len() != attrsBefore {
		db.rdb.BumpCatalogEpoch()
	}
	return res, err
}

// Explain rewrites a SELECT and returns the physical plan text.
func (db *DB) Explain(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	if ex, ok := stmt.(*sqlparse.ExplainStmt); ok {
		stmt = ex.Stmt
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return "", fmt.Errorf("core: EXPLAIN supports only SELECT")
	}
	rewritten, cleanup, err := db.RewriteStmt(sel)
	if err != nil {
		return "", err
	}
	defer cleanup()
	return db.rdb.ExplainSelect(rewritten.(*sqlparse.SelectStmt))
}

// PlanShape returns both the operator labels (pre-order) and the scan
// order (the join order for multi-table queries) of the rewritten plan.
func (db *DB) PlanShape(sql string) (ops, scanOrder []string, err error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := stmt.(*sqlparse.SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("core: PlanShape supports only SELECT")
	}
	rewritten, cleanup, err := db.RewriteStmt(sel)
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	sp, err := db.rdb.PlanSelect(rewritten.(*sqlparse.SelectStmt))
	if err != nil {
		return nil, nil, err
	}
	return plan.OperatorNames(sp.Root), plan.LeafOrder(sp.Root), nil
}

// RewrittenSQL returns the rewritten statement's SQL text (tests and the
// CLI's \rewrite command).
func (db *DB) RewrittenSQL(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	rewritten, cleanup, err := db.RewriteStmt(stmt)
	if err != nil {
		return "", err
	}
	defer cleanup()
	return sqlparse.Print(rewritten), nil
}

// RewriteStmt transforms a logical-schema statement into one over the
// physical schema. The returned cleanup releases any text-index result
// sets registered during rewriting and must be called after execution.
func (db *DB) RewriteStmt(stmt sqlparse.Statement) (sqlparse.Statement, func(), error) {
	rw := &rewriter{db: db}
	out, err := rw.statement(stmt)
	if err != nil {
		rw.cleanup()
		return nil, func() {}, err
	}
	return out, rw.cleanup, nil
}

// rewriter carries per-statement state.
type rewriter struct {
	db      *DB
	tables  []rwTable
	handles []int64 // registered match sets
	// cataloged is set when an UPDATE's rewrite created the catalog
	// record of a brand-new key.
	cataloged bool
}

// rwTable is one FROM entry's resolution info: the physical schema and the
// catalog view the whole statement is rewritten against. Binding one view
// per statement means every reference to a column sees the same storage
// state (a dirty flag flipping between a select list and its GROUP BY would
// otherwise produce a statement the planner rejects), and nothing after the
// bind takes a catalog lock.
type rwTable struct {
	ref    sqlparse.TableRef
	eff    string
	schema *storage.Schema
	cat    *CollectionCatalog // nil for plain (non-Sinew) tables
	view   *schemaView        // cat's view as of the bind; nil with cat
}

// physical reports whether name is a column of the table's physical schema.
func (t *rwTable) physical(name string) bool { return t.schema.ColumnIndex(name) >= 0 }

// candidates lists the catalog attributes (one per observed type) of a key.
func (t *rwTable) candidates(key string) []ColumnState {
	if t.view == nil {
		return nil
	}
	return t.view.byKey[key]
}

func (rw *rewriter) cleanup() {
	for _, h := range rw.handles {
		rw.db.releaseMatchSet(h)
	}
}

func (rw *rewriter) statement(stmt sqlparse.Statement) (sqlparse.Statement, error) {
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		return rw.selectStmt(st)
	case *sqlparse.UpdateStmt:
		return rw.updateStmt(st)
	case *sqlparse.DeleteStmt:
		return rw.deleteStmt(st)
	case *sqlparse.ExplainStmt:
		inner, err := rw.statement(st.Stmt)
		if err != nil {
			return nil, err
		}
		return &sqlparse.ExplainStmt{Stmt: inner}, nil
	default:
		// DDL / INSERT pass through to the physical layer untouched.
		return stmt, nil
	}
}

// bindTables records resolution info for the FROM list.
func (rw *rewriter) bindTables(from []sqlparse.TableRef) error {
	rw.tables = rw.tables[:0]
	for _, ref := range from {
		schema, err := rw.db.rdb.TableSchema(ref.Name)
		if err != nil {
			return err
		}
		t := rwTable{ref: ref, eff: ref.EffectiveName(), schema: schema}
		if tc, ok := rw.db.cat.Lookup(strings.ToLower(ref.Name)); ok {
			t.cat, t.view = tc, tc.schemaView()
		}
		rw.tables = append(rw.tables, t)
	}
	return nil
}

func (rw *rewriter) selectStmt(st *sqlparse.SelectStmt) (*sqlparse.SelectStmt, error) {
	if err := rw.bindTables(st.From); err != nil {
		return nil, err
	}
	out := &sqlparse.SelectStmt{
		Distinct: st.Distinct,
		From:     st.From,
		Limit:    st.Limit,
	}
	// Projections (stars expand against the logical schema).
	for _, item := range st.Items {
		if item.Star {
			expanded, err := rw.expandStar(item.Table)
			if err != nil {
				return nil, err
			}
			out.Items = append(out.Items, expanded...)
			continue
		}
		e, err := rw.expr(item.Expr, hintNone)
		if err != nil {
			return nil, err
		}
		alias := item.Alias
		if alias == "" {
			// Preserve the logical name for rewritten bare columns.
			if cr, ok := item.Expr.(*sqlparse.ColumnRef); ok {
				if _, isStill := e.(*sqlparse.ColumnRef); !isStill {
					alias = cr.Name
				}
			}
		}
		out.Items = append(out.Items, sqlparse.SelectItem{Expr: e, Alias: alias})
	}
	var err error
	if st.Where != nil {
		if out.Where, err = rw.expr(st.Where, hintNone); err != nil {
			return nil, err
		}
	}
	for _, g := range st.GroupBy {
		ge, err := rw.expr(g, hintNone)
		if err != nil {
			return nil, err
		}
		out.GroupBy = append(out.GroupBy, ge)
	}
	if st.Having != nil {
		if out.Having, err = rw.expr(st.Having, hintNone); err != nil {
			return nil, err
		}
	}
	for _, o := range st.OrderBy {
		oe, err := rw.expr(o.Expr, hintNone)
		if err != nil {
			return nil, err
		}
		out.OrderBy = append(out.OrderBy, sqlparse.OrderItem{Expr: oe, Desc: o.Desc})
	}
	return out, nil
}

// expandStar renders the logical row: _id, every materialized logical
// column under its key name (COALESCEd while dirty), and the remaining
// virtual attributes reconstructed as a JSON document column.
func (rw *rewriter) expandStar(tableQual string) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	matched := false
	for i := range rw.tables {
		t := &rw.tables[i]
		if tableQual != "" && t.eff != tableQual {
			continue
		}
		matched = true
		if t.view == nil {
			out = append(out, sqlparse.SelectItem{Star: true, Table: t.eff})
			continue
		}
		out = append(out, sqlparse.SelectItem{
			Expr: &sqlparse.ColumnRef{Table: t.eff, Name: IDColumn}, Alias: IDColumn,
		})
		for _, col := range t.view.physical {
			ref := sqlparse.Expr(&sqlparse.ColumnRef{Table: t.eff, Name: col.PhysicalName})
			if col.Dirty {
				ref = &sqlparse.FuncCall{Name: "coalesce", Args: []sqlparse.Expr{
					ref, extractCall(t, col.Key, col.Type),
				}}
			}
			out = append(out, sqlparse.SelectItem{Expr: ref, Alias: col.Key})
		}
		out = append(out, sqlparse.SelectItem{
			Expr: &sqlparse.FuncCall{Name: "sinew_tojson", Args: []sqlparse.Expr{
				&sqlparse.ColumnRef{Table: t.eff, Name: ReservoirColumn},
			}},
			Alias: "document",
		})
	}
	if !matched {
		return nil, fmt.Errorf("core: relation %q in star expansion not found", tableQual)
	}
	return out, nil
}

// ---------- expression rewriting ----------

// hint is the type expectation flowing into a virtual-column reference
// from its usage context (§3.2.2: the extraction function takes a type
// argument determined by the query's semantics).
type hint int

const (
	hintNone hint = iota
	hintText
	hintInt
	hintFloat
	hintBool
	hintArray
	hintDoc
)

func hintFromAttr(t serial.AttrType) hint {
	switch t {
	case serial.TypeString:
		return hintText
	case serial.TypeInt:
		return hintInt
	case serial.TypeFloat:
		return hintFloat
	case serial.TypeBool:
		return hintBool
	case serial.TypeArray:
		return hintArray
	case serial.TypeObject:
		return hintDoc
	default:
		return hintNone
	}
}

func attrFromHint(h hint) (serial.AttrType, bool) {
	switch h {
	case hintText:
		return serial.TypeString, true
	case hintInt:
		return serial.TypeInt, true
	case hintFloat:
		return serial.TypeFloat, true
	case hintBool:
		return serial.TypeBool, true
	case hintArray:
		return serial.TypeArray, true
	case hintDoc:
		return serial.TypeObject, true
	}
	return 0, false
}

// hintOf derives the hint an expression offers to its comparison partner.
// A literal offers its type, never its value — a statement shape's
// parameter offers the same hint, so one rewrite of a shape serves every
// value.
func (rw *rewriter) hintOf(e sqlparse.Expr) hint {
	switch x := e.(type) {
	case *sqlparse.Param:
		return hintFromType(x.Typ)
	case *sqlparse.Literal:
		switch x.Val.Typ {
		case types.Text:
			return hintText
		case types.Int:
			return hintInt
		case types.Float:
			return hintFloat
		case types.Bool:
			return hintBool
		case types.Array:
			return hintArray
		default:
			// Bytes and untyped literals suggest nothing to the partner.
		}
	case *sqlparse.ColumnRef:
		if _, t := rw.resolveRef(x); t != nil {
			if cands := t.candidates(x.Name); len(cands) == 1 {
				return hintFromAttr(cands[0].Type)
			}
		}
	case *sqlparse.CastExpr:
		switch x.To {
		case types.Text:
			return hintText
		case types.Int:
			return hintInt
		case types.Float:
			return hintFloat
		case types.Bool:
			return hintBool
		default:
			// Casts to other targets don't constrain the partner's type.
		}
	case *sqlparse.UnaryExpr:
		if x.Op == "-" {
			return rw.hintOf(x.X)
		}
	}
	return hintNone
}

func (rw *rewriter) expr(e sqlparse.Expr, h hint) (sqlparse.Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *sqlparse.Literal, *sqlparse.Param:
		return x, nil
	case *sqlparse.ColumnRef:
		return rw.columnRef(x, h)
	case *sqlparse.BinaryExpr:
		lh, rhh := hintNone, hintNone
		switch x.Op {
		case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
			lh, rhh = rw.hintOf(x.R), rw.hintOf(x.L)
		case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul, sqlparse.OpDiv, sqlparse.OpMod:
			lh, rhh = numericHint(rw.hintOf(x.R)), numericHint(rw.hintOf(x.L))
		case sqlparse.OpConcat:
			lh, rhh = hintText, hintText
		}
		l, err := rw.expr(x.L, lh)
		if err != nil {
			return nil, err
		}
		r, err := rw.expr(x.R, rhh)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *sqlparse.UnaryExpr:
		childHint := h
		if x.Op == "NOT" {
			childHint = hintBool
		} else {
			childHint = numericHint(h)
		}
		sub, err := rw.expr(x.X, childHint)
		if err != nil {
			return nil, err
		}
		return &sqlparse.UnaryExpr{Op: x.Op, X: sub}, nil
	case *sqlparse.IsNullExpr:
		sub, err := rw.expr(x.X, hintNone)
		if err != nil {
			return nil, err
		}
		return &sqlparse.IsNullExpr{X: sub, Not: x.Not}, nil
	case *sqlparse.BetweenExpr:
		bh := rw.hintOf(x.Lo)
		if bh == hintNone {
			bh = rw.hintOf(x.Hi)
		}
		sub, err := rw.expr(x.X, bh)
		if err != nil {
			return nil, err
		}
		lo, err := rw.expr(x.Lo, rw.hintOf(x.X))
		if err != nil {
			return nil, err
		}
		hi, err := rw.expr(x.Hi, rw.hintOf(x.X))
		if err != nil {
			return nil, err
		}
		return &sqlparse.BetweenExpr{X: sub, Lo: lo, Hi: hi, Not: x.Not}, nil
	case *sqlparse.InListExpr:
		var lh hint
		for _, le := range x.List {
			if lh = rw.hintOf(le); lh != hintNone {
				break
			}
		}
		sub, err := rw.expr(x.X, lh)
		if err != nil {
			return nil, err
		}
		list := make([]sqlparse.Expr, len(x.List))
		for i, le := range x.List {
			if list[i], err = rw.expr(le, rw.hintOf(x.X)); err != nil {
				return nil, err
			}
		}
		return &sqlparse.InListExpr{X: sub, List: list, Not: x.Not}, nil
	case *sqlparse.LikeExpr:
		sub, err := rw.expr(x.X, hintText)
		if err != nil {
			return nil, err
		}
		pat, err := rw.expr(x.Pattern, hintText)
		if err != nil {
			return nil, err
		}
		return &sqlparse.LikeExpr{X: sub, Pattern: pat, Not: x.Not}, nil
	case *sqlparse.AnyExpr:
		sub, err := rw.expr(x.X, hintNone)
		if err != nil {
			return nil, err
		}
		arr, err := rw.expr(x.Array, hintArray)
		if err != nil {
			return nil, err
		}
		return &sqlparse.AnyExpr{X: sub, Op: x.Op, Array: arr}, nil
	case *sqlparse.CastExpr:
		sub, err := rw.expr(x.X, hintFromType(x.To))
		if err != nil {
			return nil, err
		}
		return &sqlparse.CastExpr{X: sub, To: x.To}, nil
	case *sqlparse.FuncCall:
		if x.Name == "matches" {
			return rw.matchesCall(x)
		}
		args := make([]sqlparse.Expr, len(x.Args))
		for i, a := range x.Args {
			var err error
			if args[i], err = rw.expr(a, hintNone); err != nil {
				return nil, err
			}
		}
		return &sqlparse.FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}, nil
	default:
		return nil, fmt.Errorf("core: unsupported expression %T", e)
	}
}

func numericHint(h hint) hint {
	if h == hintInt || h == hintFloat {
		return h
	}
	return hintNone
}

func hintFromType(t types.Type) hint {
	switch t {
	case types.Text:
		return hintText
	case types.Int:
		return hintInt
	case types.Float:
		return hintFloat
	case types.Bool:
		return hintBool
	case types.Array:
		return hintArray
	default:
		return hintNone
	}
}

// resolveRef finds the FROM table a reference belongs to: a physical match
// wins; otherwise a catalog (virtual) match. The second result is the
// matching table (nil when unresolved).
func (rw *rewriter) resolveRef(cr *sqlparse.ColumnRef) (physical bool, tbl *rwTable) {
	// Qualified reference.
	if cr.Table != "" {
		for i := range rw.tables {
			t := &rw.tables[i]
			if t.eff != cr.Table {
				continue
			}
			if t.physical(cr.Name) {
				return true, t
			}
			if len(t.candidates(cr.Name)) > 0 {
				return false, t
			}
			return false, nil
		}
		return false, nil
	}
	// Unqualified: physical match first.
	var phys, virt *rwTable
	for i := range rw.tables {
		t := &rw.tables[i]
		if t.physical(cr.Name) {
			if phys != nil {
				return false, nil // ambiguous
			}
			phys = t
		}
	}
	if phys != nil {
		return true, phys
	}
	for i := range rw.tables {
		t := &rw.tables[i]
		if len(t.candidates(cr.Name)) > 0 {
			if virt != nil {
				return false, nil // ambiguous
			}
			virt = t
		}
	}
	if virt != nil {
		return false, virt
	}
	return false, nil
}

// columnRef rewrites one reference per §3.2.2: physical non-dirty stays a
// column reference; dirty becomes COALESCE(column, extract); virtual
// becomes an extraction call typed from the context hint (or downcast to
// text when the key is multi-typed and the context is unconstrained).
func (rw *rewriter) columnRef(cr *sqlparse.ColumnRef, h hint) (sqlparse.Expr, error) {
	physical, t := rw.resolveRef(cr)
	if t == nil {
		return nil, fmt.Errorf("core: column %q does not exist in the logical schema", displayName(cr))
	}
	if physical && t.view == nil {
		return &sqlparse.ColumnRef{Table: t.eff, Name: cr.Name}, nil // plain table
	}
	if physical && (cr.Name == IDColumn || cr.Name == ReservoirColumn) {
		return &sqlparse.ColumnRef{Table: t.eff, Name: cr.Name}, nil
	}

	cands := t.candidates(cr.Name)
	if len(cands) == 0 {
		// Physical column not under catalog control (user-added).
		if physical {
			return &sqlparse.ColumnRef{Table: t.eff, Name: cr.Name}, nil
		}
		return nil, fmt.Errorf("core: column %q does not exist in the logical schema", displayName(cr))
	}

	// Pick the candidate attribute guided by the hint.
	col := pickCandidate(cands, h)
	if col == nil {
		// The hinted type was never observed for this key: extraction of
		// that type correctly yields NULLs.
		if at, ok := attrFromHint(h); ok {
			return extractCall(t, cr.Name, at), nil
		}
		col = &cands[0]
	}

	if col.PhysicalName != "" && col.Materialized && !col.Dirty {
		return &sqlparse.ColumnRef{Table: t.eff, Name: col.PhysicalName}, nil
	}
	if col.PhysicalName != "" && col.Dirty {
		// Partially materialized either way: COALESCE over both locations.
		return &sqlparse.FuncCall{Name: "coalesce", Args: []sqlparse.Expr{
			&sqlparse.ColumnRef{Table: t.eff, Name: col.PhysicalName},
			extractCall(t, cr.Name, col.Type),
		}}, nil
	}
	// Virtual.
	if h == hintNone && len(cands) > 1 {
		// Multi-typed key in an unconstrained context: text downcast.
		return &sqlparse.FuncCall{Name: "sinew_extract_any", Args: []sqlparse.Expr{
			&sqlparse.ColumnRef{Table: t.eff, Name: ReservoirColumn},
			&sqlparse.Literal{Val: types.NewText(cr.Name)},
		}}, nil
	}
	return extractCall(t, cr.Name, col.Type), nil
}

// pickCandidate chooses the attribute matching the hint; numeric hints
// accept the other numeric type when no exact match exists.
func pickCandidate(cands []ColumnState, h hint) *ColumnState {
	if h == hintNone {
		if len(cands) == 1 {
			return &cands[0]
		}
		return nil
	}
	want, _ := attrFromHint(h)
	for i := range cands {
		if cands[i].Type == want {
			return &cands[i]
		}
	}
	if h == hintInt || h == hintFloat {
		for i := range cands {
			if c := &cands[i]; c.Type == serial.TypeInt || c.Type == serial.TypeFloat {
				return c
			}
		}
	}
	return nil
}

var extractFuncName = map[serial.AttrType]string{
	serial.TypeString: "sinew_extract_text",
	serial.TypeInt:    "sinew_extract_int",
	serial.TypeFloat:  "sinew_extract_real",
	serial.TypeBool:   "sinew_extract_bool",
	serial.TypeArray:  "sinew_extract_array",
	serial.TypeObject: "sinew_extract_doc",
}

// extractCall builds the extraction expression for a key of a collection.
// When a prefix of a dotted key is itself a nested-object column with a
// physical name, the value no longer lives in the reservoir: extraction is
// routed into that column's serialized sub-record (COALESCEd with the
// reservoir while the parent is dirty).
func extractCall(t *rwTable, key string, typ serial.AttrType) sqlparse.Expr {
	fromReservoir := rawExtract(typ, &sqlparse.ColumnRef{Table: t.eff, Name: ReservoirColumn}, key)
	// Longest materialized parent prefix wins.
	for i := len(key) - 1; i > 0; i-- {
		if key[i] != '.' {
			continue
		}
		parent, ok := t.view.objects[key[:i]]
		if !ok {
			continue
		}
		fromParent := rawExtract(typ, &sqlparse.ColumnRef{Table: t.eff, Name: parent.PhysicalName}, key[i+1:])
		if parent.Dirty {
			return &sqlparse.FuncCall{Name: "coalesce", Args: []sqlparse.Expr{fromParent, fromReservoir}}
		}
		return fromParent
	}
	return fromReservoir
}

func rawExtract(t serial.AttrType, source sqlparse.Expr, key string) sqlparse.Expr {
	return &sqlparse.FuncCall{Name: extractFuncName[t], Args: []sqlparse.Expr{
		source, &sqlparse.Literal{Val: types.NewText(key)},
	}}
}

func displayName(cr *sqlparse.ColumnRef) string {
	if cr.Table != "" {
		return cr.Table + "." + cr.Name
	}
	return cr.Name
}

// matchesCall rewrites matches(keys, query) (§4.3): the text index is
// searched at rewrite time and the resulting row-ID set is probed per row.
func (rw *rewriter) matchesCall(x *sqlparse.FuncCall) (sqlparse.Expr, error) {
	if rw.db.index == nil {
		return nil, fmt.Errorf("core: matches() requires the text index (Config.EnableTextIndex)")
	}
	if len(x.Args) != 2 {
		return nil, fmt.Errorf("core: matches(keys, query) takes exactly two arguments")
	}
	keysLit, ok1 := x.Args[0].(*sqlparse.Literal)
	queryLit, ok2 := x.Args[1].(*sqlparse.Literal)
	if !ok1 || !ok2 || keysLit.Val.Typ != types.Text || queryLit.Val.Typ != types.Text {
		return nil, fmt.Errorf("core: matches() arguments must be string literals")
	}
	var sinewTable *rwTable
	for i := range rw.tables {
		if rw.tables[i].view != nil {
			sinewTable = &rw.tables[i]
			break
		}
	}
	if sinewTable == nil {
		return nil, fmt.Errorf("core: matches() requires a Sinew collection in FROM")
	}
	var ids []textindex.DocID
	var err error
	ids, err = rw.db.index.Query(keysLit.Val.Text(), queryLit.Val.Text())
	if err != nil {
		return nil, err
	}
	handle := rw.db.registerMatchSet(ids)
	rw.handles = append(rw.handles, handle)
	return &sqlparse.FuncCall{Name: "sinew_match_set", Args: []sqlparse.Expr{
		&sqlparse.ColumnRef{Table: sinewTable.eff, Name: IDColumn},
		&sqlparse.Literal{Val: types.NewInt(handle)},
	}}, nil
}

// ---------- UPDATE / DELETE ----------

func (rw *rewriter) updateStmt(st *sqlparse.UpdateStmt) (sqlparse.Statement, error) {
	if err := rw.bindTables([]sqlparse.TableRef{{Name: st.Table}}); err != nil {
		return nil, err
	}
	t := &rw.tables[0]
	if t.view == nil {
		return st, nil // plain table: pass through
	}
	out := &sqlparse.UpdateStmt{Table: st.Table}
	// The reservoir update expression accumulates virtual-column writes.
	dataExpr := sqlparse.Expr(&sqlparse.ColumnRef{Table: t.eff, Name: ReservoirColumn})
	dataTouched := false

	for _, set := range st.Set {
		rhs, err := rw.expr(set.Value, hintNone)
		if err != nil {
			return nil, err
		}
		cands := t.candidates(set.Column)
		var col *ColumnState
		if len(cands) > 0 {
			col = pickCandidate(cands, rw.hintOf(set.Value))
			if col == nil {
				col = &cands[0]
			}
		}
		switch {
		case col != nil && col.PhysicalName != "" && !col.Dirty:
			out.Set = append(out.Set, sqlparse.SetClause{Column: col.PhysicalName, Value: rhs})
		case col != nil && col.PhysicalName != "":
			// Dirty: write the physical column and purge any reservoir copy
			// so the two locations never disagree.
			out.Set = append(out.Set, sqlparse.SetClause{Column: col.PhysicalName, Value: rhs})
			dataExpr = &sqlparse.FuncCall{Name: "sinew_remove_key", Args: []sqlparse.Expr{
				dataExpr, &sqlparse.Literal{Val: types.NewText(set.Column)},
			}}
			dataTouched = true
		default:
			// Virtual (or brand new) key: write into the reservoir. A
			// brand-new key, or one whose columns are all virtual written
			// with a value of a type none of them has, is cataloged as
			// (key, type) at once, as the loader catalogs it, so it joins
			// the logical schema (§3.2.1's invisible schema evolution).
			at, typed := attrFromHint(rw.hintOf(set.Value))
			if col == nil && !typed {
				at, typed = serial.TypeString, true
			}
			if typed && !slices.ContainsFunc(cands, func(c ColumnState) bool { return c.Type == at || c.PhysicalName != "" }) {
				if t.cat.ensureColumn(serial.Attr{
					ID: rw.db.dict().IDFor(set.Column, at), Key: set.Column, Type: at,
				}) {
					rw.cataloged = true
				}
				// Rebind so the rest of the statement resolves the new key.
				t.view = t.cat.schemaView()
			}
			dataExpr = &sqlparse.FuncCall{Name: "sinew_set_key", Args: []sqlparse.Expr{
				dataExpr, &sqlparse.Literal{Val: types.NewText(set.Column)}, rhs,
			}}
			dataTouched = true
		}
	}
	if dataTouched {
		out.Set = append(out.Set, sqlparse.SetClause{Column: ReservoirColumn, Value: dataExpr})
	}
	if st.Where != nil {
		w, err := rw.expr(st.Where, hintNone)
		if err != nil {
			return nil, err
		}
		out.Where = w
	}
	return out, nil
}

func (rw *rewriter) deleteStmt(st *sqlparse.DeleteStmt) (sqlparse.Statement, error) {
	if err := rw.bindTables([]sqlparse.TableRef{{Name: st.Table}}); err != nil {
		return nil, err
	}
	if rw.tables[0].view == nil {
		return st, nil
	}
	out := &sqlparse.DeleteStmt{Table: st.Table}
	if st.Where != nil {
		w, err := rw.expr(st.Where, hintNone)
		if err != nil {
			return nil, err
		}
		out.Where = w
	}
	return out, nil
}
