// Package pgjson is the Postgres-9.3-JSON baseline of §6.1: documents are
// stored as raw JSON text in a single column of the embedded RDBMS and key
// dereferences happen through a UDF that re-parses the text per call. The
// package faithfully reproduces the baseline's documented deficiencies:
//
//   - extraction returns a JSON-text datum that must be CAST, so a key
//     holding values of multiple types raises a runtime error mid-query
//     (Q7 "cannot be executed", §6.4);
//   - the optimizer has no statistics on anything inside the JSON column,
//     so plans over it mis-estimate (§6.5's HashAggregate mis-plan);
//   - array predicates are inexpressible and fall back to a textually
//     approximate LIKE over the serialized array (§6.7).
package pgjson

import (
	"fmt"
	"strings"

	"github.com/sinewdata/sinew/internal/jsonx"
	"github.com/sinewdata/sinew/internal/rdbms"
	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// jsonParseCost is the optimizer's per-call cost of json_extract: parsing
// JSON text dwarfs binary extraction (the reason the paper's projection
// queries are CPU-bound on this baseline).
const jsonParseCost = 2.5

// DB is a Postgres-JSON-style store.
type DB struct {
	rdb               *rdbms.DB
	jsonSetRegistered bool
}

// Open creates the store and registers the json_extract UDF.
func Open() *DB {
	db := &DB{rdb: rdbms.Open()}
	db.rdb.RegisterFunc(&exec.FuncDef{
		Name: "json_extract", MinArgs: 2, MaxArgs: 2,
		RetType:     func([]types.Type) types.Type { return types.Text },
		CostPerCall: jsonParseCost,
		Opaque:      true,
		Eval:        evalJSONExtract,
	})
	return db
}

// evalJSONExtract parses the JSON text and returns the value at the dotted
// path rendered as text (Postgres's ->> semantics): the full parse happens
// on every call, which is the baseline's fundamental CPU cost.
func evalJSONExtract(args []types.Datum) (types.Datum, error) {
	if args[0].IsNull() || args[1].IsNull() {
		return types.NewNull(types.Text), nil
	}
	if args[0].Typ != types.Text || args[1].Typ != types.Text {
		return types.Datum{}, fmt.Errorf("json_extract: arguments must be text")
	}
	doc, err := jsonx.ParseDocument([]byte(args[0].Text()))
	if err != nil {
		return types.Datum{}, fmt.Errorf("json_extract: invalid JSON: %w", err)
	}
	v, ok := jsonx.PathGet(doc, args[1].Text())
	if !ok || v.Kind == jsonx.Null {
		return types.NewNull(types.Text), nil
	}
	if v.Kind == jsonx.String {
		return types.NewText(v.S), nil
	}
	return types.NewText(v.String()), nil
}

// RDBMS exposes the underlying engine.
func (db *DB) RDBMS() *rdbms.DB { return db.rdb }

// CreateCollection creates the one-column JSON-text table.
func (db *DB) CreateCollection(name string) error {
	return db.rdb.CreateTable(strings.ToLower(name), []storage.Column{
		{Name: "data", Typ: types.Text},
	}, false)
}

// LoadJSON bulk-loads raw JSON document texts. Like Postgres, only syntax
// validation happens at load time (the fastest loader in Table 3).
func (db *DB) LoadJSON(collection string, docs []string) error {
	rows := make([]storage.Row, len(docs))
	for i, d := range docs {
		if _, err := jsonx.ParseDocument([]byte(d)); err != nil {
			return fmt.Errorf("pgjson: document %d: %w", i, err)
		}
		rows[i] = storage.Row{types.NewText(d)}
	}
	return db.rdb.InsertRows(strings.ToLower(collection), rows)
}

// Query rewrites a logical-schema SELECT/UPDATE the way a user of Postgres
// JSON must write it by hand — every key reference becomes
// CAST(json_extract(data, 'key') AS t) — and executes it.
func (db *DB) Query(sql string) (*rdbms.Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	rewritten, err := db.rewrite(stmt)
	if err != nil {
		return nil, err
	}
	return db.rdb.ExecStmt(rewritten)
}

// Explain plans the rewritten query.
func (db *DB) Explain(sql string) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	rewritten, err := db.rewrite(stmt)
	if err != nil {
		return "", err
	}
	sel, ok := rewritten.(*sqlparse.SelectStmt)
	if !ok {
		return "", fmt.Errorf("pgjson: EXPLAIN supports only SELECT")
	}
	return db.rdb.ExplainSelect(sel)
}

func (db *DB) rewrite(stmt sqlparse.Statement) (sqlparse.Statement, error) {
	switch st := stmt.(type) {
	case *sqlparse.SelectStmt:
		out := &sqlparse.SelectStmt{Distinct: st.Distinct, From: st.From, Limit: st.Limit}
		for _, item := range st.Items {
			if item.Star {
				// SELECT * returns the raw JSON column.
				out.Items = append(out.Items, sqlparse.SelectItem{
					Expr: &sqlparse.ColumnRef{Name: "data"},
				})
				continue
			}
			e, err := db.rewriteExpr(item.Expr, types.Unknown)
			if err != nil {
				return nil, err
			}
			alias := item.Alias
			if alias == "" {
				if cr, ok := item.Expr.(*sqlparse.ColumnRef); ok {
					alias = cr.Name
				}
			}
			out.Items = append(out.Items, sqlparse.SelectItem{Expr: e, Alias: alias})
		}
		var err error
		if st.Where != nil {
			if out.Where, err = db.rewriteExpr(st.Where, types.Bool); err != nil {
				return nil, err
			}
		}
		for _, g := range st.GroupBy {
			ge, err := db.rewriteExpr(g, types.Unknown)
			if err != nil {
				return nil, err
			}
			out.GroupBy = append(out.GroupBy, ge)
		}
		if st.Having != nil {
			if out.Having, err = db.rewriteExpr(st.Having, types.Bool); err != nil {
				return nil, err
			}
		}
		for _, o := range st.OrderBy {
			oe, err := db.rewriteExpr(o.Expr, types.Unknown)
			if err != nil {
				return nil, err
			}
			out.OrderBy = append(out.OrderBy, sqlparse.OrderItem{Expr: oe, Desc: o.Desc})
		}
		return out, nil
	case *sqlparse.UpdateStmt:
		// Postgres 9.3 JSON had no in-place JSON mutation; the realistic
		// translation rewrites the whole document text in the SET clause.
		out := &sqlparse.UpdateStmt{Table: st.Table}
		for _, set := range st.Set {
			rhs, err := db.rewriteExpr(set.Value, types.Unknown)
			if err != nil {
				return nil, err
			}
			out.Set = append(out.Set, sqlparse.SetClause{
				Column: "data",
				Value: &sqlparse.FuncCall{Name: "json_set", Args: []sqlparse.Expr{
					&sqlparse.ColumnRef{Name: "data"},
					&sqlparse.Literal{Val: types.NewText(set.Column)},
					rhs,
				}},
			})
		}
		var err error
		if st.Where != nil {
			if out.Where, err = db.rewriteExpr(st.Where, types.Bool); err != nil {
				return nil, err
			}
		}
		db.ensureJSONSet()
		return out, nil
	default:
		return stmt, nil
	}
}

// ensureJSONSet registers the whole-document rewrite function used by
// UPDATE: parse text, set key, re-serialize — the expensive text round
// trip behind Figure 8's pgjson bar.
func (db *DB) ensureJSONSet() {
	if db.jsonSetRegistered {
		return
	}
	db.jsonSetRegistered = true
	db.rdb.RegisterFunc(&exec.FuncDef{
		Name: "json_set", MinArgs: 3, MaxArgs: 3,
		RetType:     func([]types.Type) types.Type { return types.Text },
		CostPerCall: jsonParseCost * 2,
		Opaque:      true,
		Eval: func(args []types.Datum) (types.Datum, error) {
			if args[0].IsNull() {
				return types.NewNull(types.Text), nil
			}
			doc, err := jsonx.ParseDocument([]byte(args[0].Text()))
			if err != nil {
				return types.Datum{}, err
			}
			var v jsonx.Value
			switch args[2].Typ {
			case types.Text:
				v = jsonx.StringValue(args[2].Text())
			case types.Int:
				v = jsonx.IntValue(args[2].I)
			case types.Float:
				v = jsonx.FloatValue(args[2].Float())
			case types.Bool:
				v = jsonx.BoolValue(args[2].Bool())
			default:
				v = jsonx.NullValue()
			}
			doc.Set(args[1].Text(), v)
			return types.NewText(jsonx.ObjectValue(doc).String()), nil
		},
	})
}

// rewriteExpr maps logical references to CAST(json_extract(...) AS t). The
// want type flows from comparison contexts; Unknown leaves the text form
// (Postgres's ->> behaviour).
func (db *DB) rewriteExpr(e sqlparse.Expr, want types.Type) (sqlparse.Expr, error) {
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *sqlparse.Literal:
		return x, nil
	case *sqlparse.ColumnRef:
		if x.Name == "data" {
			return x, nil
		}
		extract := &sqlparse.FuncCall{Name: "json_extract", Args: []sqlparse.Expr{
			&sqlparse.ColumnRef{Table: x.Table, Name: "data"},
			&sqlparse.Literal{Val: types.NewText(x.Name)},
		}}
		if want == types.Unknown || want == types.Text || want == types.Bool {
			if want == types.Bool {
				return &sqlparse.CastExpr{X: extract, To: types.Bool}, nil
			}
			return extract, nil
		}
		// The CAST is where multi-typed keys blow up at runtime (§6.4).
		return &sqlparse.CastExpr{X: extract, To: want}, nil
	case *sqlparse.BinaryExpr:
		lw, rw := types.Unknown, types.Unknown
		switch x.Op {
		case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
			lw, rw = typeOfLiteral(x.R), typeOfLiteral(x.L)
		case sqlparse.OpAnd, sqlparse.OpOr:
			lw, rw = types.Bool, types.Bool
		case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul, sqlparse.OpDiv, sqlparse.OpMod:
			lw, rw = types.Float, types.Float
		}
		l, err := db.rewriteExpr(x.L, lw)
		if err != nil {
			return nil, err
		}
		r, err := db.rewriteExpr(x.R, rw)
		if err != nil {
			return nil, err
		}
		return &sqlparse.BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *sqlparse.UnaryExpr:
		sub, err := db.rewriteExpr(x.X, want)
		if err != nil {
			return nil, err
		}
		return &sqlparse.UnaryExpr{Op: x.Op, X: sub}, nil
	case *sqlparse.IsNullExpr:
		sub, err := db.rewriteExpr(x.X, types.Unknown)
		if err != nil {
			return nil, err
		}
		return &sqlparse.IsNullExpr{X: sub, Not: x.Not}, nil
	case *sqlparse.BetweenExpr:
		// Postgres rewrites BETWEEN into two comparisons without
		// precomputing the shared operand (§6.4) — json_extract runs twice
		// per row. We reproduce that by emitting the two comparisons.
		bt := typeOfLiteral(x.Lo)
		if bt == types.Unknown {
			bt = typeOfLiteral(x.Hi)
		}
		sub1, err := db.rewriteExpr(x.X, bt)
		if err != nil {
			return nil, err
		}
		sub2, err := db.rewriteExpr(x.X, bt)
		if err != nil {
			return nil, err
		}
		lo, err := db.rewriteExpr(x.Lo, types.Unknown)
		if err != nil {
			return nil, err
		}
		hi, err := db.rewriteExpr(x.Hi, types.Unknown)
		if err != nil {
			return nil, err
		}
		cmp := &sqlparse.BinaryExpr{Op: sqlparse.OpAnd,
			L: &sqlparse.BinaryExpr{Op: sqlparse.OpGe, L: sub1, R: lo},
			R: &sqlparse.BinaryExpr{Op: sqlparse.OpLe, L: sub2, R: hi},
		}
		if x.Not {
			return &sqlparse.UnaryExpr{Op: "NOT", X: cmp}, nil
		}
		return cmp, nil
	case *sqlparse.InListExpr:
		var lt types.Type
		for _, le := range x.List {
			if lt = typeOfLiteral(le); lt != types.Unknown {
				break
			}
		}
		sub, err := db.rewriteExpr(x.X, lt)
		if err != nil {
			return nil, err
		}
		list := make([]sqlparse.Expr, len(x.List))
		for i, le := range x.List {
			if list[i], err = db.rewriteExpr(le, types.Unknown); err != nil {
				return nil, err
			}
		}
		return &sqlparse.InListExpr{X: sub, List: list, Not: x.Not}, nil
	case *sqlparse.LikeExpr:
		sub, err := db.rewriteExpr(x.X, types.Text)
		if err != nil {
			return nil, err
		}
		pat, err := db.rewriteExpr(x.Pattern, types.Text)
		if err != nil {
			return nil, err
		}
		return &sqlparse.LikeExpr{X: sub, Pattern: pat, Not: x.Not}, nil
	case *sqlparse.AnyExpr:
		// Array containment is inexpressible over the JSON text type; the
		// paper used "the approximate, but technically incorrect LIKE
		// predicate over the text representation of the array" (§6.7).
		lit, ok := x.X.(*sqlparse.Literal)
		if !ok {
			return nil, fmt.Errorf("pgjson: array containment supports only literal probes")
		}
		arr, err := db.rewriteExpr(x.Array, types.Text)
		if err != nil {
			return nil, err
		}
		var pat string
		if lit.Val.Typ == types.Text {
			pat = "%\"" + lit.Val.Text() + "\"%"
		} else {
			pat = "%" + lit.Val.String() + "%"
		}
		return &sqlparse.LikeExpr{X: arr, Pattern: &sqlparse.Literal{Val: types.NewText(pat)}}, nil
	case *sqlparse.CastExpr:
		sub, err := db.rewriteExpr(x.X, x.To)
		if err != nil {
			return nil, err
		}
		if _, isCast := sub.(*sqlparse.CastExpr); isCast {
			return sub, nil
		}
		return &sqlparse.CastExpr{X: sub, To: x.To}, nil
	case *sqlparse.FuncCall:
		args := make([]sqlparse.Expr, len(x.Args))
		argWant := types.Unknown
		if x.Name == "sum" || x.Name == "avg" || x.Name == "min" || x.Name == "max" {
			argWant = types.Float
		}
		for i, a := range x.Args {
			var err error
			if args[i], err = db.rewriteExpr(a, argWant); err != nil {
				return nil, err
			}
		}
		return &sqlparse.FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}, nil
	default:
		return nil, fmt.Errorf("pgjson: unsupported expression %T", e)
	}
}

func typeOfLiteral(e sqlparse.Expr) types.Type {
	if lit, ok := e.(*sqlparse.Literal); ok {
		return lit.Val.Typ
	}
	return types.Unknown
}
