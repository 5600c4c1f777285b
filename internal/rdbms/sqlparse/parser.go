package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(sql string) (Statement, error) {
	return parse(sql, false)
}

// ParseShape parses a statement shape (ScanShape): SQL text in which the
// lifted literals are parameter tokens, each parsed to a *Param. User text
// goes through Parse, which rejects parameter tokens as it always did.
func ParseShape(shape string) (Statement, error) {
	return parse(shape, true)
}

func parse(sql string, params bool) (Statement, error) {
	toks, buf, err := lexPooled(sql, params)
	defer putTokens(buf, toks)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.eatOp(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected %q after statement", p.cur().text)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.cur().kind == tkEOF }

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tkEOF {
		p.i++
	}
	return t
}

// peekKeyword reports whether the current token is the given keyword.
func (p *parser) peekKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tkKeyword && t.text == kw
}

// eatKeyword consumes the keyword if present.
func (p *parser) eatKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.i++
		return true
	}
	return false
}

// expectKeyword consumes the keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	if !p.eatKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.cur().text)
	}
	return nil
}

// peekOp reports whether the current token is the given operator text.
func (p *parser) peekOp(op string) bool {
	t := p.cur()
	return t.kind == tkOp && t.text == op
}

// eatOp consumes the operator if present.
func (p *parser) eatOp(op string) bool {
	if p.peekOp(op) {
		p.i++
		return true
	}
	return false
}

// expectOp consumes the operator or fails.
func (p *parser) expectOp(op string) error {
	if !p.eatOp(op) {
		return p.errf("expected %q, found %q", op, p.cur().text)
	}
	return nil
}

// parseIdent accepts a (quoted or plain) identifier.
func (p *parser) parseIdent() (string, error) {
	t := p.cur()
	if t.kind == tkIdent || t.kind == tkQuotedIdent {
		p.advance()
		return t.text, nil
	}
	return "", p.errf("expected identifier, found %q", t.text)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.cur()
	if t.kind != tkKeyword {
		return nil, p.errf("expected statement keyword, found %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreateTable()
	case "DROP":
		return p.parseDropTable()
	case "ALTER":
		return p.parseAlterTable()
	case "TRUNCATE":
		return p.parseTruncate()
	case "EXPLAIN":
		p.advance()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner}, nil
	case "ANALYZE":
		p.advance()
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		return &AnalyzeStmt{Table: name}, nil
	case "SET":
		return p.parseSet()
	default:
		return nil, p.errf("unsupported statement %q", t.text)
	}
}

// ---------- SELECT ----------

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	if p.eatKeyword("DISTINCT") {
		s.Distinct = true
	}
	// Projections.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.eatOp(",") {
			break
		}
	}
	// FROM (optional: SELECT 1+1 is allowed).
	if p.eatKeyword("FROM") {
		if err := p.parseFromClause(s); err != nil {
			return nil, err
		}
	}
	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = conjoin(s.Where, w)
	}
	if p.eatKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if p.eatKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.eatKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if p.eatKeyword("DESC") {
				oi.Desc = true
			} else {
				p.eatKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, oi)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if p.eatKeyword("LIMIT") {
		t := p.cur()
		if t.kind != tkNumber {
			return nil, p.errf("expected number after LIMIT")
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT value %q", t.text)
		}
		p.advance()
		s.Limit = n
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// "*" or "t.*"
	if p.peekOp("*") {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	if (p.cur().kind == tkIdent || p.cur().kind == tkQuotedIdent) &&
		p.toks[p.i+1].kind == tkOp && p.toks[p.i+1].text == "." &&
		p.toks[p.i+2].kind == tkOp && p.toks[p.i+2].text == "*" {
		tbl := p.cur().text
		p.i += 3
		return SelectItem{Star: true, Table: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.eatKeyword("AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.cur().kind == tkIdent || p.cur().kind == tkQuotedIdent {
		// Bare alias.
		item.Alias = p.advance().text
	}
	return item, nil
}

// parseFromClause handles comma-separated tables and JOIN ... ON chains,
// normalizing ON conditions into WHERE conjuncts.
func (p *parser) parseFromClause(s *SelectStmt) error {
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return err
		}
		s.From = append(s.From, ref)
		// JOIN chain attached to this table.
		for {
			explicitInner := false
			if p.eatKeyword("INNER") {
				explicitInner = true
			} else if p.eatKeyword("CROSS") {
				if err := p.expectKeyword("JOIN"); err != nil {
					return err
				}
				ref2, err := p.parseTableRef()
				if err != nil {
					return err
				}
				s.From = append(s.From, ref2)
				continue
			} else if p.peekKeyword("LEFT") || p.peekKeyword("RIGHT") {
				return p.errf("outer joins are not supported")
			}
			if !p.eatKeyword("JOIN") {
				if explicitInner {
					return p.errf("expected JOIN after INNER")
				}
				break
			}
			ref2, err := p.parseTableRef()
			if err != nil {
				return err
			}
			s.From = append(s.From, ref2)
			if err := p.expectKeyword("ON"); err != nil {
				return err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return err
			}
			s.Where = conjoin(s.Where, cond)
		}
		if !p.eatOp(",") {
			return nil
		}
	}
}

func (p *parser) parseTableRef() (TableRef, error) {
	if p.eatOp("(") {
		return TableRef{}, p.errf("subqueries in FROM are not supported")
	}
	name, err := p.parseIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.eatKeyword("AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.cur().kind == tkIdent || p.cur().kind == tkQuotedIdent {
		ref.Alias = p.advance().text
	}
	return ref, nil
}

func conjoin(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &BinaryExpr{Op: OpAnd, L: a, R: b}
}

// ---------- DML ----------

func (p *parser) parseInsert() (*InsertStmt, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.eatOp("(") {
		for {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.eatOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.eatOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.eatOp(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	p.advance() // UPDATE
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	u := &UpdateStmt{Table: table}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, SetClause{Column: col, Value: val})
		if !p.eatOp(",") {
			break
		}
	}
	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	return u, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	d := &DeleteStmt{Table: table}
	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

// ---------- DDL ----------

func (p *parser) parseCreateTable() (*CreateTableStmt, error) {
	p.advance() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	c := &CreateTableStmt{}
	if p.eatKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		c.IfNotExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	c.Table = name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		def, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		c.Columns = append(c.Columns, def)
		if !p.eatOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.parseIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	typTok := p.cur()
	if typTok.kind != tkIdent && typTok.kind != tkKeyword {
		return ColumnDef{}, p.errf("expected type name for column %q", name)
	}
	p.advance()
	typName := typTok.text
	// "double precision" is two words.
	if strings.EqualFold(typName, "double") && p.cur().kind == tkIdent && p.cur().text == "precision" {
		p.advance()
		typName = "double precision"
	}
	// varchar(n) / char(n): length is parsed and ignored.
	if p.eatOp("(") {
		if p.cur().kind != tkNumber {
			return ColumnDef{}, p.errf("expected length in type %q", typName)
		}
		p.advance()
		if err := p.expectOp(")"); err != nil {
			return ColumnDef{}, err
		}
	}
	typ, err := types.ParseType(typName)
	if err != nil {
		return ColumnDef{}, p.errf("unknown type %q", typName)
	}
	def := ColumnDef{Name: name, Typ: typ}
	for {
		switch {
		case p.eatKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return ColumnDef{}, err
			}
			def.NotNull = true
		case p.eatKeyword("NULL"):
			// default; no-op
		case p.eatKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return ColumnDef{}, err
			}
			def.NotNull = true
		default:
			return def, nil
		}
	}
}

func (p *parser) parseDropTable() (*DropTableStmt, error) {
	p.advance() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	d := &DropTableStmt{}
	if p.eatKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		d.IfExists = true
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	d.Table = name
	return d, nil
}

func (p *parser) parseAlterTable() (*AlterTableStmt, error) {
	p.advance() // ALTER
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	a := &AlterTableStmt{Table: name}
	switch {
	case p.eatKeyword("ADD"):
		p.eatKeyword("COLUMN")
		def, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		a.AddColumn = &def
	case p.eatKeyword("DROP"):
		p.eatKeyword("COLUMN")
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		a.DropColumn = col
	default:
		return nil, p.errf("expected ADD or DROP after ALTER TABLE name")
	}
	return a, nil
}

func (p *parser) parseTruncate() (*TruncateStmt, error) {
	p.advance() // TRUNCATE
	p.eatKeyword("TABLE")
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &TruncateStmt{Table: name}, nil
}

// parseSet parses SET name = value (also accepting the Postgres spelling
// SET name TO value). Values are an integer, a number, a string, TRUE/FALSE,
// or a bare identifier (on/off map to booleans, anything else is text).
func (p *parser) parseSet() (*SetStmt, error) {
	p.advance() // SET
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if !p.eatOp("=") {
		// TO is not a reserved word, so it arrives as a plain identifier.
		if t := p.cur(); t.kind == tkIdent && strings.EqualFold(t.text, "to") {
			p.advance()
		} else {
			return nil, p.errf("expected = or TO after SET %s", name)
		}
	}
	t := p.cur()
	var val types.Datum
	switch {
	case t.kind == tkNumber:
		p.advance()
		if n, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			val = types.NewInt(n)
		} else if f, err := strconv.ParseFloat(t.text, 64); err == nil {
			val = types.NewFloat(f)
		} else {
			return nil, p.errf("bad SET value %q", t.text)
		}
	case t.kind == tkString:
		p.advance()
		val = types.NewText(t.text)
	case t.kind == tkKeyword && (t.text == "TRUE" || t.text == "ON"):
		p.advance()
		val = types.NewBool(true)
	case t.kind == tkKeyword && t.text == "FALSE":
		p.advance()
		val = types.NewBool(false)
	case t.kind == tkIdent || t.kind == tkQuotedIdent:
		p.advance()
		switch strings.ToLower(t.text) {
		case "on":
			val = types.NewBool(true)
		case "off":
			val = types.NewBool(false)
		default:
			val = types.NewText(t.text)
		}
	default:
		return nil, p.errf("expected value after SET %s, found %q", name, t.text)
	}
	return &SetStmt{Name: strings.ToLower(name), Value: val}, nil
}

// ---------- Expressions ----------
// Precedence (low to high): OR, AND, NOT, comparison/IS/BETWEEN/IN/LIKE,
// additive (+ - ||), multiplicative (* / %), unary minus, postfix/primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.eatKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekOp("=") || p.peekOp("<>") || p.peekOp("!=") || p.peekOp("<") ||
			p.peekOp("<=") || p.peekOp(">") || p.peekOp(">="):
			opText := p.advance().text
			var op BinOp
			switch opText {
			case "=":
				op = OpEq
			case "<>", "!=":
				op = OpNe
			case "<":
				op = OpLt
			case "<=":
				op = OpLe
			case ">":
				op = OpGt
			case ">=":
				op = OpGe
			}
			// x = ANY(expr)
			if p.eatKeyword("ANY") {
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				arr, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				l = &AnyExpr{X: l, Op: op, Array: arr}
				continue
			}
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
		case p.peekKeyword("IS"):
			p.advance()
			not := p.eatKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{X: l, Not: not}
		case p.peekKeyword("BETWEEN"), p.peekKeyword("NOT") && p.toks[p.i+1].kind == tkKeyword && p.toks[p.i+1].text == "BETWEEN":
			not := p.eatKeyword("NOT")
			if err := p.expectKeyword("BETWEEN"); err != nil {
				return nil, err
			}
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}
		case p.peekKeyword("IN"), p.peekKeyword("NOT") && p.toks[p.i+1].kind == tkKeyword && p.toks[p.i+1].text == "IN":
			not := p.eatKeyword("NOT")
			if err := p.expectKeyword("IN"); err != nil {
				return nil, err
			}
			// "x IN column" (NoBench Q8 array containment) is accepted as
			// sugar for x = ANY(column) when no parenthesized list follows.
			if !p.peekOp("(") {
				arr, err := p.parseAdditive()
				if err != nil {
					return nil, err
				}
				in := Expr(&AnyExpr{X: l, Op: OpEq, Array: arr})
				if not {
					in = &UnaryExpr{Op: "NOT", X: in}
				}
				l = in
				continue
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if !p.eatOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			l = &InListExpr{X: l, List: list, Not: not}
		case p.peekKeyword("LIKE"), p.peekKeyword("NOT") && p.toks[p.i+1].kind == tkKeyword && p.toks[p.i+1].text == "LIKE":
			not := p.eatKeyword("NOT")
			if err := p.expectKeyword("LIKE"); err != nil {
				return nil, err
			}
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &LikeExpr{X: l, Pattern: pat, Not: not}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.peekOp("+"):
			op = OpAdd
		case p.peekOp("-"):
			op = OpSub
		case p.peekOp("||"):
			op = OpConcat
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.peekOp("*"):
			op = OpMul
		case p.peekOp("/"):
			op = OpDiv
		case p.peekOp("%"):
			op = OpMod
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.eatOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold -literal immediately so "-5" is a constant.
		if lit, ok := x.(*Literal); ok && lit.Val.IsNumeric() {
			return &Literal{Val: negate(lit.Val)}, nil
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	p.eatOp("+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tkNumber:
		p.advance()
		d, ok := numberDatum(t.text)
		if !ok {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Literal{Val: d}, nil
	case tkParam:
		p.advance()
		return paramOf(t.text), nil
	case tkString:
		p.advance()
		return &Literal{Val: types.NewText(t.text)}, nil
	case tkKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Val: types.NewNull(types.Unknown)}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: types.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: types.NewBool(false)}, nil
		case "CAST":
			p.advance()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			typTok := p.cur()
			if typTok.kind != tkIdent && typTok.kind != tkKeyword {
				return nil, p.errf("expected type name in CAST")
			}
			p.advance()
			typName := typTok.text
			if strings.EqualFold(typName, "double") && p.cur().kind == tkIdent && p.cur().text == "precision" {
				p.advance()
				typName = "double precision"
			}
			typ, err := types.ParseType(typName)
			if err != nil {
				return nil, p.errf("unknown type %q in CAST", typName)
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &CastExpr{X: x, To: typ}, nil
		default:
			return nil, p.errf("unexpected keyword %q in expression", t.text)
		}
	case tkOp:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %q in expression", t.text)
	case tkIdent, tkQuotedIdent:
		name := t.text
		p.advance()
		// Function call?
		if t.kind == tkIdent && p.peekOp("(") {
			p.advance()
			fc := &FuncCall{Name: strings.ToLower(name)}
			if p.eatOp("*") {
				fc.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.eatKeyword("DISTINCT") {
				fc.Distinct = true
			}
			if !p.eatOp(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if !p.eatOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		// Qualified column: t.col or t."user.id".
		if p.peekOp(".") {
			p.advance()
			colTok := p.cur()
			if colTok.kind != tkIdent && colTok.kind != tkQuotedIdent {
				return nil, p.errf("expected column name after %q.", name)
			}
			p.advance()
			return &ColumnRef{Table: name, Name: colTok.text}, nil
		}
		return &ColumnRef{Name: name}, nil
	default:
		return nil, p.errf("unexpected token %q", t.text)
	}
}

// numberDatum converts a number token: an integer unless it has a point or
// an exponent or overflows int64, a real otherwise. ok is false for text
// that is no number (a dangling exponent, a real out of range).
func numberDatum(text string) (types.Datum, bool) {
	if !strings.ContainsAny(text, ".eE") {
		if i, err := strconv.ParseInt(text, 10, 64); err == nil {
			return types.NewInt(i), true
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return types.Datum{}, false
	}
	return types.NewFloat(f), true
}

// negate is the value of -d for a numeric d, as the parser folds it.
func negate(d types.Datum) types.Datum {
	if d.Typ == types.Int {
		return types.NewInt(-d.I)
	}
	return types.NewFloat(-d.Float())
}

// paramOf decodes a parameter token the lexer accepted: $, a class
// letter, a 1-based slot.
func paramOf(text string) *Param {
	slot := 0
	for i := 2; i < len(text); i++ {
		slot = slot*10 + int(text[i]-'0')
	}
	typ := types.Text
	switch text[1] {
	case 'i':
		typ = types.Int
	case 'f':
		typ = types.Float
	}
	return &Param{Slot: slot - 1, Typ: typ}
}
