package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Print renders a statement back to SQL text. The output is valid input to
// Parse; round-tripping is covered by tests. Identifiers are quoted only
// when needed (non-lowercase characters, dots, or keyword collisions).
func Print(s Statement) string {
	var sb strings.Builder
	printStatement(&sb, s)
	return sb.String()
}

// PrintExpr renders an expression to SQL text.
func PrintExpr(e Expr) string {
	var sb strings.Builder
	printExpr(&sb, e)
	return sb.String()
}

func printStatement(sb *strings.Builder, s Statement) {
	switch st := s.(type) {
	case *SelectStmt:
		sb.WriteString("SELECT ")
		if st.Distinct {
			sb.WriteString("DISTINCT ")
		}
		for i, item := range st.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			switch {
			case item.Star && item.Table != "":
				quoteIdent(sb, item.Table)
				sb.WriteString(".*")
			case item.Star:
				sb.WriteString("*")
			default:
				printExpr(sb, item.Expr)
				if item.Alias != "" {
					sb.WriteString(" AS ")
					quoteIdent(sb, item.Alias)
				}
			}
		}
		if len(st.From) > 0 {
			sb.WriteString(" FROM ")
			for i, t := range st.From {
				if i > 0 {
					sb.WriteString(", ")
				}
				quoteIdent(sb, t.Name)
				if t.Alias != "" {
					sb.WriteString(" ")
					quoteIdent(sb, t.Alias)
				}
			}
		}
		if st.Where != nil {
			sb.WriteString(" WHERE ")
			printExpr(sb, st.Where)
		}
		if len(st.GroupBy) > 0 {
			sb.WriteString(" GROUP BY ")
			for i, e := range st.GroupBy {
				if i > 0 {
					sb.WriteString(", ")
				}
				printExpr(sb, e)
			}
		}
		if st.Having != nil {
			sb.WriteString(" HAVING ")
			printExpr(sb, st.Having)
		}
		if len(st.OrderBy) > 0 {
			sb.WriteString(" ORDER BY ")
			for i, o := range st.OrderBy {
				if i > 0 {
					sb.WriteString(", ")
				}
				printExpr(sb, o.Expr)
				if o.Desc {
					sb.WriteString(" DESC")
				}
			}
		}
		if st.Limit >= 0 {
			fmt.Fprintf(sb, " LIMIT %d", st.Limit)
		}
	case *InsertStmt:
		sb.WriteString("INSERT INTO ")
		quoteIdent(sb, st.Table)
		if len(st.Columns) > 0 {
			sb.WriteString(" (")
			for i, c := range st.Columns {
				if i > 0 {
					sb.WriteString(", ")
				}
				quoteIdent(sb, c)
			}
			sb.WriteString(")")
		}
		sb.WriteString(" VALUES ")
		for i, row := range st.Rows {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("(")
			for j, e := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				printExpr(sb, e)
			}
			sb.WriteString(")")
		}
	case *UpdateStmt:
		sb.WriteString("UPDATE ")
		quoteIdent(sb, st.Table)
		sb.WriteString(" SET ")
		for i, set := range st.Set {
			if i > 0 {
				sb.WriteString(", ")
			}
			quoteIdent(sb, set.Column)
			sb.WriteString(" = ")
			printExpr(sb, set.Value)
		}
		if st.Where != nil {
			sb.WriteString(" WHERE ")
			printExpr(sb, st.Where)
		}
	case *DeleteStmt:
		sb.WriteString("DELETE FROM ")
		quoteIdent(sb, st.Table)
		if st.Where != nil {
			sb.WriteString(" WHERE ")
			printExpr(sb, st.Where)
		}
	case *CreateTableStmt:
		sb.WriteString("CREATE TABLE ")
		if st.IfNotExists {
			sb.WriteString("IF NOT EXISTS ")
		}
		quoteIdent(sb, st.Table)
		sb.WriteString(" (")
		for i, c := range st.Columns {
			if i > 0 {
				sb.WriteString(", ")
			}
			quoteIdent(sb, c.Name)
			sb.WriteString(" ")
			sb.WriteString(c.Typ.String())
			if c.NotNull {
				sb.WriteString(" NOT NULL")
			}
		}
		sb.WriteString(")")
	case *DropTableStmt:
		sb.WriteString("DROP TABLE ")
		if st.IfExists {
			sb.WriteString("IF EXISTS ")
		}
		quoteIdent(sb, st.Table)
	case *AlterTableStmt:
		sb.WriteString("ALTER TABLE ")
		quoteIdent(sb, st.Table)
		if st.AddColumn != nil {
			sb.WriteString(" ADD COLUMN ")
			quoteIdent(sb, st.AddColumn.Name)
			sb.WriteString(" ")
			sb.WriteString(st.AddColumn.Typ.String())
			if st.AddColumn.NotNull {
				sb.WriteString(" NOT NULL")
			}
		} else {
			sb.WriteString(" DROP COLUMN ")
			quoteIdent(sb, st.DropColumn)
		}
	case *TruncateStmt:
		sb.WriteString("TRUNCATE TABLE ")
		quoteIdent(sb, st.Table)
	case *ExplainStmt:
		sb.WriteString("EXPLAIN ")
		printStatement(sb, st.Stmt)
	case *AnalyzeStmt:
		sb.WriteString("ANALYZE ")
		quoteIdent(sb, st.Table)
	case *SetStmt:
		sb.WriteString("SET ")
		quoteIdent(sb, st.Name)
		sb.WriteString(" = ")
		printExpr(sb, &Literal{Val: st.Value})
	default:
		fmt.Fprintf(sb, "<unknown statement %T>", s)
	}
}

func printExpr(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table != "" {
			quoteIdent(sb, x.Table)
			sb.WriteString(".")
		}
		quoteIdent(sb, x.Name)
	case *Literal:
		printDatumLiteral(sb, x.Val)
	case *Param:
		var buf [24]byte
		sb.Write(appendParamToken(buf[:0], x.Slot, x.Typ))
	case *BinaryExpr:
		sb.WriteString("(")
		printExpr(sb, x.L)
		sb.WriteString(" ")
		sb.WriteString(x.Op.String())
		sb.WriteString(" ")
		printExpr(sb, x.R)
		sb.WriteString(")")
	case *UnaryExpr:
		if x.Op == "NOT" {
			sb.WriteString("(NOT ")
			printExpr(sb, x.X)
			sb.WriteString(")")
		} else {
			sb.WriteString("(-")
			printExpr(sb, x.X)
			sb.WriteString(")")
		}
	case *FuncCall:
		sb.WriteString(x.Name)
		sb.WriteString("(")
		if x.Star {
			sb.WriteString("*")
		} else {
			if x.Distinct {
				sb.WriteString("DISTINCT ")
			}
			for i, a := range x.Args {
				if i > 0 {
					sb.WriteString(", ")
				}
				printExpr(sb, a)
			}
		}
		sb.WriteString(")")
	case *IsNullExpr:
		sb.WriteString("(")
		printExpr(sb, x.X)
		if x.Not {
			sb.WriteString(" IS NOT NULL)")
		} else {
			sb.WriteString(" IS NULL)")
		}
	case *BetweenExpr:
		sb.WriteString("(")
		printExpr(sb, x.X)
		if x.Not {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" BETWEEN ")
		printExpr(sb, x.Lo)
		sb.WriteString(" AND ")
		printExpr(sb, x.Hi)
		sb.WriteString(")")
	case *InListExpr:
		sb.WriteString("(")
		printExpr(sb, x.X)
		if x.Not {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" IN (")
		for i, a := range x.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			printExpr(sb, a)
		}
		sb.WriteString("))")
	case *LikeExpr:
		sb.WriteString("(")
		printExpr(sb, x.X)
		if x.Not {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" LIKE ")
		printExpr(sb, x.Pattern)
		sb.WriteString(")")
	case *AnyExpr:
		sb.WriteString("(")
		printExpr(sb, x.X)
		sb.WriteString(" ")
		sb.WriteString(x.Op.String())
		sb.WriteString(" ANY(")
		printExpr(sb, x.Array)
		sb.WriteString("))")
	case *CastExpr:
		sb.WriteString("CAST(")
		printExpr(sb, x.X)
		sb.WriteString(" AS ")
		sb.WriteString(x.To.String())
		sb.WriteString(")")
	default:
		fmt.Fprintf(sb, "<unknown expr %T>", e)
	}
}

func printDatumLiteral(sb *strings.Builder, d types.Datum) {
	if d.IsNull() {
		sb.WriteString("NULL")
		return
	}
	switch d.Typ {
	case types.Bool:
		if d.Bool() {
			sb.WriteString("TRUE")
		} else {
			sb.WriteString("FALSE")
		}
	case types.Int:
		sb.WriteString(strconv.FormatInt(d.I, 10))
	case types.Float:
		s := strconv.FormatFloat(d.Float(), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		sb.WriteString(s)
	case types.Text:
		sb.WriteString("'")
		sb.WriteString(strings.ReplaceAll(d.Text(), "'", "''"))
		sb.WriteString("'")
	default:
		// Arrays and bytes have no literal syntax in this dialect; render
		// via text form for debugging output only.
		sb.WriteString("'")
		sb.WriteString(strings.ReplaceAll(d.String(), "'", "''"))
		sb.WriteString("'")
	}
}

// quoteIdent writes name, quoting it if it is not a plain lowercase
// identifier or collides with a keyword.
func quoteIdent(sb *strings.Builder, name string) {
	if isPlainIdent(name) {
		sb.WriteString(name)
		return
	}
	sb.WriteString("\"")
	sb.WriteString(strings.ReplaceAll(name, "\"", "\"\""))
	sb.WriteString("\"")
}

func isPlainIdent(name string) bool {
	if name == "" {
		return false
	}
	if keywords[strings.ToUpper(name)] {
		return false
	}
	if !(name[0] == '_' || name[0] >= 'a' && name[0] <= 'z') {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if !(c == '_' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '$') {
			return false
		}
	}
	return true
}
