// Command sinewcli is an interactive SQL shell over a Sinew database. It
// creates collections, bulk-loads newline-delimited JSON, runs SQL against
// the universal-relation logical view, and exposes the paper's machinery
// through backslash commands:
//
//	\create <collection>          create a collection
//	\load <collection> <file>     bulk-load JSON lines
//	\analyze <collection>         run the schema analyzer (§3.1.3)
//	\materialize <collection>     run a materializer pass (§3.1.4)
//	\catalog <collection>         show the Sinew catalog (Figure 4)
//	\synccat                      publish the catalog as SQL tables (Figure 4)
//	\rewrite <sql>                show the §3.2.2 rewrite of a query
//	\explain <sql>                show the physical plan
//	\stats                        show plan-cache and executor counters
//	\q                            quit
//
// Everything else is executed as SQL.
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"github.com/sinewdata/sinew/internal/core"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.EnableTextIndex = true
	db := core.Open(cfg)
	mat := core.NewMaterializer(db)

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 0, 1<<20), 1<<24)
	fmt.Println("sinewcli — SQL over multi-structured data (\\q to quit)")
	for {
		fmt.Print("sinew> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if line == "\\q" || line == "\\quit" {
				return
			}
			if err := command(db, mat, line); err != nil {
				fmt.Println("error:", err)
			}
			continue
		}
		res, err := db.Query(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printResult(res)
	}
}

func command(db *core.DB, mat *core.Materializer, line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\create":
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\create <collection>")
		}
		return db.CreateCollection(fields[1])
	case "\\load":
		if len(fields) != 3 {
			return fmt.Errorf("usage: \\load <collection> <file>")
		}
		f, err := os.Open(fields[2])
		if err != nil {
			return err
		}
		defer f.Close()
		res, err := db.LoadJSONLines(fields[1], f)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d documents (%d new attributes)\n", res.Documents, res.NewAttributes)
		return nil
	case "\\analyze":
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\analyze <collection>")
		}
		decisions, err := db.AnalyzeSchema(fields[1])
		if err != nil {
			return err
		}
		for _, d := range decisions {
			if d.Changed {
				fmt.Printf("%-24s %-8s density=%.2f card=%d -> materialize=%v\n",
					d.Key, d.Type, d.Density, d.Cardinality, d.Materialize)
			}
		}
		return nil
	case "\\materialize":
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\materialize <collection>")
		}
		moved, err := mat.RunOnce(fields[1])
		if err != nil {
			return err
		}
		fmt.Printf("moved %d values\n", moved)
		return db.RDBMS().Analyze(fields[1])
	case "\\catalog":
		if len(fields) != 2 {
			return fmt.Errorf("usage: \\catalog <collection>")
		}
		tc, ok := db.Catalog().Lookup(strings.ToLower(fields[1]))
		if !ok {
			return fmt.Errorf("unknown collection %q", fields[1])
		}
		fmt.Printf("%-6s %-28s %-10s %8s %6s %12s %s\n",
			"id", "key_name", "key_type", "count", "dirty", "materialized", "column")
		for _, c := range tc.Columns() {
			fmt.Printf("%-6d %-28s %-10s %8d %6v %12v %s\n",
				c.AttrID, c.Key, c.Type, c.Count, c.Dirty, c.Materialized, c.PhysicalName)
		}
		return nil
	case "\\synccat":
		if err := db.SyncCatalogTables(); err != nil {
			return err
		}
		fmt.Println("catalog mirrored to sinew_attributes / sinew_columns_* tables")
		return nil
	case "\\rewrite":
		sql := strings.TrimSpace(strings.TrimPrefix(line, "\\rewrite"))
		out, err := db.RewrittenSQL(sql)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	case "\\explain":
		sql := strings.TrimSpace(strings.TrimPrefix(line, "\\explain"))
		out, err := db.Explain(sql)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	case "\\stats":
		// The counters as SELECT sinew_stats() reports them.
		res, err := db.Query(`SELECT sinew_stats()`)
		if err != nil {
			return err
		}
		fmt.Println(res.Rows[0][0].Text())
		return nil
	default:
		return fmt.Errorf("unknown command %s", fields[0])
	}
}

func printResult(res *core.QueryResult) {
	if res.ExplainText != "" {
		fmt.Print(res.ExplainText)
		return
	}
	if len(res.Columns) == 0 {
		fmt.Printf("ok (%d rows affected)\n", res.RowsAffected)
		return
	}
	fmt.Println(strings.Join(res.Columns, " | "))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, d := range row {
			cells[i] = d.String()
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}
