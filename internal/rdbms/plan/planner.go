package plan

import (
	"fmt"
	"math"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/sqlparse"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Planner builds physical plans, one statement at a time.
type Planner struct {
	Cat   Catalog
	Funcs *exec.Registry
	Cfg   *Config
	// Params are the values of a statement shape's parameters
	// (sqlparse.Param): estimates read them as constants, and the plan
	// reports whether it holds for other values (ValueDependent). The plan
	// itself reads each execution's values (exec.ExecCtx.Bind).
	Params []types.Datum

	b binding // the current PlanSelect's parameter state
}

// NewPlanner constructs a planner; cfg nil means DefaultConfig.
func NewPlanner(cat Catalog, funcs *exec.Registry, cfg *Config) *Planner {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	return &Planner{Cat: cat, Funcs: funcs, Cfg: cfg}
}

// SelectPlan is a planned SELECT ready to execute or explain.
type SelectPlan struct {
	Root        Node
	ColumnNames []string
	ColumnTypes []types.Type
	// ValueDependent reports a plan of a statement with parameters that
	// other parameter values could change (params.go): it must not be
	// reused for them.
	ValueDependent bool
}

// Explain renders the plan tree.
func (sp *SelectPlan) Explain() string { return Explain(sp.Root) }

// Collect runs the plan to a fully materialized result through the
// operator pipeline, the one way every plan's rows come out. Reads go to
// live heaps; concurrent sessions use CollectCtx.
func (sp *SelectPlan) Collect() ([]storage.Row, error) {
	return sp.CollectCtx(nil)
}

// CollectCtx is Collect under a statement execution context: all scans of
// the statement read the snapshots ec pins (one per heap), so the result
// is consistent with a single storage epoch per table even while writers
// publish new versions. The caller owns ec and releases it.
func (sp *SelectPlan) CollectCtx(ec *exec.ExecCtx) ([]storage.Row, error) {
	return exec.CollectBatches(sp.Root.Open(ec))
}

// conjunct is one WHERE predicate with its classification bookkeeping.
type conjunct struct {
	ast    sqlparse.Expr
	tables map[string]bool
	used   bool
	// Equi-join decomposition (valid when isEdge): lhs references only
	// lTable, rhs only rTable.
	isEdge         bool
	lhs, rhs       sqlparse.Expr
	lTable, rTable string
}

// relation is an in-progress join input during greedy ordering.
type relation struct {
	node   Node
	layout *Layout
	tables map[string]bool
}

// PlanSelect builds a physical plan for stmt.
func (p *Planner) PlanSelect(stmt *sqlparse.SelectStmt) (*SelectPlan, error) {
	if len(stmt.From) == 0 {
		return p.planNoFrom(stmt)
	}
	p.b = binding{vals: p.Params}

	// ----- Bind FROM -----
	rels := make([]*relation, 0, len(stmt.From))
	full := &Layout{Rows: 1} // Rows: the product of the tables' rows
	seen := map[string]bool{}
	for _, ref := range stmt.From {
		eff := ref.EffectiveName()
		if seen[eff] {
			return nil, fmt.Errorf("plan: table name %q specified more than once", eff)
		}
		seen[eff] = true
		rel, err := p.bindTable(ref.Name, eff)
		if err != nil {
			return nil, err
		}
		rels = append(rels, rel)
		full.Cols = append(full.Cols, rel.layout.Cols...)
		full.Rows *= math.Max(rel.layout.Rows, 1)
	}

	p.b.tableRows = full.Rows

	// ----- Normalize and expand -----
	items, names, err := p.expandItems(stmt, full)
	if err != nil {
		return nil, err
	}
	whereN, err := normalizeWhere(stmt.Where, full)
	if err != nil {
		return nil, err
	}
	groupBy := make([]sqlparse.Expr, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		g2 := substituteAliases(g, items, names)
		if groupBy[i], err = normalizeRefs(g2, full); err != nil {
			return nil, err
		}
	}
	var having sqlparse.Expr
	if stmt.Having != nil {
		if having, err = normalizeRefs(stmt.Having, full); err != nil {
			return nil, err
		}
	}
	orderBy := make([]sqlparse.OrderItem, len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		e := o.Expr
		// ORDER BY <ordinal> references the select list (SQL standard).
		if lit, ok := e.(*sqlparse.Literal); ok && lit.Val.Typ == types.Int {
			n := lit.Val.I
			if n < 1 || n > int64(len(items)) {
				return nil, fmt.Errorf("plan: ORDER BY position %d is not in select list", n)
			}
			e = items[n-1]
		}
		e = substituteAliases(e, items, names)
		if e, err = normalizeRefs(e, full); err != nil {
			return nil, err
		}
		orderBy[i] = sqlparse.OrderItem{Expr: e, Desc: o.Desc}
	}

	// ----- Classify conjuncts -----
	var conjuncts []*conjunct
	for _, cexpr := range splitConjuncts(whereN, nil) {
		cj := &conjunct{ast: cexpr, tables: referencedTables(cexpr)}
		if be, ok := cexpr.(*sqlparse.BinaryExpr); ok && be.Op == sqlparse.OpEq {
			lt, rt := referencedTables(be.L), referencedTables(be.R)
			if len(lt) == 1 && len(rt) == 1 {
				var lTab, rTab string
				for t := range lt {
					lTab = t
				}
				for t := range rt {
					rTab = t
				}
				if lTab != rTab {
					cj.isEdge = true
					cj.lhs, cj.rhs, cj.lTable, cj.rTable = be.L, be.R, lTab, rTab
				}
			}
		}
		conjuncts = append(conjuncts, cj)
	}

	// ----- Build scans with pushed-down local predicates -----
	for _, rel := range rels {
		var localASTs []sqlparse.Expr
		for _, cj := range conjuncts {
			if cj.used || cj.isEdge {
				continue
			}
			if subsetOf(cj.tables, rel.tables) {
				localASTs = append(localASTs, cj.ast)
				cj.used = true
			}
		}
		if err := p.pushLocal(rel, localASTs); err != nil {
			return nil, err
		}
	}

	// ----- Greedy join ordering -----
	cur, curLayout, err := p.orderJoins(rels, conjuncts)
	if err != nil {
		return nil, err
	}

	// Any unapplied conjuncts (shouldn't normally remain) go in a filter.
	var leftover []sqlparse.Expr
	for _, cj := range conjuncts {
		if !cj.used {
			leftover = append(leftover, cj.ast)
		}
	}
	if len(leftover) > 0 {
		preds := make([]exec.Expr, len(leftover))
		es := p.estimator(curLayout, cur.Rows())
		sel := 1.0
		for i, a := range leftover {
			if preds[i], err = CompileExpr(a, curLayout, p.Funcs, "WHERE"); err != nil {
				return nil, err
			}
			sel *= es.selectivity(a)
		}
		cur = &FilterNode{
			baseNode: baseNode{layout: curLayout, rows: cur.Rows() * sel,
				cost: cur.Cost() + cur.Rows()*(p.Cfg.CPUTupleCost+exprCostOf(preds))},
			Child: cur, Preds: preds,
		}
	}

	// ----- Aggregation -----
	hasAgg := len(groupBy) > 0
	if !hasAgg {
		for _, it := range items {
			if containsAggregate(it) {
				hasAgg = true
				break
			}
		}
	}
	if !hasAgg && having != nil {
		hasAgg = true
	}

	var itemASTs []sqlparse.Expr // ASTs to compile for the final projection
	preProjLayout := curLayout

	if hasAgg {
		cur, preProjLayout, itemASTs, orderBy, err = p.planAggregation(cur, curLayout, groupBy, having, items, orderBy)
		if err != nil {
			return nil, err
		}
	} else {
		itemASTs = items
	}

	// ----- ORDER BY below projection (non-DISTINCT) -----
	if len(orderBy) > 0 && !stmt.Distinct {
		keys := make([]exec.SortKey, len(orderBy))
		for i, o := range orderBy {
			ke, err := CompileExpr(o.Expr, preProjLayout, p.Funcs, "ORDER BY")
			if err != nil {
				return nil, err
			}
			keys[i] = exec.SortKey{Expr: ke, Desc: o.Desc}
		}
		cur = p.newSort(cur, preProjLayout, keys)
	}

	// ----- Projection -----
	exprs := make([]exec.Expr, len(itemASTs))
	outTypes := make([]types.Type, len(itemASTs))
	outLayout := &Layout{Rows: cur.Rows()}
	es := p.estimator(preProjLayout, cur.Rows())
	distinctEst := 1.0
	for i, a := range itemASTs {
		e, err := CompileExpr(a, preProjLayout, p.Funcs, "SELECT")
		if err != nil {
			return nil, err
		}
		exprs[i] = e
		outTypes[i] = e.Type()
		outLayout.Cols = append(outLayout.Cols, LayoutCol{Name: names[i], Typ: e.Type()})
		distinctEst *= es.ndistinct(a)
	}
	cur = &ProjectNode{
		baseNode: baseNode{layout: outLayout, rows: cur.Rows(),
			cost: cur.Cost() + cur.Rows()*(p.Cfg.CPUTupleCost+exprCostOf(exprs))},
		Child: cur, Exprs: exprs,
	}

	// ----- DISTINCT -----
	if stmt.Distinct {
		nGroups := math.Min(distinctEst, math.Max(cur.Rows(), 1))
		p.b.checkGroupChoice(distinctEst, p.Cfg.HashAggMaxGroups)
		allCols := make([]exec.Expr, len(outLayout.Cols))
		for i, c := range outLayout.Cols {
			allCols[i] = &exec.ColExpr{Idx: i, Typ: c.Typ, Name: c.Name}
		}
		if nGroups <= p.Cfg.HashAggMaxGroups {
			cur = &HashAggNode{
				baseNode: baseNode{layout: outLayout, rows: nGroups,
					cost: cur.Cost() + cur.Rows()*p.Cfg.CPUTupleCost*2},
				Child: cur, GroupBy: allCols,
			}
		} else {
			keys := make([]exec.SortKey, len(allCols))
			for i, c := range allCols {
				keys[i] = exec.SortKey{Expr: c}
			}
			cur = p.newSort(cur, outLayout, keys)
			cur = &UniqueNode{
				baseNode: baseNode{layout: outLayout, rows: nGroups,
					cost: cur.Cost() + cur.Rows()*p.Cfg.CPUTupleCost},
				Child: cur,
			}
		}
		// ORDER BY above DISTINCT resolves against the selected items:
		// an ORDER BY expression must be one of the projected expressions
		// (matched structurally) or a projected output column name.
		if len(orderBy) > 0 {
			keys := make([]exec.SortKey, len(orderBy))
			for i, o := range orderBy {
				var ke exec.Expr
				for j, a := range itemASTs {
					if exprKey(a) == exprKey(o.Expr) {
						ke = &exec.ColExpr{Idx: j, Typ: outLayout.Cols[j].Typ, Name: names[j]}
						break
					}
				}
				if ke == nil {
					var err error
					ke, err = CompileExpr(o.Expr, outLayout, p.Funcs, "ORDER BY")
					if err != nil {
						return nil, fmt.Errorf("plan: ORDER BY with DISTINCT must reference selected columns: %v", err)
					}
				}
				keys[i] = exec.SortKey{Expr: ke, Desc: o.Desc}
			}
			cur = p.newSort(cur, outLayout, keys)
		}
	}

	// ----- LIMIT -----
	if stmt.Limit >= 0 {
		cur = &LimitNode{
			baseNode: baseNode{layout: cur.Layout(), rows: math.Min(cur.Rows(), float64(stmt.Limit)), cost: cur.Cost()},
			Child:    cur, N: stmt.Limit,
		}
	}

	// The shortcuts: each one is an identity between two physical plans
	// of the same answer. With enable_batch off none is applied, and the
	// plan is the reference — the same tree of the same operators,
	// reading every page and column, sorting in full under a LIMIT.
	if p.Cfg.EnableBatch {
		cur = p.rewriteTopN(cur)
		p.fuseExtracts(cur)
		p.prepareSegmented(cur, nil)
		pruneScanColumns(cur)
		p.deriveSkips(cur)
	}
	releasePlanViews(cur)
	if len(p.Params) > 0 && (len(stmt.From) > 1 && p.b.read || !paramsCovered(cur)) {
		p.b.dependent = true
	}
	return &SelectPlan{Root: cur, ColumnNames: names, ColumnTypes: outTypes,
		ValueDependent: p.b.dependent}, nil
}

// bindTable binds one table of a statement under its effective name eff,
// through the Catalog: the relation's layout carries the table's columns
// and statistics, and its node is the table's scan, which pushLocal
// completes.
func (p *Planner) bindTable(name, eff string) (*relation, error) {
	heap, stats, err := p.Cat.Table(name)
	if err != nil {
		return nil, err
	}
	layout := &Layout{Rows: float64(heap.NumRows())}
	for _, c := range heap.Schema().Cols {
		lc := LayoutCol{Table: eff, Name: c.Name, Typ: c.Typ}
		if stats != nil {
			lc.Stats = stats.Columns[c.Name]
		}
		layout.Cols = append(layout.Cols, lc)
	}
	return &relation{
		node:   &ScanNode{Heap: heap, TableName: name, AliasName: eff},
		layout: layout,
		tables: map[string]bool{eff: true},
	}, nil
}

// normalizeWhere qualifies every column reference of a WHERE clause
// against layout (normalizeRefs); nil stays nil, and an aggregate is an
// error.
func normalizeWhere(where sqlparse.Expr, layout *Layout) (sqlparse.Expr, error) {
	if where == nil {
		return nil, nil
	}
	n, err := normalizeRefs(where, layout)
	if err != nil {
		return nil, err
	}
	if containsAggregate(n) {
		return nil, fmt.Errorf("plan: aggregate functions are not allowed in WHERE")
	}
	return n, nil
}

// pushLocal completes rel's scan with the conjuncts that read only its
// table: they compile against its layout into the scan's Preds, and the
// scan's estimates follow from their selectivity.
func (p *Planner) pushLocal(rel *relation, asts []sqlparse.Expr) error {
	scan := rel.node.(*ScanNode)
	es := p.estimator(rel.layout, rel.layout.Rows)
	sel := 1.0
	for _, a := range asts {
		sel *= es.selectivity(a)
	}
	preds := make([]exec.Expr, len(asts))
	for i, a := range asts {
		var err error
		if preds[i], err = CompileExpr(a, rel.layout, p.Funcs, "WHERE"); err != nil {
			return err
		}
	}
	inRows := rel.layout.Rows
	scan.Preds = preds
	scan.baseNode = baseNode{
		layout: rel.layout,
		rows:   math.Max(inRows*sel, 0),
		cost: float64(scan.Heap.SizeBytes())*p.Cfg.SeqPageCostPerByte +
			inRows*(p.Cfg.CPUTupleCost+exprCostOf(preds)),
	}
	return nil
}

// WritePlan is the read side of an UPDATE or DELETE: the scan of its table
// with every WHERE conjunct pushed down, planned as a one-table SELECT's
// scan is, and its SET expressions compiled over that scan's rows. The
// statement applies its change to the rows the scan returns, by the row
// IDs it reports (Run).
type WritePlan struct {
	Scan *ScanNode
	Sets []exec.Expr
}

// PlanWrite plans the read side of an UPDATE (sets non-empty: the SET
// values, in order) or a DELETE (sets nil) of table. With enable_batch on
// the scan takes the shortcuts a SELECT's scan takes — the compiled
// selection filter for frozen pages and the page skips — and a DELETE's
// scan fills only the columns its WHERE reads; with it off the scan is
// the reference one, reading every page and column.
func (p *Planner) PlanWrite(table string, where sqlparse.Expr, sets []sqlparse.Expr) (*WritePlan, error) {
	p.b = binding{vals: p.Params}
	rel, err := p.bindTable(table, table)
	if err != nil {
		return nil, err
	}
	whereN, err := normalizeWhere(where, rel.layout)
	if err != nil {
		return nil, err
	}
	if err := p.pushLocal(rel, splitConjuncts(whereN, nil)); err != nil {
		return nil, err
	}
	w := &WritePlan{Scan: rel.node.(*ScanNode), Sets: make([]exec.Expr, len(sets))}
	for i, e := range sets {
		if w.Sets[i], err = CompileExpr(e, rel.layout, p.Funcs, "SET"); err != nil {
			return nil, err
		}
	}
	if p.Cfg.EnableBatch {
		p.prepareSegmented(w.Scan, nil)
		if len(sets) == 0 {
			pruneChain(w.Scan, map[int]bool{}, true)
		}
		p.deriveSkips(w.Scan)
	}
	releasePlanViews(w.Scan)
	return w, nil
}

// Run opens the write's scan under ec and calls fn with each batch it
// returns and the RowID of each physical row of that batch (index ids as
// the batch's columns, through its Sel). fn runs before the next batch is
// read; the batch and ids are reused after it returns.
func (w *WritePlan) Run(ec *exec.ExecCtx, fn func(b *exec.RowBatch, ids []storage.RowID) error) error {
	it := w.Scan.open(ec)
	defer it.Close()
	it.ReportRowIDs()
	for {
		b, err := it.NextBatch()
		if b == nil || err != nil {
			return err
		}
		if err := fn(b, it.RowIDs()); err != nil {
			return err
		}
	}
}

// releasePlanViews rebinds every scan to its owner heap once planning is
// done: the plan-time view (an epoch-pinned snapshot under concurrent
// catalogs) was only needed for race-free costing and plan shaping, and a
// cached plan must not keep that snapshot's page versions alive. Execution
// re-resolves views per statement through the ExecCtx.
func releasePlanViews(n Node) {
	if n == nil {
		return
	}
	if s, ok := n.(*ScanNode); ok {
		s.Heap = s.Heap.Owner()
	}
	for _, c := range n.Children() {
		releasePlanViews(c)
	}
}

// planNoFrom handles SELECT <exprs> with no FROM clause.
func (p *Planner) planNoFrom(stmt *sqlparse.SelectStmt) (*SelectPlan, error) {
	layout := &Layout{Rows: 1}
	exprs := make([]exec.Expr, 0, len(stmt.Items))
	names := make([]string, 0, len(stmt.Items))
	outTypes := make([]types.Type, 0, len(stmt.Items))
	outLayout := &Layout{Rows: 1}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("plan: SELECT * requires a FROM clause")
		}
		e, err := CompileExpr(it.Expr, layout, p.Funcs, "SELECT")
		if err != nil {
			return nil, err
		}
		name := it.Alias
		if name == "" {
			name = exprDisplayName(it.Expr)
		}
		exprs = append(exprs, e)
		names = append(names, name)
		outTypes = append(outTypes, e.Type())
		outLayout.Cols = append(outLayout.Cols, LayoutCol{Name: name, Typ: e.Type()})
	}
	root := &ProjectNode{
		baseNode: baseNode{layout: outLayout, rows: 1, cost: exprCostOf(exprs)},
		Child:    &valuesNode{baseNode: baseNode{layout: layout, rows: 1}},
		Exprs:    exprs,
	}
	return &SelectPlan{Root: root, ColumnNames: names, ColumnTypes: outTypes}, nil
}

// valuesNode emits a single empty row (for FROM-less SELECT).
type valuesNode struct{ baseNode }

func (v *valuesNode) Label() string     { return "Result" }
func (v *valuesNode) Details() []string { return nil }
func (v *valuesNode) Children() []Node  { return nil }
func (v *valuesNode) Open(*exec.ExecCtx) exec.BatchIterator {
	return &oneRowIter{}
}

// oneRowIter is valuesNode's stream: one batch of one zero-width row.
type oneRowIter struct{ done bool }

func (o *oneRowIter) NextBatch() (*exec.RowBatch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	b := exec.NewRowBatch(0, 1)
	b.SetLen(1)
	return b, nil
}

func (o *oneRowIter) Close() {}

// expandItems resolves stars and normalizes item expressions; it returns the
// item ASTs and output column names.
func (p *Planner) expandItems(stmt *sqlparse.SelectStmt, full *Layout) ([]sqlparse.Expr, []string, error) {
	var items []sqlparse.Expr
	var names []string
	for _, it := range stmt.Items {
		if it.Star {
			matched := false
			for _, c := range full.Cols {
				if it.Table != "" && c.Table != it.Table {
					continue
				}
				items = append(items, &sqlparse.ColumnRef{Table: c.Table, Name: c.Name})
				names = append(names, c.Name)
				matched = true
			}
			if !matched {
				return nil, nil, fmt.Errorf("plan: relation %q in star expansion not found", it.Table)
			}
			continue
		}
		n, err := normalizeRefs(it.Expr, full)
		if err != nil {
			return nil, nil, err
		}
		items = append(items, n)
		name := it.Alias
		if name == "" {
			name = exprDisplayName(it.Expr)
		}
		names = append(names, name)
	}
	return items, names, nil
}

// substituteAliases replaces bare column references that name a select-item
// alias with that item's expression (ORDER BY / GROUP BY alias resolution).
func substituteAliases(e sqlparse.Expr, items []sqlparse.Expr, names []string) sqlparse.Expr {
	cr, ok := e.(*sqlparse.ColumnRef)
	if !ok || cr.Table != "" {
		return e
	}
	for i, n := range names {
		if n == cr.Name && items[i] != nil {
			return items[i]
		}
	}
	return e
}

func subsetOf(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// newSort wraps child in a SortNode with an n·log n cost term.
func (p *Planner) newSort(child Node, layout *Layout, keys []exec.SortKey) Node {
	n := math.Max(child.Rows(), 1)
	sortCost := child.Cost() + n*math.Log2(n+1)*p.Cfg.CPUOperatorCost*2 + n*p.Cfg.CPUTupleCost
	return &SortNode{
		baseNode: baseNode{layout: layout, rows: child.Rows(), cost: sortCost},
		Child:    child, Keys: keys,
	}
}
