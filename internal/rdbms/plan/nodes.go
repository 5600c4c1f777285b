package plan

import (
	"fmt"
	"math"
	"strings"

	"github.com/sinewdata/sinew/internal/rdbms/exec"
	"github.com/sinewdata/sinew/internal/rdbms/storage"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Node is a physical plan operator. Estimated rows and total cost are fixed
// at plan time; Open instantiates the executor tree.
type Node interface {
	// Layout is the output row shape.
	Layout() *Layout
	// Rows is the estimated output cardinality.
	Rows() float64
	// Cost is the estimated total cost (inputs included), in abstract units.
	Cost() float64
	// Open builds the runtime iterator. ec, when non-nil, is the statement's
	// execution context: scans resolve their heap through it so the whole
	// statement reads one pinned snapshot per table. A nil ec reads live
	// heaps (single-threaded embedded callers).
	Open(ec *exec.ExecCtx) exec.BatchIterator
	// Label is the EXPLAIN head line (without rows/cost annotations).
	Label() string
	// Details are extra EXPLAIN lines (Filter:, Sort Key:, ...).
	Details() []string
	// Children returns input nodes in display order.
	Children() []Node
}

// baseNode carries the common plan-time estimates.
type baseNode struct {
	layout *Layout
	rows   float64
	cost   float64
}

func (b *baseNode) Layout() *Layout { return b.layout }
func (b *baseNode) Rows() float64   { return b.rows }
func (b *baseNode) Cost() float64   { return b.cost }

// execView resolves a scan's exec-time read view: a statement context pins
// (or reuses) the owner heap's latest snapshot; without one the plan-time
// view is read directly.
func execView(ec *exec.ExecCtx, v storage.ReadView) storage.ReadView {
	if ec == nil {
		return v
	}
	return ec.View(v.Owner())
}

// annotation is the EXPLAIN suffix naming how n runs: " (batch)" for
// every operator except the fused extraction, which names itself, and the
// one-row result of a FROM-less SELECT and its projection, which carry
// nothing.
func annotation(n Node) string {
	switch x := n.(type) {
	case *valuesNode:
		return ""
	case *ProjectNode:
		if _, ok := x.Child.(*valuesNode); ok {
			return ""
		}
	case *MultiExtractNode:
		if x.SegFactory != nil {
			return fmt.Sprintf(" (fused extract: %d keys, striped)", len(x.Reqs))
		}
		return fmt.Sprintf(" (fused extract: %d keys)", len(x.Reqs))
	}
	return " (batch)"
}

// ---------- Scan ----------

// ScanNode is a sequential scan with pushed-down filter conjuncts. Heap is
// the plan-time read view used for costing and plan shaping; Open re-binds
// the scan to the statement's pinned snapshot through its ExecCtx (PlanSelect
// resets the field to the owner heap after planning, so cached plans do not
// retain the planning-time snapshot's pages). A batch scan has no modes:
// exec.BatchScanIter picks, page by page, between aliasing a frozen page
// and transposing row-form ones.
type ScanNode struct {
	baseNode
	Heap      storage.ReadView
	TableName string
	AliasName string
	Preds     []exec.Expr
	// NeedCols, when non-nil, restricts the batch scan to materializing
	// only these column indices (scan column pruning, see
	// pruneScanColumns).
	NeedCols []int
	// LazyCols lists the columns the scan reads that no operator above it
	// reads as values: a segment kernel or a Top-N above takes them as a
	// frozen page's segment, or only the scan's filter reads them. A
	// segment column among them is decoded only for a conjunct that reads
	// it (pruneScanColumns).
	LazyCols []int
	// Skip, when non-nil, is a factory invoked once per iterator open with
	// the scan's chunk cursor and the statement's parameter values; the
	// returned test is evaluated against each
	// page's attribute/range summary and pages it reports skippable are
	// never read. Its sources are the scan's filter conjuncts (deriveSkips
	// — the factory resolves dictionary IDs per execution) and the bound of
	// a Top-N directly above (deriveTopNSkip — computed per execution from
	// the pages the cursor captured). SkipSource names
	// the source for EXPLAIN.
	Skip       func(*storage.HeapChunkIter, []types.Datum) func(*storage.PageSummary) bool
	SkipSource string
	// SelFilter is the compiled form of Preds the scan runs over every
	// batch, frozen page or row-form run: ranked conjuncts narrowing a
	// selection vector (see prepareSegmented / exec.CompileSelFilter). Nil
	// when Preds is empty, and in the reference plan, whose scan compiles
	// Preds as one conjunct when it opens.
	SelFilter *exec.SelFilter
}

// Label implements Node.
func (s *ScanNode) Label() string {
	if s.AliasName != "" && s.AliasName != s.TableName {
		return fmt.Sprintf("Seq Scan on %s %s", s.TableName, s.AliasName)
	}
	return fmt.Sprintf("Seq Scan on %s", s.TableName)
}

// Details implements Node.
func (s *ScanNode) Details() []string {
	var d []string
	if len(s.Preds) > 0 {
		d = append(d, "Filter: "+predsDisplay(s.Preds))
	}
	if s.Skip != nil {
		d = append(d, "Page Skip: "+s.SkipSource)
	}
	return d
}

// Children implements Node.
func (s *ScanNode) Children() []Node { return nil }

// Open implements Node. The scan reads every page of the statement's view
// of its heap; the skip test and the evaluation state are its own.
func (s *ScanNode) Open(ec *exec.ExecCtx) exec.BatchIterator { return s.open(ec) }

func (s *ScanNode) open(ec *exec.ExecCtx) *exec.BatchScanIter {
	var filter exec.Expr
	if s.SelFilter == nil {
		filter = conjoinExec(s.Preds)
	}
	it := exec.NewBatchScan(execView(ec, s.Heap), filter)
	it.NeedCols, it.LazyCols = s.NeedCols, s.LazyCols
	it.SetParams(ec.Params())
	if s.Skip != nil {
		it.SetPageSkip(s.Skip)
	}
	it.SetSelFilter(s.SelFilter)
	return it
}

// ---------- Filter ----------

// FilterNode applies residual predicates above another node.
type FilterNode struct {
	baseNode
	Child Node
	Preds []exec.Expr
	// filter is Preds compiled, with no extraction slots: the filter
	// narrows its input's selection vector (exec.BatchFilterIter).
	filter *exec.SelFilter
}

// Label implements Node.
func (f *FilterNode) Label() string { return "Filter" }

// Details implements Node.
func (f *FilterNode) Details() []string { return []string{"Filter: " + predsDisplay(f.Preds)} }

// Children implements Node.
func (f *FilterNode) Children() []Node { return []Node{f.Child} }

// Open implements Node.
func (f *FilterNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	return &exec.BatchFilterIter{In: f.Child.Open(ec), Filter: f.filter, Params: ec.Params()}
}

// ---------- Project ----------

// ProjectNode computes output expressions.
type ProjectNode struct {
	baseNode
	Child Node
	Exprs []exec.Expr
}

// Label implements Node.
func (p *ProjectNode) Label() string { return "Project" }

// Details implements Node.
func (p *ProjectNode) Details() []string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return []string{"Output: " + strings.Join(parts, ", ")}
}

// Children implements Node.
func (p *ProjectNode) Children() []Node { return []Node{p.Child} }

// Open implements Node.
func (p *ProjectNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	return &exec.BatchProjectIter{In: p.Child.Open(ec), Exprs: p.Exprs}
}

// ---------- Fused multi-extraction ----------

// MultiExtractNode appends one computed column per extraction request to
// its child's rows, all filled by a single fused kernel that decodes each
// serialized record of column DataIdx once (replacing K independent
// extraction UDF calls in the projection above it). It is inserted by the
// fusion pass (fuseExtracts).
type MultiExtractNode struct {
	baseNode
	Child   Node
	DataIdx int
	Reqs    []exec.MultiExtractReq
	Factory exec.MultiExtractFactory
	// SegFactory, when non-nil, builds the segment-aware kernel used for
	// batches that carry the data column as a striped ColumnSegment (set by
	// prepareSegmented when the scan below is over a segmented heap and the
	// family registered a SegExtractFactory).
	SegFactory exec.SegExtractFactory
	// Family is the fused call family the node was built from (the
	// FuseFamily of the rewritten calls); prepareSegmented resolves the
	// segment factory with it.
	Family string
	// Source names the fused call family for EXPLAIN (e.g. the reservoir
	// column the keys come from).
	Source string
}

// Label implements Node.
func (m *MultiExtractNode) Label() string { return "Multi Extract" }

// Details implements Node.
func (m *MultiExtractNode) Details() []string {
	parts := make([]string, len(m.Reqs))
	for i, r := range m.Reqs {
		parts[i] = fmt.Sprintf("%q", r.Key)
	}
	return []string{"Keys: " + strings.Join(parts, ", ")}
}

// Children implements Node.
func (m *MultiExtractNode) Children() []Node { return []Node{m.Child} }

// Open implements Node. The kernel instance is built per Open so each
// execution of a cached plan gets its own scratch state.
func (m *MultiExtractNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	kernel, err := m.Factory(m.Reqs)
	if err != nil {
		return &errBatchIter{err: err}
	}
	var segKernel exec.SegExtractKernel
	if m.SegFactory != nil {
		if segKernel, err = m.SegFactory(m.Reqs); err != nil {
			return &errBatchIter{err: err}
		}
	}
	return &exec.BatchMultiExtractIter{
		In:        m.Child.Open(ec),
		DataIdx:   m.DataIdx,
		Kernel:    kernel,
		SegKernel: segKernel,
		K:         len(m.Reqs),
	}
}

// errBatchIter surfaces a kernel construction error on first pull.
type errBatchIter struct{ err error }

func (e *errBatchIter) NextBatch() (*exec.RowBatch, error) { return nil, e.err }
func (e *errBatchIter) Close()                             {}

// ---------- Sort / Top-N / Unique ----------

// sortKeyDisplay renders sort keys for EXPLAIN.
func sortKeyDisplay(keys []exec.SortKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return strings.Join(parts, ", ")
}

// heapBelow finds the heap of the first scan under n — the stats sink for
// batch sort / Top-N operator counters.
func heapBelow(n Node) *storage.Heap {
	if s, ok := n.(*ScanNode); ok {
		return s.Heap.Owner()
	}
	for _, c := range n.Children() {
		if h := heapBelow(c); h != nil {
			return h
		}
	}
	return nil
}

// SortNode materializes and sorts its input.
type SortNode struct {
	baseNode
	Child Node
	Keys  []exec.SortKey
}

// Label implements Node.
func (s *SortNode) Label() string { return "Sort" }

// Details implements Node.
func (s *SortNode) Details() []string {
	return []string{"Sort Key: " + sortKeyDisplay(s.Keys)}
}

// Children implements Node.
func (s *SortNode) Children() []Node { return []Node{s.Child} }

// Open implements Node.
func (s *SortNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	return &exec.BatchSortIter{In: s.Child.Open(ec), Keys: s.Keys, Heap: heapBelow(s.Child)}
}

// TopNNode is the bounded ORDER BY + LIMIT operator: the planner
// substitutes it for a SortNode directly under a LIMIT (rewriteTopN), so
// only the best N rows are ever materialized.
type TopNNode struct {
	baseNode
	Child Node
	Keys  []exec.SortKey
	N     int64
}

// Label implements Node.
func (t *TopNNode) Label() string { return "Top-N" }

// Details implements Node.
func (t *TopNNode) Details() []string {
	return []string{
		"Sort Key: " + sortKeyDisplay(t.Keys),
		fmt.Sprintf("Limit: %d", t.N),
	}
}

// Children implements Node.
func (t *TopNNode) Children() []Node { return []Node{t.Child} }

// Open implements Node.
func (t *TopNNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	return &exec.BatchTopNIter{In: t.Child.Open(ec), Keys: t.Keys, N: t.N, Heap: heapBelow(t.Child)}
}

// UniqueNode removes consecutive duplicates of sorted input (the sort-based
// DISTINCT; Table 2's "Unique" operator).
type UniqueNode struct {
	baseNode
	Child Node
}

// Label implements Node.
func (u *UniqueNode) Label() string { return "Unique" }

// Details implements Node.
func (u *UniqueNode) Details() []string { return nil }

// Children implements Node.
func (u *UniqueNode) Children() []Node { return []Node{u.Child} }

// Open implements Node.
func (u *UniqueNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	return &exec.BatchDedupIter{In: u.Child.Open(ec)}
}

// ---------- Aggregation ----------

// HashAggNode groups via hash table (Table 2's "HashAggregate").
type HashAggNode struct {
	baseNode
	Child    Node
	GroupBy  []exec.Expr
	Aggs     []*exec.AggSpec
	AggNames []string
}

// Label implements Node.
func (h *HashAggNode) Label() string { return "HashAggregate" }

// Details implements Node.
func (h *HashAggNode) Details() []string {
	if len(h.GroupBy) == 0 {
		return nil
	}
	parts := make([]string, len(h.GroupBy))
	for i, g := range h.GroupBy {
		parts[i] = g.String()
	}
	return []string{"Group Key: " + strings.Join(parts, ", ")}
}

// Children implements Node.
func (h *HashAggNode) Children() []Node { return []Node{h.Child} }

// Open implements Node.
func (h *HashAggNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	return &exec.BatchHashAggIter{In: h.Child.Open(ec), GroupBy: h.GroupBy, Aggs: h.Aggs}
}

// GroupAggNode groups sorted input (Table 2's "GroupAggregate"); the
// planner puts a SortNode below it.
type GroupAggNode struct {
	baseNode
	Child   Node
	GroupBy []exec.Expr
	Aggs    []*exec.AggSpec
}

// Label implements Node.
func (g *GroupAggNode) Label() string { return "GroupAggregate" }

// Details implements Node.
func (g *GroupAggNode) Details() []string {
	parts := make([]string, len(g.GroupBy))
	for i, ge := range g.GroupBy {
		parts[i] = ge.String()
	}
	return []string{"Group Key: " + strings.Join(parts, ", ")}
}

// Children implements Node.
func (g *GroupAggNode) Children() []Node { return []Node{g.Child} }

// Open implements Node.
func (g *GroupAggNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	return &exec.BatchSortedAggIter{In: g.Child.Open(ec), GroupBy: g.GroupBy, Aggs: g.Aggs}
}

// ---------- Joins ----------

// HashJoinNode is an inner equi-join building on the right child.
type HashJoinNode struct {
	baseNode
	Probe     Node
	Build     Node
	ProbeKeys []exec.Expr
	BuildKeys []exec.Expr
	Residual  []exec.Expr
}

// Label implements Node.
func (j *HashJoinNode) Label() string { return "Hash Join" }

// Details implements Node.
func (j *HashJoinNode) Details() []string {
	parts := make([]string, len(j.ProbeKeys))
	for i := range j.ProbeKeys {
		parts[i] = j.ProbeKeys[i].String() + " = " + j.BuildKeys[i].String()
	}
	d := []string{"Hash Cond: " + strings.Join(parts, " AND ")}
	if len(j.Residual) > 0 {
		d = append(d, "Join Filter: "+predsDisplay(j.Residual))
	}
	return d
}

// Children implements Node.
func (j *HashJoinNode) Children() []Node { return []Node{j.Probe, j.Build} }

// Open implements Node: both sides are consumed batch-at-a-time and the
// build side lives in a columnar table.
func (j *HashJoinNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	return &exec.BatchHashJoinIter{
		Probe: j.Probe.Open(ec), Build: j.Build.Open(ec),
		ProbeKeys: j.ProbeKeys, BuildKeys: j.BuildKeys,
		Residual:   conjoinExec(j.Residual),
		BuildWidth: len(j.Build.Layout().Cols),
	}
}

// MergeJoinNode is an inner equi-join over sorted children (the planner
// inserts the Sorts).
type MergeJoinNode struct {
	baseNode
	Left      Node
	Right     Node
	LeftKeys  []exec.Expr
	RightKeys []exec.Expr
	Residual  []exec.Expr
}

// Label implements Node.
func (j *MergeJoinNode) Label() string { return "Merge Join" }

// Details implements Node.
func (j *MergeJoinNode) Details() []string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = j.LeftKeys[i].String() + " = " + j.RightKeys[i].String()
	}
	d := []string{"Merge Cond: " + strings.Join(parts, " AND ")}
	if len(j.Residual) > 0 {
		d = append(d, "Join Filter: "+predsDisplay(j.Residual))
	}
	return d
}

// Children implements Node.
func (j *MergeJoinNode) Children() []Node { return []Node{j.Left, j.Right} }

// Open implements Node.
func (j *MergeJoinNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	return &exec.BatchSortedJoinIter{
		Left: j.Left.Open(ec), Right: j.Right.Open(ec),
		LeftKeys: j.LeftKeys, RightKeys: j.RightKeys,
		Residual: conjoinExec(j.Residual),
	}
}

// NestedLoopNode joins on an arbitrary (or absent) condition.
type NestedLoopNode struct {
	baseNode
	Outer Node
	Inner Node
	Cond  []exec.Expr
}

// Label implements Node.
func (j *NestedLoopNode) Label() string { return "Nested Loop" }

// Details implements Node.
func (j *NestedLoopNode) Details() []string {
	if len(j.Cond) == 0 {
		return nil
	}
	return []string{"Join Filter: " + predsDisplay(j.Cond)}
}

// Children implements Node.
func (j *NestedLoopNode) Children() []Node { return []Node{j.Outer, j.Inner} }

// Open implements Node: the keyless merge join pairs every outer row with
// the whole inner side.
func (j *NestedLoopNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	return &exec.BatchSortedJoinIter{Left: j.Outer.Open(ec), Right: j.Inner.Open(ec), Residual: conjoinExec(j.Cond)}
}

// ---------- Limit ----------

// LimitNode truncates output.
type LimitNode struct {
	baseNode
	Child Node
	N     int64
}

// Label implements Node.
func (l *LimitNode) Label() string { return fmt.Sprintf("Limit %d", l.N) }

// Details implements Node.
func (l *LimitNode) Details() []string { return nil }

// Children implements Node.
func (l *LimitNode) Children() []Node { return []Node{l.Child} }

// Open implements Node.
func (l *LimitNode) Open(ec *exec.ExecCtx) exec.BatchIterator {
	return &exec.BatchLimitIter{In: l.Child.Open(ec), N: l.N}
}

// ---------- EXPLAIN rendering ----------

// Explain renders the plan tree in a Postgres-like text form.
func Explain(root Node) string {
	var sb strings.Builder
	explainNode(&sb, root, 0, true)
	return sb.String()
}

func explainNode(sb *strings.Builder, n Node, depth int, first bool) {
	indent := strings.Repeat("  ", depth)
	arrow := ""
	if !first {
		arrow = "->  "
	}
	fmt.Fprintf(sb, "%s%s%s%s  (rows=%.0f cost=%.2f)\n", indent, arrow, n.Label(), annotation(n), math.Ceil(n.Rows()), n.Cost())
	for _, d := range n.Details() {
		fmt.Fprintf(sb, "%s      %s\n", indent, d)
	}
	for _, c := range n.Children() {
		explainNode(sb, c, depth+1, false)
	}
}

// LeafOrder returns the scan targets ("table" or "table alias") in plan
// pre-order — for join plans this is the join order the optimizer chose,
// which the Table 2 experiment diffs between virtual- and physical-column
// states.
func LeafOrder(root Node) []string {
	var out []string
	var walk func(Node)
	walk = func(n Node) {
		if s, ok := n.(*ScanNode); ok {
			name := s.TableName
			if s.AliasName != "" && s.AliasName != s.TableName {
				name = s.AliasName
			}
			out = append(out, name)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	return out
}

// OperatorNames returns the operator labels of the plan in pre-order —
// convenient for tests and for the Table 2 plan-diff experiment.
func OperatorNames(root Node) []string {
	var out []string
	var walk func(Node)
	walk = func(n Node) {
		label := n.Label()
		if i := strings.Index(label, " on "); i > 0 {
			label = label[:i]
		}
		if strings.HasPrefix(label, "Limit") {
			label = "Limit"
		}
		out = append(out, label)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	return out
}
