package plan

import "github.com/sinewdata/sinew/internal/rdbms/exec"

// This file prepares plans for the frozen pages of a segmented heap. The
// batch scan itself has no mode — it aliases a frozen page or transposes
// row-form ones as it meets them — so all that is decided here is what to
// compile ahead: a scan with predicates gets its exec.SelFilter (ranked
// conjuncts run directly against the page vectors and emit selection
// vectors), and every MultiExtractNode stacked directly on a scan gets its
// family's segment-kernel factory, so the fused kernels read per-attribute
// vectors out of frozen pages instead of decoding serialized records row by
// row. Both are skipped for a heap with no frozen page at plan time, where
// nobody would run them; row-form pages and foreign segment types fall
// back to the row kernel per batch, so results are identical either way.

// segmented reports whether the scan will meet frozen pages.
func segmented(s *ScanNode) bool { return s.Heap.Segmented() }

// segmentFusable reports whether a single-key extraction group over child
// is still worth fusing: over a segmented scan with a registered segment
// factory it is, because only a MultiExtractNode can reach the segment
// vectors.
func (p *Planner) segmentFusable(family string, child Node) bool {
	s, ok := child.(*ScanNode)
	if !ok || !segmented(s) {
		return false
	}
	_, ok = p.Funcs.StripedExtract(family)
	return ok
}

// prepareSegmented walks the plan, compiling each segmented scan's
// predicates and attaching segment factories to the MultiExtractNode
// stack above it — segments ride along batch columns (RowBatch.Segs
// survives extraction pass-through), so upper nodes of a stack see their
// data column striped too. Extraction atoms inside the conjuncts resolve
// their kernel factories through the session registry, so a predicate
// like json_int(data,'age') > 30 reads the segment's attribute vector.
func (p *Planner) prepareSegmented(n Node, above []*MultiExtractNode) {
	switch x := n.(type) {
	case nil:
		return
	case *MultiExtractNode:
		p.prepareSegmented(x.Child, append(above, x))
		return
	case *ScanNode:
		if !segmented(x) {
			return
		}
		if len(x.Preds) > 0 {
			width := len(x.Heap.Schema().Cols)
			x.SelFilter = exec.CompileSelFilter(x.Preds, width, p.Funcs.StripedExtract, p.Funcs.MultiExtract)
		}
		for _, m := range above {
			if f, ok := p.Funcs.StripedExtract(m.Family); ok {
				m.SegFactory = f
			}
		}
		return
	}
	for _, c := range n.Children() {
		p.prepareSegmented(c, nil)
	}
}
