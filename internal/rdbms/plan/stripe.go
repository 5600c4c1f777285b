package plan

import "github.com/sinewdata/sinew/internal/rdbms/exec"

// This file compiles ahead what a plan's scans run. The batch scan itself
// has no mode — it aliases a frozen page or transposes row-form ones as it
// meets them, and runs one filter over both — so all that is decided here
// is what to compile: a scan with predicates gets its exec.SelFilter
// (ranked conjuncts narrowing a selection vector, extraction atoms read
// through the registered kernels), whatever its heap holds, and every
// MultiExtractNode stacked directly on a scan of a segmented heap gets its
// family's segment-kernel factory, so the fused kernels read per-attribute
// vectors out of frozen pages instead of decoding serialized records row
// by row. Row-form pages and foreign segment types fall back to the row
// kernel per batch, so results are identical either way.

// segmentFusable reports whether a single-key extraction group over child
// is still worth fusing: over a segmented scan with a registered segment
// factory it is, because only a MultiExtractNode can reach the segment
// vectors.
func (p *Planner) segmentFusable(family string, child Node) bool {
	s, ok := child.(*ScanNode)
	if !ok || !s.Heap.Segmented() {
		return false
	}
	_, ok = p.Funcs.StripedExtract(family)
	return ok
}

// prepareSegmented walks the plan, compiling each scan's predicates and,
// over a segmented heap, attaching segment factories to the
// MultiExtractNode stack above it — segments ride along batch columns
// (RowBatch.Segs survives extraction pass-through), so upper nodes of a
// stack see their data column striped too. Extraction atoms inside the
// conjuncts resolve their kernel factories through the session registry,
// so a predicate like json_int(data,'age') > 30 reads the segment's
// attribute vector.
func (p *Planner) prepareSegmented(n Node, above []*MultiExtractNode) {
	switch x := n.(type) {
	case nil:
		return
	case *MultiExtractNode:
		p.prepareSegmented(x.Child, append(above, x))
		return
	case *ScanNode:
		if len(x.Preds) > 0 {
			width := len(x.Heap.Schema().Cols)
			x.SelFilter = exec.CompileSelFilter(x.Preds, width, p.Funcs.StripedExtract, p.Funcs.MultiExtract)
		}
		if !x.Heap.Segmented() {
			return
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
