package storage

// RowCachedFrozenPages counts the frozen pages of h that hold a row-form
// copy of themselves (the row cache, or a decoded segment column).
func RowCachedFrozenPages(h *Heap) (n int) {
	for _, p := range h.pages {
		if fp := p.frozen; fp != nil && (fp.rows != nil || fp.segVals != nil) {
			n++
		}
	}
	return n
}
