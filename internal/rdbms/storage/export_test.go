package storage

import "unsafe"

// DecodedFrozenPages counts the frozen pages of h that hold a decoded
// copy of a segment column (ColVals's cache) and the bytes those copies
// and their tables take. A frozen page holds no row-form copy of itself:
// row readers build their rows per call.
func DecodedFrozenPages(h *Heap) (pages int, bytes int64) {
	const datum, word, slice = int64(unsafe.Sizeof(Row{}[0])), 8, int64(unsafe.Sizeof(Row{}))
	for _, p := range h.pages {
		fp := p.frozen
		if fp == nil || fp.segVals == nil {
			continue
		}
		pages++
		bytes += 2 * slice * int64(len(fp.segVals))
		for j := range fp.segVals {
			bytes += datum*int64(cap(fp.segVals[j])) + word*int64(cap(fp.segNull[j]))
		}
	}
	return pages, bytes
}
