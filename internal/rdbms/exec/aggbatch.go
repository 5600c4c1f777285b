package exec

import (
	"sort"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// BatchHashAggIter is the batch-native hash aggregate: group keys and
// aggregate arguments are evaluated once per input batch with EvalBatch,
// then a tight per-row loop updates group states from the materialized
// columns. Semantics (grouping, DISTINCT, NULL handling, deterministic
// encKey output order unless SkipSort) match HashAggIter exactly.
type BatchHashAggIter struct {
	In       BatchIterator
	GroupBy  []Expr
	Aggs     []*AggSpec
	SkipSort bool
	Size     int // output batch size; DefaultBatchSize when <= 0

	done   bool
	err    error
	groups []*aggGroup
	pos    int
	out    *RowBatch
}

// NextBatch implements BatchIterator.
func (h *BatchHashAggIter) NextBatch() (*RowBatch, error) {
	if !h.done {
		h.run()
	}
	if h.err != nil {
		return nil, h.err
	}
	if h.pos >= len(h.groups) {
		return nil, nil
	}
	size := h.Size
	if size <= 0 {
		size = DefaultBatchSize
	}
	width := len(h.GroupBy) + len(h.Aggs)
	if h.out == nil {
		// Selective queries leave far fewer groups than the batch size;
		// sizing the output by the remaining groups keeps a five-group
		// aggregate from allocating a full-size batch every execution.
		capHint := size
		if rem := len(h.groups) - h.pos; rem < capHint {
			capHint = rem
		}
		h.out = NewRowBatch(width, capHint)
	}
	b := h.out
	b.Reset()
	row := make([]types.Datum, 0, width)
	for b.Len() < size && h.pos < len(h.groups) {
		g := h.groups[h.pos]
		h.pos++
		row = row[:0]
		row = append(row, g.keyVals...)
		for _, st := range g.states {
			row = append(row, st.result())
		}
		b.AppendRow(row)
	}
	if b.Len() == 0 {
		return nil, nil
	}
	return b, nil
}

func (h *BatchHashAggIter) run() {
	h.done = true
	groups := make(map[string]*aggGroup)
	if h.err = accumulateGroups(h.In, h.GroupBy, h.Aggs, nil, groups); h.err != nil {
		return
	}
	h.groups = finishGroups(groups, h.GroupBy, h.Aggs, h.SkipSort)
}

// finishGroups lists a drained group table for emission: an ungrouped
// aggregate over no rows still yields its one row (COUNT 0, SUM NULL), and
// groups come out in encoded-key order unless skipSort.
func finishGroups(groups map[string]*aggGroup, groupBy []Expr, aggs []*AggSpec, skipSort bool) []*aggGroup {
	if len(groups) == 0 && len(groupBy) == 0 {
		groups[""] = newAggGroup(nil, "", aggs)
	}
	out := make([]*aggGroup, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	if !skipSort && len(out) > 1 {
		sort.Slice(out, func(a, b int) bool { return out[a].encKey < out[b].encKey })
	}
	return out
}

// Close implements BatchIterator.
func (h *BatchHashAggIter) Close() { h.In.Close() }
