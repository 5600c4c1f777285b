package exec

import (
	"sort"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// BatchHashAggIter is the hash aggregate: group keys and aggregate
// arguments are evaluated once per input batch with EvalBatch, then a
// tight per-row loop updates group states from the materialized columns.
// Output rows are [groupKeys..., aggResults...] in encoded-key order, so
// group order is deterministic; with no group keys it emits exactly one
// row (scalar aggregation).
type BatchHashAggIter struct {
	In      BatchIterator
	GroupBy []Expr
	Aggs    []*AggSpec

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
	width := len(h.GroupBy) + len(h.Aggs)
	if h.out == nil {
		// Selective queries leave far fewer groups than the batch size;
		// sizing the output by the remaining groups keeps a five-group
		// aggregate from allocating a full-size batch every execution.
		h.out = NewRowBatch(width, min(DefaultBatchSize, len(h.groups)-h.pos))
	}
	b := h.out
	b.Reset()
	row := make([]types.Datum, 0, width)
	for b.Len() < DefaultBatchSize && h.pos < len(h.groups) {
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
	h.groups = finishGroups(groups, h.GroupBy, h.Aggs)
}

// finishGroups lists a drained group table for emission: an ungrouped
// aggregate over no rows still yields its one row (COUNT 0, SUM NULL), and
// groups come out in encoded-key order.
func finishGroups(groups map[string]*aggGroup, groupBy []Expr, aggs []*AggSpec) []*aggGroup {
	if len(groups) == 0 && len(groupBy) == 0 {
		groups[""] = newAggGroup(nil, "", aggs)
	}
	out := make([]*aggGroup, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	if len(out) > 1 {
		sort.Slice(out, func(a, b int) bool { return out[a].encKey < out[b].encKey })
	}
	return out
}

// Close implements BatchIterator.
func (h *BatchHashAggIter) Close() { h.In.Close() }
