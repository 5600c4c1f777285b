package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// TestPropertyBatchJoinMatchesRowJoin checks the batch hash join against
// the reference join: identical output order, NULL keys dropped on both
// sides, with and without a residual predicate, over a probe side that is
// sometimes empty and sometimes more than two batches with an output of
// several.
func TestPropertyBatchJoinMatchesRowJoin(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		colTypes := []types.Type{types.Int, types.Text}
		rows := randBatchRows(r, colTypes, drawRows(r, r.Intn(300)))
		h, _ := heapOf(t, colTypes, rows)
		buildTypes := []types.Type{types.Int, types.Text, types.Float}
		buildRows := randBatchRows(r, buildTypes, r.Intn(40))
		bh, _ := heapOf(t, buildTypes, buildRows)
		probeKeys := []Expr{col(0, types.Int)}
		buildKeys := []Expr{col(0, types.Int)}
		var residual Expr
		if r.Intn(2) == 0 {
			residual = &BinExpr{Op: "<>", L: col(1, types.Text), R: lit(types.NewText("c"))}
		}

		ref := mustRef(t)
		want := ref(refJoin(rows, buildRows, probeKeys, buildKeys, residual))
		got := collectBatches(t, &BatchHashJoinIter{
			Probe: NewBatchScan(h, nil), Build: NewBatchScan(bh, nil),
			ProbeKeys: probeKeys, BuildKeys: buildKeys, Residual: residual,
			BuildWidth: len(buildTypes),
		})
		rowsEqual(t, got, want)

		// A filtered probe side exercises the selection-vector path through
		// the batch probe loop.
		pred := randPred(r, colTypes, 2, true)
		wantF := ref(refJoin(ref(refFilter(rows, pred)), buildRows, probeKeys, buildKeys, residual))
		gotF := collectBatches(t, &BatchHashJoinIter{
			Probe:     filterOn(NewBatchScan(h, nil), pred),
			Build:     NewBatchScan(bh, nil),
			ProbeKeys: probeKeys, BuildKeys: buildKeys, Residual: residual,
			BuildWidth: len(buildTypes),
		})
		rowsEqual(t, gotF, wantF)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBatchJoinClosesInputs pins the Close contract: both inputs are closed
// exactly once even when the consumer abandons the join before the build
// side has been drained, and double Close is safe.
func TestBatchJoinClosesInputs(t *testing.T) {
	probe := &closeCountIter{}
	build := &closeCountIter{}
	j := &BatchHashJoinIter{
		Probe: probe, Build: build,
		ProbeKeys: []Expr{col(0, types.Int)}, BuildKeys: []Expr{col(0, types.Int)},
		BuildWidth: 1,
	}
	j.Close()
	j.Close()
	if probe.closed == 0 || build.closed == 0 {
		t.Fatalf("inputs not closed: probe=%d build=%d", probe.closed, build.closed)
	}
}

// closeCountIter is an empty BatchIterator that counts Close calls.
type closeCountIter struct{ closed int }

func (c *closeCountIter) NextBatch() (*RowBatch, error) { return nil, nil }
func (c *closeCountIter) Close()                        { c.closed++ }
