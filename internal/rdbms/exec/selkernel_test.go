package exec

import (
	"math"
	"testing"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// TestSelKernelMatchesGenericOnFloatEdges runs the compiled comparison and
// BETWEEN kernels against EvalPredBatch over a column holding NaN, ±Inf,
// -0.0, integers and NULLs: a kernel must keep exactly the rows the generic
// path keeps (types.Compare's total order puts NaN after everything and
// equal to itself).
func TestSelKernelMatchesGenericOnFloatEdges(t *testing.T) {
	vals := []types.Datum{
		types.NewFloat(math.NaN()), types.NewFloat(1), types.NewFloat(math.Inf(1)),
		types.NewFloat(math.Inf(-1)), types.NewFloat(math.Copysign(0, -1)), types.NewInt(1),
		types.NewInt(-3), types.NewNull(types.Float), types.NewFloat(2.5),
	}
	b := NewRowBatch(1, 0)
	b.SetCol(0, vals)
	b.SetLen(len(vals))
	colX := &ColExpr{Idx: 0, Typ: types.Float, Name: "x"}
	consts := []types.Datum{types.NewFloat(math.NaN()), types.NewFloat(1), types.NewInt(0), types.NewFloat(math.Inf(1))}

	check := func(pred Expr) {
		t.Helper()
		kernel := compileSelKernel(pred)
		if kernel == nil {
			t.Fatalf("%s: no kernel compiled", pred)
		}
		got := make([]bool, len(vals))
		if err := kernel(b, got); err != nil {
			t.Fatalf("%s: kernel: %v", pred, err)
		}
		want, err := EvalPredBatch(pred, b, NewEvalCtx(), nil)
		if err != nil {
			t.Fatalf("%s: generic: %v", pred, err)
		}
		for i := range vals {
			if got[i] != want[i] {
				t.Errorf("%s on %v: kernel keeps=%t, generic keeps=%t", pred, vals[i], got[i], want[i])
			}
		}
	}
	for _, c := range consts {
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			check(&BinExpr{Op: op, L: colX, R: &ConstExpr{Val: c}})
			check(&BinExpr{Op: op, L: &ConstExpr{Val: c}, R: colX})
		}
		for _, hi := range consts {
			check(&BetweenExpr{X: colX, Lo: &ConstExpr{Val: c}, Hi: &ConstExpr{Val: hi}})
			check(&BetweenExpr{X: colX, Lo: &ConstExpr{Val: c}, Hi: &ConstExpr{Val: hi}, Not: true})
		}
	}
}
