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
// equal to itself). Each predicate runs a second time with its constants
// lifted to parameters, the kernel and the generic path reading the bound
// values.
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

	run := func(pred Expr, params []types.Datum) {
		t.Helper()
		kernel := compileSelKernel(pred)
		if kernel == nil {
			t.Fatalf("%s: no kernel compiled", pred)
		}
		got := make([]bool, len(vals))
		if err := kernel(b, got, params); err != nil {
			t.Fatalf("%s: kernel: %v", pred, err)
		}
		ctx := NewEvalCtx()
		ctx.SetParams(params)
		want, err := EvalPredBatch(pred, b, ctx, nil)
		if err != nil {
			t.Fatalf("%s: generic: %v", pred, err)
		}
		for i := range vals {
			if got[i] != want[i] {
				t.Errorf("%s %v on %v: kernel keeps=%t, generic keeps=%t", pred, params, vals[i], got[i], want[i])
			}
		}
	}
	p0 := &ParamExpr{Slot: 0, Typ: types.Float}
	p1 := &ParamExpr{Slot: 1, Typ: types.Float}
	for _, c := range consts {
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			run(&BinExpr{Op: op, L: colX, R: &ConstExpr{Val: c}}, nil)
			run(&BinExpr{Op: op, L: &ConstExpr{Val: c}, R: colX}, nil)
			run(&BinExpr{Op: op, L: colX, R: p0}, []types.Datum{c})
			run(&BinExpr{Op: op, L: p0, R: colX}, []types.Datum{c})
		}
		for _, hi := range consts {
			for _, not := range []bool{false, true} {
				run(&BetweenExpr{X: colX, Lo: &ConstExpr{Val: c}, Hi: &ConstExpr{Val: hi}, Not: not}, nil)
				run(&BetweenExpr{X: colX, Lo: p0, Hi: p1, Not: not}, []types.Datum{c, hi})
			}
		}
	}
}
