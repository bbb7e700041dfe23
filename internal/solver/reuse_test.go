package solver

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/sparse"
)

// One analysis, both arithmetic kinds: the pattern-level pre-processing is
// value-type independent, so a single schedule must drive a real and a
// complex factorization of matrices sharing that pattern.
func TestAnalysisReuseAcrossArithmeticKinds(t *testing.T) {
	az := zLaplacian(12, 12)
	pat := az.Pattern()
	an := analyzeFor(t, pat, 4)

	// Real factorization of the pattern matrix itself.
	fr, _, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	xr := make([]float64, pat.N)
	for i := range xr {
		xr[i] = float64(i%5) + 1
	}
	br := make([]float64, pat.N)
	an.A.MatVec(permuteVec(xr, an.Perm), br)
	got := fr.Solve(br)
	for i := range got {
		if math.Abs(got[i]-permuteVec(xr, an.Perm)[i]) > 1e-9 {
			t.Fatalf("real path broken at %d", i)
		}
	}

	// Complex factorization on the same schedule.
	paz := az.Permute(an.Perm)
	zf := zFactorize(t, an, paz, ParOptions{Runtime: RuntimeMPSim})
	xz := make([]complex128, pat.N)
	for i := range xz {
		xz[i] = complex(1, float64(i%3))
	}
	bz := make([]complex128, pat.N)
	paz.MatVec(xz, bz)
	gz := zf.Solve(bz)
	for i := range gz {
		if cmplx.Abs(gz[i]-xz[i]) > 1e-8 {
			t.Fatalf("complex path broken at %d", i)
		}
	}
}

func permuteVec(x []float64, perm []int) []float64 {
	out := make([]float64, len(x))
	for newI, old := range perm {
		out[newI] = x[old]
	}
	return out
}

// The gathered parallel factor must carry exactly the diagonal the
// sequential one does — D is the most sensitive part of LDLᵀ.
func TestParallelDiagonalMatches(t *testing.T) {
	a := laplacian2D(16, 16)
	an := analyzeFor(t, a, 8)
	seq, err := FactorizeSeq(an.A, an.Sym)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range an.Sym.CB {
		ds := seq.Diag(k)
		dp := par.Diag(k)
		for j := range ds {
			if math.Abs(ds[j]-dp[j]) > 1e-12*(1+math.Abs(ds[j])) {
				t.Fatalf("cell %d D[%d]: %g vs %g", k, j, ds[j], dp[j])
			}
		}
	}
}

// Factor NNZ accounting is consistent between lazy and eager allocation.
func TestFactorsNNZAccounting(t *testing.T) {
	a := laplacian2D(8, 8)
	an := analyzeFor(t, a, 1)
	full := NewFactors(an.Sym)
	lazy := NewFactorsLazy(an.Sym)
	if lazy.NNZ() != 0 {
		t.Fatal("lazy factors should start empty")
	}
	var want int64
	for k := range an.Sym.CB {
		w := int64(an.Sym.CB[k].Width())
		want += w * int64(full.LD[k])
	}
	if full.NNZ() != want {
		t.Fatalf("NNZ %d want %d", full.NNZ(), want)
	}
	lazy.EnsureCell(0)
	if lazy.NNZ() == 0 || lazy.NNZ() >= full.NNZ() {
		t.Fatal("partial allocation accounting wrong")
	}
}

// FactorizeMatrixOptsCtx must let one analysis factorize a second matrix
// sharing the pattern but with different values.
func TestFactorizeMatrixReusesAnalysis(t *testing.T) {
	a := laplacian2D(15, 17)
	an := analyzeFor(t, a, 3)
	// Same pattern, scaled values (still SPD).
	a2 := &sparse.SymMatrix{N: a.N, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: make([]float64, len(a.Val))}
	for i, v := range a.Val {
		a2.Val[i] = 2.5 * v
	}
	pa2 := a2.Permute(an.Perm)
	f2, err := an.FactorizeMatrixOptsCtx(context.Background(), pa2, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x, b := gen.RHSForSolution(a2)
	pb := make([]float64, len(b))
	for newI, old := range an.Perm {
		pb[newI] = b[old]
	}
	px := f2.Solve(pb)
	for newI, old := range an.Perm {
		if math.Abs(px[newI]-x[old]) > 1e-8 {
			t.Fatalf("x mismatch at %d: %g vs %g", old, px[newI], x[old])
		}
	}
}
