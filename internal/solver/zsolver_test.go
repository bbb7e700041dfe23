package solver

import (
	"context"
	"math/cmplx"
	"math/rand"
	"testing"

	"github.com/pastix-go/pastix/internal/sparse"
)

// zLaplacian builds a complex symmetric diagonally dominant matrix on a 2D
// grid: a Helmholtz-like shifted Laplacian (the paper's motivating class).
func zLaplacian(nx, ny int) *sparse.ZSymMatrix {
	b := sparse.NewZBuilder(nx * ny)
	idx := func(i, j int) int { return i + j*nx }
	rng := rand.New(rand.NewSource(81))
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			v := idx(i, j)
			b.Add(v, v, complex(4.5, 1.5+rng.Float64()))
			if i+1 < nx {
				b.Add(v, idx(i+1, j), complex(-1, 0.2*rng.Float64()))
			}
			if j+1 < ny {
				b.Add(v, idx(i, j+1), complex(-1, -0.2*rng.Float64()))
			}
		}
	}
	return b.Build()
}

// zHelmholtz builds an indefinite complex symmetric matrix on a 2D grid:
// the 5-point Laplacian shifted by −1.5 (so the real part has eigenvalues of
// both signs) with a small random absorption on the diagonal.
func zHelmholtz(nx, ny int) *sparse.ZSymMatrix {
	b := sparse.NewZBuilder(nx * ny)
	idx := func(i, j int) int { return i + j*nx }
	rng := rand.New(rand.NewSource(82))
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			v := idx(i, j)
			b.Add(v, v, complex(4-1.5, 0.05+0.05*rng.Float64()))
			if i+1 < nx {
				b.Add(v, idx(i+1, j), -1)
			}
			if j+1 < ny {
				b.Add(v, idx(i, j+1), -1)
			}
		}
	}
	return b.Build()
}

func zAnalyze(t *testing.T, az *sparse.ZSymMatrix, P int) (*Analysis, *sparse.ZSymMatrix) {
	t.Helper()
	an := analyzeFor(t, az.Pattern(), P)
	return an, az.Permute(an.Perm)
}

// zFactorize runs the complex factorization of paz under popts.
func zFactorize(t *testing.T, an *Analysis, paz *sparse.ZSymMatrix, popts ParOptions) *ZFactors {
	t.Helper()
	zf, err := an.FactorizeComplexCtx(context.Background(), paz, popts)
	if err != nil {
		t.Fatalf("%v: %v", popts.Runtime, err)
	}
	return zf
}

// zFactorsClose checks the complex factors entrywise to relative tol.
func zFactorsClose(t *testing.T, ref, got *ZFactors, tol float64) {
	t.Helper()
	for k := range ref.Data {
		for i := range ref.Data[k] {
			if cmplx.Abs(ref.Data[k][i]-got.Data[k][i]) > tol*(1+cmplx.Abs(ref.Data[k][i])) {
				t.Fatalf("cell %d elem %d: %v vs %v", k, i, ref.Data[k][i], got.Data[k][i])
			}
		}
	}
}

func TestZSeqFactorSolve(t *testing.T) {
	az := zLaplacian(14, 14)
	an, paz := zAnalyze(t, az, 1)
	zf := zFactorize(t, an, paz, ParOptions{Runtime: RuntimeSequential})
	// Manufactured complex solution.
	n := az.N
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(1+float64(i%5), float64(i%3)-1)
	}
	b := make([]complex128, n)
	paz.MatVec(x, b)
	got := zf.Solve(b)
	for i := range x {
		if cmplx.Abs(got[i]-x[i]) > 1e-9*(1+cmplx.Abs(x[i])) {
			t.Fatalf("x[%d]=%v want %v", i, got[i], x[i])
		}
	}
	if r := sparse.Residual(paz, got, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

func TestZSeqReconstruction(t *testing.T) {
	az := zLaplacian(6, 6)
	an, paz := zAnalyze(t, az, 1)
	zf := zFactorize(t, an, paz, ParOptions{Runtime: RuntimeSequential})
	n := az.N
	L := make([]complex128, n*n)
	D := make([]complex128, n)
	for i := 0; i < n; i++ {
		L[i+i*n] = 1
	}
	sym := an.Sym
	for k := range sym.CB {
		cb := &sym.CB[k]
		ld := zf.LD[k]
		for j := 0; j < cb.Width(); j++ {
			gc := cb.Cols[0] + j
			D[gc] = zf.Data[k][j+j*ld]
			for i := j + 1; i < cb.Width(); i++ {
				L[(cb.Cols[0]+i)+gc*n] = zf.Data[k][i+j*ld]
			}
			for bi := range cb.Blocks {
				blk := &cb.Blocks[bi]
				off := zf.BlockOff[k][bi]
				for r := 0; r < blk.Rows(); r++ {
					L[(blk.FirstRow+r)+gc*n] = zf.Data[k][off+r+j*ld]
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var s complex128
			for kk := 0; kk <= j; kk++ {
				s += L[i+kk*n] * D[kk] * L[j+kk*n]
			}
			want := paz.At(i, j)
			if cmplx.Abs(s-want) > 1e-9*(1+cmplx.Abs(want)) {
				t.Fatalf("reconstruction (%d,%d): %v want %v", i, j, s, want)
			}
		}
	}
}

func TestZParallelSolveEndToEnd(t *testing.T) {
	az := zLaplacian(16, 16)
	an, paz := zAnalyze(t, az, 4)
	zf := zFactorize(t, an, paz, ParOptions{Runtime: RuntimeMPSim})
	n := az.N
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i%7), 1)
	}
	b := make([]complex128, n)
	paz.MatVec(x, b)
	got := zf.Solve(b)
	for i := range x {
		if cmplx.Abs(got[i]-x[i]) > 1e-8 {
			t.Fatalf("x[%d]=%v want %v", i, got[i], x[i])
		}
	}
}

func TestZPatternMatchesStructure(t *testing.T) {
	az := zLaplacian(5, 5)
	p := az.Pattern()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.N != az.N || p.NNZ() != az.NNZ() {
		t.Fatal("pattern shape mismatch")
	}
	if err := az.Validate(); err != nil {
		t.Fatal(err)
	}
}
