package solver

import (
	"context"
	"math"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/lowrank"
	"github.com/pastix-go/pastix/internal/sparse"
)

// compressFixture factorizes a 3-D Poisson problem (large enough to have
// admissible off-diagonal blocks) and returns the analysis, factor and the
// permuted rhs.
func compressFixture(t *testing.T, P int) (*Analysis, *Factors, []float64, *sparse.SymMatrix) {
	t.Helper()
	a := gen.Laplacian3D(10, 10, 10)
	an := analyzeFor(t, a, P)
	f, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeShared})
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(a)
	pb := make([]float64, len(b))
	for newI, old := range an.Perm {
		pb[newI] = b[old]
	}
	return an, f, pb, an.A
}

// TestCompressReducesMemory: the pass must actually shrink the factor, free
// the dense arrays, and report consistent byte accounting.
func TestCompressReducesMemory(t *testing.T) {
	_, f, _, _ := compressFixture(t, 4)
	denseNNZ := f.NNZ()
	dense := f.Data
	st := f.Compress(lowrank.Options{Tol: 1e-8, MinBlockSize: 8})
	if !f.Compressed() {
		t.Fatal("factor not marked compressed")
	}
	if st.BlocksCompressed == 0 {
		t.Fatal("no block compressed on a 10³ Poisson factor")
	}
	if st.DenseBytes != 8*denseNNZ {
		t.Errorf("DenseBytes = %d, want 8·NNZ = %d", st.DenseBytes, 8*denseNNZ)
	}
	if st.CompressedBytes != 8*f.NNZ() {
		t.Errorf("CompressedBytes = %d, resident bytes %d", st.CompressedBytes, 8*f.NNZ())
	}
	if st.CompressedBytes >= st.DenseBytes {
		t.Errorf("no memory reduction: %d -> %d bytes", st.DenseBytes, st.CompressedBytes)
	}
	if math.Abs(st.Ratio-float64(st.DenseBytes)/float64(st.CompressedBytes)) > 1e-12 {
		t.Errorf("Ratio %g inconsistent", st.Ratio)
	}
	if f.Data != nil {
		t.Fatal("strided cells not released")
	}
	for k := range f.lrCells {
		if &f.lrCells[k].diag[0] == &dense[k][0] {
			t.Fatalf("dense cell %d still aliased", k)
		}
	}
	if got := f.Compression(); got == nil || *got != st {
		t.Errorf("Compression() = %+v, want %+v", got, st)
	}
}

// TestCompressedSolveAccuracy: a compressed solve approximates the dense
// solve to roughly the compression tolerance (measured through the backward
// error, which is what the contract promises after refinement).
func TestCompressedSolveAccuracy(t *testing.T) {
	_, f, pb, pa := compressFixture(t, 4)
	xDense := f.Solve(pb)
	f.Compress(lowrank.Options{Tol: 1e-8, MinBlockSize: 8})
	xComp := f.Solve(pb)
	var diff, norm float64
	for i := range xDense {
		diff = math.Max(diff, math.Abs(xDense[i]-xComp[i]))
		norm = math.Max(norm, math.Abs(xDense[i]))
	}
	if diff > 1e-4*norm {
		t.Errorf("compressed solve diverged: max diff %g vs norm %g", diff, norm)
	}
	if be := sparse.Residual(pa, xComp, pb); be > 1e-6 {
		t.Errorf("compressed backward error %g", be)
	}
}

// TestCompressedSolveConformance: the level-set engine on a compressed
// factor (any workers, single and multi RHS columns) is bitwise-identical to
// the compressed sequential Solve.
func TestCompressedSolveConformance(t *testing.T) {
	an, f, pb, _ := compressFixture(t, 4)
	f.Compress(lowrank.Options{Tol: 1e-8, MinBlockSize: 8})
	ref := f.Solve(pb)
	for _, workers := range []int{1, 2, 4} {
		pl := BuildSolvePlan(an.Sym, an.SolveDAG(), workers, 0)
		x, err := SolveLevelCtx(context.Background(), pl, f, pb, LevelOptions{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ref {
			if x[i] != ref[i] {
				t.Fatalf("workers=%d: x[%d] = %x, seq %x", workers, i, x[i], ref[i])
			}
		}
	}
	// Multi-RHS: each column of the panel solve equals the single-RHS solve.
	n := len(pb)
	nrhs := 3
	panel := make([]float64, n*nrhs)
	for c := 0; c < nrhs; c++ {
		for i := 0; i < n; i++ {
			panel[c*n+i] = pb[i] * float64(c+1)
		}
	}
	pl := BuildSolvePlan(an.Sym, an.SolveDAG(), 4, 0)
	xp, err := SolveLevelCtx(context.Background(), pl, f, panel, LevelOptions{NRHS: nrhs})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < nrhs; c++ {
		col := f.Solve(panel[c*n : (c+1)*n])
		for i := 0; i < n; i++ {
			if xp[c*n+i] != col[i] {
				t.Fatalf("panel col %d row %d: %x vs %x", c, i, xp[c*n+i], col[i])
			}
		}
	}
}

// TestCompressedRefineRecovers: solve-then-RefineAdaptive on a compressed
// factor pulls the backward error below the refinement tolerance (the
// accuracy contract of lossy factors).
func TestCompressedRefineRecovers(t *testing.T) {
	_, f, pb, pa := compressFixture(t, 4)
	f.Compress(lowrank.Options{Tol: 1e-8, MinBlockSize: 8})
	x := f.Solve(pb)
	refined, st := f.RefineAdaptive(pa, pb, x, DefaultRefineTol, 0)
	if st.BackwardError > DefaultRefineTol {
		t.Fatalf("refined backward error %g > RefineTol %g after %d iterations",
			st.BackwardError, DefaultRefineTol, st.Iterations)
	}
	if be := sparse.Residual(pa, refined, pb); be > DefaultRefineTol {
		t.Fatalf("recomputed backward error %g disagrees with stats", be)
	}
}

// TestCompressDisabledAndIdempotent: zero options are a no-op (the factor
// stays dense, same arrays), and a second Compress returns the same stats
// without re-compressing.
func TestCompressDisabledAndIdempotent(t *testing.T) {
	_, f, _, _ := compressFixture(t, 1)
	cell0 := f.Data[0]
	if st := f.Compress(lowrank.Options{}); st != (CompressionStats{}) || f.Compressed() {
		t.Fatal("disabled options compressed the factor")
	}
	if f.Data == nil || &f.Data[0][0] != &cell0[0] {
		t.Fatal("disabled Compress touched the dense cells")
	}
	st1 := f.Compress(lowrank.Options{Tol: 1e-8, MinBlockSize: 8})
	st2 := f.Compress(lowrank.Options{Tol: 1e-4, MinBlockSize: 8})
	if st1 != st2 {
		t.Fatalf("re-Compress changed stats: %+v vs %+v", st1, st2)
	}
}
