package solver

import (
	"context"
	"math"
	"testing"

	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
)

func laplacian2D(nx, ny int) *sparse.SymMatrix {
	b := sparse.NewBuilder(nx * ny)
	idx := func(i, j int) int { return i + j*nx }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			v := idx(i, j)
			b.Add(v, v, 4.5)
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

func analyzeFor(t *testing.T, a *sparse.SymMatrix, P int) *Analysis {
	t.Helper()
	an, err := Analyze(a, Options{
		P:        P,
		Ordering: order.Options{Method: order.ScotchLike, LeafSize: 30},
		Part:     part.Options{BlockSize: 12, Ratio2D: 2, MinWidth2D: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := an.Sched.Validate(); err != nil {
		t.Fatal(err)
	}
	return an
}

// solveOriginal solves A·x = b in the original ordering: b is permuted in,
// Factors.Solve runs on the factor, and the solution is permuted back.
func solveOriginal(an *Analysis, f *Factors, b []float64) []float64 {
	pb := make([]float64, len(b))
	for newI, old := range an.Perm {
		pb[newI] = b[old]
	}
	px := f.Solve(pb)
	x := make([]float64, len(b))
	for newI, old := range an.Perm {
		x[old] = px[newI]
	}
	return x
}

func TestSeqFactorSolveLaplacian(t *testing.T) {
	a := laplacian2D(15, 15)
	an := analyzeFor(t, a, 1)
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	x, b := gen.RHSForSolution(a)
	got := solveOriginal(an, f, b)
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("x[%d]=%g want %g", i, got[i], x[i])
		}
	}
	if r := sparse.Residual(a, got, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

func TestSeqFactorAgainstDenseLDLT(t *testing.T) {
	// On a small matrix, compare the sparse block factor's reconstruction
	// A ≈ L·D·Lᵀ against the original values entrywise.
	a := laplacian2D(6, 6)
	an := analyzeFor(t, a, 1)
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	n := a.N
	// Expand the block factor into dense L (unit diag) and D.
	L := make([]float64, n*n)
	D := make([]float64, n)
	for i := 0; i < n; i++ {
		L[i+i*n] = 1
	}
	sym := an.Sym
	data := f.Data
	for k := range sym.CB {
		cb := &sym.CB[k]
		ld := f.LD[k]
		for j := 0; j < cb.Width(); j++ {
			gc := cb.Cols[0] + j
			D[gc] = data[k][j+j*ld]
			for i := j + 1; i < cb.Width(); i++ {
				L[(cb.Cols[0]+i)+gc*n] = data[k][i+j*ld]
			}
			for bi := range cb.Blocks {
				blk := &cb.Blocks[bi]
				off := f.BlockOff[k][bi]
				for r := 0; r < blk.Rows(); r++ {
					L[(blk.FirstRow+r)+gc*n] = data[k][off+r+j*ld]
				}
			}
		}
	}
	pa := an.A
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for kk := 0; kk <= j; kk++ {
				s += L[i+kk*n] * D[kk] * L[j+kk*n]
			}
			want := pa.At(i, j)
			if math.Abs(s-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("reconstruction (%d,%d): %g want %g", i, j, s, want)
			}
		}
	}
}

func factorsClose(t *testing.T, a, b *Factors, tol float64) {
	t.Helper()
	ad, bd := a.Data, b.Data
	for k := range ad {
		if len(ad[k]) != len(bd[k]) {
			t.Fatalf("cell %d sizes differ", k)
		}
		for i := range ad[k] {
			if math.Abs(ad[k][i]-bd[k][i]) > tol*(1+math.Abs(ad[k][i])) {
				t.Fatalf("cell %d elem %d: %g vs %g", k, i, ad[k][i], bd[k][i])
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	a := laplacian2D(20, 20)
	seqAn := analyzeFor(t, a, 1)
	ref, err := FactorizeSeq(seqAn.A, seqAn.Sym)
	if err != nil {
		t.Fatal(err)
	}
	for _, P := range []int{2, 3, 4, 8} {
		an := analyzeFor(t, a, P)
		// Same ordering/partition pipeline → same symbol as P=1.
		got, _, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		factorsClose(t, ref, got, 1e-11)
	}
}

func TestParallelExercises2DTasks(t *testing.T) {
	a := laplacian2D(24, 24)
	an := analyzeFor(t, a, 8)
	st := an.Sched.ComputeStats()
	if st.NBMod == 0 || st.NBDiv == 0 || st.NFactor == 0 {
		t.Fatalf("schedule has no 2D tasks (stats %+v); test would not cover the 2D path", st)
	}
	f, _, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x, b := gen.RHSForSolution(a)
	got := solveOriginal(an, f, b)
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-8 {
			t.Fatalf("x[%d]=%g want %g", i, got[i], x[i])
		}
	}
}

func TestParallelOnGeneratedProblems(t *testing.T) {
	for _, name := range []string{"THREAD", "SHIP001", "QUER"} {
		p, err := gen.Generate(name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		an := analyzeFor(t, p.A, 4)
		f, err := an.Factorize()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x, b := gen.RHSForSolution(p.A)
		got := solveOriginal(an, f, b)
		maxErr := 0.0
		for i := range x {
			if e := math.Abs(got[i] - x[i]); e > maxErr {
				maxErr = e
			}
		}
		if maxErr > 1e-8 {
			t.Fatalf("%s: max error %g", name, maxErr)
		}
		if r := sparse.Residual(p.A, got, b); r > 1e-12 {
			t.Fatalf("%s: residual %g", name, r)
		}
	}
}

func TestRefineImprovesOrKeepsResidual(t *testing.T) {
	a := laplacian2D(12, 12)
	an := analyzeFor(t, a, 1)
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(a)
	pb := make([]float64, len(b))
	for newI, old := range an.Perm {
		pb[newI] = b[old]
	}
	x0 := f.Solve(pb)
	// Perturb the solution, then refine.
	x0[0] += 1e-3
	r0 := sparse.Residual(an.A, x0, pb)
	x1 := f.Refine(an.A, pb, x0)
	r1 := sparse.Residual(an.A, x1, pb)
	if r1 > r0 {
		t.Fatalf("refinement worsened residual: %g -> %g", r0, r1)
	}
	if r1 > 1e-10 {
		t.Fatalf("refined residual still large: %g", r1)
	}
}

func TestAssembleRejectsOutOfStructure(t *testing.T) {
	// Natural ordering of a tridiagonal matrix with a partition of singleton
	// supernodes: entry (5,0) is outside the structure.
	b := sparse.NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.Add(i, i, 4)
		if i+1 < 6 {
			b.Add(i+1, i, -1)
		}
	}
	a := b.Build()
	an, err := Analyze(a, Options{
		P:            1,
		Ordering:     order.Options{Method: order.Natural},
		Amalgamation: etree.AmalgamateOptions{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFactors(an.Sym)
	bad := sparse.NewBuilder(6)
	bad.Add(0, 0, 1)
	bad.Add(5, 0, 7) // fill of a tridiagonal natural factor never reaches (5,0)
	for i := 1; i < 6; i++ {
		bad.Add(i, i, 1)
	}
	if err := f.AssembleCell(bad.Build(), 0, 0, 6); err == nil {
		t.Fatal("expected out-of-structure error")
	}
}

func TestLocateRow(t *testing.T) {
	a := laplacian2D(8, 8)
	an := analyzeFor(t, a, 1)
	f := NewFactors(an.Sym)
	for k := range an.Sym.CB {
		cb := &an.Sym.CB[k]
		// Diagonal rows.
		if lr := f.LocateRow(k, cb.Cols[0]); lr != 0 {
			t.Fatalf("cb %d first col row at %d", k, lr)
		}
		for bi, blk := range cb.Blocks {
			if lr := f.LocateRow(k, blk.FirstRow); lr != f.BlockOff[k][bi] {
				t.Fatalf("cb %d block %d first row maps to %d", k, bi, lr)
			}
			if lr := f.LocateRow(k, blk.LastRow-1); lr != f.BlockOff[k][bi]+blk.Rows()-1 {
				t.Fatalf("cb %d block %d last row wrong", k, bi)
			}
		}
	}
	// A row in no structure: row between blocks or past the end.
	if f.LocateRow(0, an.Sym.N) != -1 {
		t.Fatal("out-of-range row located")
	}
}

func TestAnalyzeMetricsPopulated(t *testing.T) {
	a := laplacian2D(16, 16)
	an := analyzeFor(t, a, 4)
	if an.ScalarNNZL <= int64(a.N) {
		t.Fatalf("scalar NNZL %d too small", an.ScalarNNZL)
	}
	if an.ScalarOPC <= 0 {
		t.Fatal("scalar OPC missing")
	}
	if an.Sym.NNZL() < an.ScalarNNZL {
		t.Fatalf("block NNZL %d below scalar %d", an.Sym.NNZL(), an.ScalarNNZL)
	}
	if an.PredictedTime() <= 0 {
		t.Fatal("predicted time missing")
	}
}

func TestScheduleReuseAcrossValues(t *testing.T) {
	// Same pattern, different values: one analysis, two factorizations.
	a1 := laplacian2D(10, 10)
	a2 := laplacian2D(10, 10)
	for i := range a2.Val {
		if a2.RowIdx[i] == i { // scale diagonal a bit
		}
	}
	for j := 0; j < a2.N; j++ {
		a2.Val[a2.ColPtr[j]] += 1.5
	}
	an := analyzeFor(t, a1, 2)
	f1, _, err := FactorizeParStats(a1.Permute(an.Perm), an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := FactorizeParStats(a2.Permute(an.Perm), an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Diagonals of D must differ (different matrices) while structure agrees.
	if f1.NNZ() != f2.NNZ() {
		t.Fatal("structure changed between factorizations")
	}
	d1 := f1.Diag(0)
	d2 := f2.Diag(0)
	if d1[0] == d2[0] {
		t.Fatal("values unexpectedly identical")
	}
}

var _ = etree.AmalgamateOptions{} // keep import for future options in tests
var _ = sched.Options{}

// TestSolveManyMatchesSingleSolves: a panel on the one-worker level-set
// engine (the sequential multi-RHS path) carries, column by column, the bits
// of the single-RHS reference solve.
func TestSolveManyMatchesSingleSolves(t *testing.T) {
	a := laplacian2D(13, 13)
	an := analyzeFor(t, a, 1)
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	n := a.N
	const nrhs = 4
	b := make([]float64, n*nrhs)
	for i := range b {
		b[i] = float64((i*7)%11) - 5
	}
	got, err := SolveLevelCtx(context.Background(), an.SolvePlanFor(1), f, b, LevelOptions{NRHS: nrhs})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nrhs; r++ {
		want := f.Solve(b[r*n : (r+1)*n])
		for i := 0; i < n; i++ {
			if got[i+r*n] != want[i] {
				t.Fatalf("rhs %d: x[%d] = %x, want %x (not bit-identical)", r, i, got[i+r*n], want[i])
			}
		}
	}
}
