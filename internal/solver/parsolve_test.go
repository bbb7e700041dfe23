package solver

import (
	"context"
	"math"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/sparse"
)

func TestSolveParMatchesSequential(t *testing.T) {
	a := laplacian2D(22, 22)
	for _, P := range []int{2, 3, 4, 8} {
		an := analyzeFor(t, a, P)
		f, err := FactorizePar(an.A, an.Sched)
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		_, b := gen.RHSForSolution(a)
		pb := make([]float64, len(b))
		for newI, old := range an.Perm {
			pb[newI] = b[old]
		}
		want := f.Solve(pb)
		got, err := SolveParManyOpts(context.Background(), an.Sched, f, pb, 1, SolveOptions{})
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-11*(1+math.Abs(want[i])) {
				t.Fatalf("P=%d: x[%d]=%g want %g", P, i, got[i], want[i])
			}
		}
	}
}

func TestSolveParOnGeneratedProblems(t *testing.T) {
	for _, name := range []string{"THREAD", "QUER"} {
		p, err := gen.Generate(name, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		an := analyzeFor(t, p.A, 4)
		f, err := an.Factorize()
		if err != nil {
			t.Fatal(err)
		}
		x, b := gen.RHSForSolution(p.A)
		pb := make([]float64, len(b))
		for newI, old := range an.Perm {
			pb[newI] = b[old]
		}
		px, err := SolveParManyOpts(context.Background(), an.Sched, f, pb, 1, SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for newI, old := range an.Perm {
			if math.Abs(px[newI]-x[old]) > 1e-8 {
				t.Fatalf("%s: x mismatch at %d", name, old)
			}
		}
	}
}

func TestSolveParSingleProc(t *testing.T) {
	a := laplacian2D(9, 9)
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
	want := f.Solve(pb)
	got, err := SolveParManyOpts(context.Background(), an.Sched, f, pb, 1, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("x[%d] differs", i)
		}
	}
}

func TestSolveParBadRHS(t *testing.T) {
	a := laplacian2D(6, 6)
	an := analyzeFor(t, a, 2)
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveParManyOpts(context.Background(), an.Sched, f, make([]float64, 5), 1, SolveOptions{}); err == nil {
		t.Fatal("expected rhs-length error")
	}
}

// The panel solve must be bit-identical, column by column, to independent
// single-RHS parallel solves: the service batcher relies on this to coalesce
// concurrent requests without changing any client's answer.
func TestSolveParManyBitIdenticalToSingle(t *testing.T) {
	a := laplacian2D(19, 23)
	for _, P := range []int{1, 2, 4, 7} {
		an := analyzeFor(t, a, P)
		f, err := an.Factorize()
		if err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
		const nrhs = 5
		n := a.N
		panel := make([]float64, n*nrhs)
		for r := 0; r < nrhs; r++ {
			for i := 0; i < n; i++ {
				panel[r*n+i] = math.Sin(float64(1+i*(r+2))) + float64(r)
			}
		}
		got, err := SolveParManyOpts(context.Background(), an.Sched, f, panel, nrhs, SolveOptions{})
		if err != nil {
			t.Fatalf("P=%d: panel solve: %v", P, err)
		}
		for r := 0; r < nrhs; r++ {
			want, err := SolveParManyOpts(context.Background(), an.Sched, f, panel[r*n:(r+1)*n], 1, SolveOptions{})
			if err != nil {
				t.Fatalf("P=%d rhs %d: %v", P, r, err)
			}
			for i := range want {
				if got[r*n+i] != want[i] {
					t.Fatalf("P=%d rhs %d: x[%d] = %v differs from single-RHS %v (not bit-identical)",
						P, r, i, got[r*n+i], want[i])
				}
			}
		}
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
