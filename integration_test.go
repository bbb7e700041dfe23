package pastix

// End-to-end integration: every generated test problem through the full
// pipeline (ordering → symbolic → schedule → parallel factorization →
// solve), asserting accuracy and internal consistency. This is the
// "downstream user" path exercised wholesale.

import (
	"context"
	"math"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
)

func TestIntegrationFullSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	for _, name := range gen.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prob, err := gen.Generate(name, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			a := prob.A
			an, err := Analyze(a, Options{Processors: 4, BlockSize: 24, Ratio2D: 2})
			if err != nil {
				t.Fatal(err)
			}
			st := an.Stats()
			if st.N != a.N || st.ScalarNNZL < int64(a.NNZOffDiag()) {
				t.Fatalf("stats inconsistent: %+v", st)
			}
			f, err := an.Factorize()
			if err != nil {
				t.Fatal(err)
			}
			xref, b := gen.RHSForSolution(a)
			// Sequential solve.
			x, err := an.Solve(f, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if math.Abs(x[i]-xref[i]) > 1e-8 {
					t.Fatalf("solve error at %d: %g vs %g", i, x[i], xref[i])
				}
			}
			// Parallel solve agrees.
			ctx := context.Background()
			rp, err := an.SolveOpts(ctx, f, b, SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			xp := rp.X
			for i := range x {
				if math.Abs(xp[i]-x[i]) > 1e-10*(1+math.Abs(x[i])) {
					t.Fatalf("parallel solve differs at %d", i)
				}
			}
			// Refinement cannot hurt: the adaptive loop must hand back a
			// monotonically non-increasing backward-error trajectory and a
			// residual no worse than the plain solve's.
			rr, err := an.SolveOpts(ctx, f, b, SolveOptions{Runtime: RuntimeSequential, Refine: &RefineOptions{}})
			if err != nil {
				t.Fatal(err)
			}
			xr, rs := rr.X, rr.Refine
			for i := 1; i < len(rs.Trajectory); i++ {
				if rs.Trajectory[i] > rs.Trajectory[i-1] {
					t.Fatalf("refinement trajectory not monotone: %v", rs.Trajectory)
				}
			}
			if Residual(a, xr, b) > Residual(a, x, b)*1.001 {
				t.Fatal("refinement worsened residual")
			}
			if !rs.Converged {
				t.Fatalf("refinement did not converge on an SPD problem: %+v", rs)
			}
			// Block solve with 3 right-hand sides: every column carries the
			// single-RHS solve's bits.
			n := a.N
			panel := make([]float64, n*3)
			copy(panel, b)
			copy(panel[n:], b)
			copy(panel[2*n:], b)
			rs3, err := an.SolveOpts(ctx, f, panel, SolveOptions{NRHS: 3, Runtime: RuntimeSequential})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 3; r++ {
				bitwiseSame(t, "panel column", rs3.X[r*n:(r+1)*n], x)
			}
		})
	}
}

func TestIntegrationOrderingMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite")
	}
	// All four orderings × a couple of processor counts on one problem.
	prob, err := gen.Generate("OILPAN", 0.04)
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(prob.A)
	for _, m := range []OrderingMethod{OrderScotchLike, OrderMetisLike, OrderAMD} {
		for _, p := range []int{1, 4} {
			an, err := Analyze(prob.A, Options{Processors: p, Ordering: m, CompressGraph: m == OrderScotchLike})
			if err != nil {
				t.Fatalf("m=%d p=%d: %v", m, p, err)
			}
			f, err := an.Factorize()
			if err != nil {
				t.Fatalf("m=%d p=%d: %v", m, p, err)
			}
			x, err := an.Solve(f, b)
			if err != nil {
				t.Fatal(err)
			}
			if r := Residual(prob.A, x, b); r > 1e-12 {
				t.Fatalf("m=%d p=%d: residual %g", m, p, r)
			}
		}
	}
}
