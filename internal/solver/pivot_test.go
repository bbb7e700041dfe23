package solver

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/sparse"
)

// analyzeDefault analyzes with default partitioning (BlockSize 64), so the
// graded-pivot generator's cliques (bs ≤ 64) are never split and stay one
// supernode each.
func analyzeDefault(t *testing.T, a *sparse.SymMatrix, P int) *Analysis {
	t.Helper()
	an, err := Analyze(a, Options{P: P})
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// factorizeAllRuntimes runs the same pivoted factorization on the three
// runtimes: the sequential reference, the mpsim message-passing fan-in and
// the zero-copy shared-memory scheduler.
func factorizeAllRuntimes(t *testing.T, a *sparse.SymMatrix, P int, sp StaticPivot) map[string]*Factors {
	t.Helper()
	an1 := analyzeDefault(t, a, 1)
	anP := analyzeDefault(t, a, P)
	out := make(map[string]*Factors)

	fseq, err := an1.FactorizeOpts(ParOptions{Runtime: RuntimeSequential, Pivot: sp})
	if err != nil {
		t.Fatalf("seq: %v", err)
	}
	out["seq"] = fseq

	fpar, _, err := FactorizeParStats(anP.A, anP.Sched, ParOptions{Pivot: sp})
	if err != nil {
		t.Fatalf("mpsim: %v", err)
	}
	out["mpsim"] = fpar

	fsh, err := anP.FactorizeMatrixOptsCtx(context.Background(), anP.A, ParOptions{Runtime: RuntimeShared, Pivot: sp})
	if err != nil {
		t.Fatalf("shared: %v", err)
	}
	out["shared"] = fsh
	return out
}

// The graded singular matrix must fail today's unpivoted kernels with
// ErrNotSPD on every runtime — that is the breakdown static pivoting exists
// to absorb.
func TestGradedPivotFailsUnpivoted(t *testing.T) {
	a := gen.GradedPivot(4, 8, 1e-2, 0.05, true)
	an1 := analyzeDefault(t, a, 1)
	an4 := analyzeDefault(t, a, 4)
	if _, err := FactorizeSeq(an1.A, an1.Sym); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("seq: want ErrNotSPD, got %v", err)
	}
	if _, _, err := FactorizeParStats(an4.A, an4.Sched, ParOptions{}); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("mpsim: want ErrNotSPD, got %v", err)
	}
	if _, err := an4.FactorizeOpts(ParOptions{Runtime: RuntimeShared}); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("shared: want ErrNotSPD, got %v", err)
	}
}

// refinedBackwardError solves the permuted system for a manufactured
// solution and refines adaptively, returning the final stats.
func refinedBackwardError(t *testing.T, an *Analysis, f *Factors, tol float64) RefineStats {
	t.Helper()
	n := an.A.N
	xref := make([]float64, n)
	for i := range xref {
		xref[i] = 1 + float64(i%7)/7
	}
	b := make([]float64, n)
	an.A.MatVec(xref, b)
	x := f.Solve(b)
	_, rs := f.RefineAdaptive(an.A, b, x, tol, 0)
	for i := 1; i < len(rs.Trajectory); i++ {
		if rs.Trajectory[i] > rs.Trajectory[i-1] {
			t.Fatalf("backward-error trajectory not monotone: %v", rs.Trajectory)
		}
	}
	return rs
}

// All three runtimes must publish bitwise-identical PerturbationReports and
// factor data on graded matrices, and adaptive refinement must recover a
// backward error ≤ 1e-10 from the perturbed factorization.
func TestPerturbationReportAcrossRuntimes(t *testing.T) {
	cases := []struct {
		name     string
		nb, bs   int
		decay    float64
		couple   float64
		singular bool
	}{
		{"graded-singular", 4, 8, 1e-2, 0.05, true},
		{"graded-deep", 3, 10, 1e-2, 0.02, false},
		{"graded-coupled", 6, 6, 1e-3, 0.1, true},
	}
	sp := StaticPivot{Epsilon: 1e-12}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := gen.GradedPivot(tc.nb, tc.bs, tc.decay, tc.couple, tc.singular)
			fs := factorizeAllRuntimes(t, a, 4, sp)
			ref := fs["seq"].Pivots
			if ref == nil {
				t.Fatal("seq factor carries no report")
			}
			if tc.singular && len(ref.Perturbed) == 0 {
				t.Fatal("singular block not perturbed")
			}
			for name, f := range fs {
				if f.Pivots == nil {
					t.Fatalf("%s: no report", name)
				}
				if !reflect.DeepEqual(ref, f.Pivots) {
					t.Fatalf("%s report differs from seq:\nseq:  %+v\n%s: %+v", name, ref, name, f.Pivots)
				}
			}
			// The disconnected-clique construction has zero cross-supernode
			// contributions, so even the factor data must be bitwise equal.
			for name, f := range fs {
				if name == "seq" {
					continue
				}
				if !reflect.DeepEqual(fs["seq"].Data, f.Data) {
					t.Fatalf("%s factor data differs bitwise from seq", name)
				}
			}
			an1 := analyzeDefault(t, a, 1)
			rs := refinedBackwardError(t, an1, fs["seq"], 1e-10)
			if !rs.Converged || rs.BackwardError > 1e-10 {
				t.Fatalf("refinement did not recover: %+v", rs)
			}
		})
	}
}

// FactorizeRobust must escalate ε_piv on breakdown and hand back an accurate
// factorization, and report exhaustion with the typed error when no ε can
// help.
func TestFactorizeRobust(t *testing.T) {
	a := gen.GradedPivot(4, 8, 1e-2, 0.05, true)
	an := analyzeDefault(t, a, 2)
	// First attempt unpivoted → ErrNotSPD → escalation kicks in.
	f, rs, err := an.FactorizeRobust(context.Background(), an.A, ParOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Attempts < 2 {
		t.Fatalf("expected escalation past the unpivoted attempt, got %+v", rs)
	}
	if f.Pivots == nil || len(f.Pivots.Perturbed) == 0 {
		t.Fatal("robust factor carries no perturbations")
	}
	if rs.BackwardError > 1e-10 {
		t.Fatalf("probe backward error %g above target", rs.BackwardError)
	}

	// A zero matrix is unfactorizable at any ε (‖A‖_max = 0 ⇒ τ = 0).
	zb := sparse.NewBuilder(4)
	for i := 0; i < 4; i++ {
		zb.Add(i, i, 0)
	}
	z := zb.Build()
	zan := analyzeDefault(t, z, 1)
	_, zrs, err := zan.FactorizeRobust(context.Background(), zan.A, ParOptions{}, 0)
	if !errors.Is(err, ErrPivotExhausted) {
		t.Fatalf("want ErrPivotExhausted, got %v", err)
	}
	var pe *PivotExhaustedError
	if !errors.As(err, &pe) {
		t.Fatalf("no PivotExhaustedError in chain: %v", err)
	}
	if pe.Attempts != zrs.Attempts || pe.Attempts < 2 {
		t.Fatalf("inconsistent attempts: err %d, stats %+v", pe.Attempts, zrs)
	}
}

// TestNumStressGradedPivot is the `make numstress` soak: a grid of graded
// shapes × processor counts, each checked for cross-runtime report equality
// and refinement recovery.
func TestNumStressGradedPivot(t *testing.T) {
	if testing.Short() {
		t.Skip("numerical stress soak skipped in -short mode")
	}
	sp := StaticPivot{Epsilon: 1e-12}
	for _, nb := range []int{2, 5} {
		for _, bs := range []int{6, 12} {
			for _, decay := range []float64{1e-2, 1e-3} {
				for _, P := range []int{2, 4} {
					a := gen.GradedPivot(nb, bs, decay, 0.05, true)
					fs := factorizeAllRuntimes(t, a, P, sp)
					ref := fs["seq"].Pivots
					for name, f := range fs {
						if !reflect.DeepEqual(ref, f.Pivots) {
							t.Fatalf("nb=%d bs=%d decay=%g P=%d: %s report diverges", nb, bs, decay, P, name)
						}
					}
					an1 := analyzeDefault(t, a, 1)
					rs := refinedBackwardError(t, an1, fs["seq"], 1e-10)
					if !rs.Converged {
						t.Fatalf("nb=%d bs=%d decay=%g: refinement stalled at %g", nb, bs, decay, rs.BackwardError)
					}
				}
			}
		}
	}
}
