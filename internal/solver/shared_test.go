package solver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/sparse"
)

// randomSPD builds a random sparse strictly diagonally dominant (hence SPD)
// matrix: n vertices, about deg random neighbours each, seeded — the
// metamorphic corpus the shared/message runtimes are compared on.
func randomSPD(n, deg int, seed int64) *sparse.SymMatrix {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(n)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for d := 0; d < deg; d++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := -(0.25 + rng.Float64())
			b.Add(i, j, v)
			rowAbs[i] += -v
			rowAbs[j] += -v
		}
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, rowAbs[i]+1+rng.Float64())
	}
	return b.Build()
}

// sharedCase is one entry of the metamorphic corpus.
type sharedCase struct {
	name string
	a    *sparse.SymMatrix
}

func sharedCorpus(t *testing.T) []sharedCase {
	t.Helper()
	cases := []sharedCase{
		{"laplace2d-15x15", laplacian2D(15, 15)},
		{"laplace2d-23x9", laplacian2D(23, 9)},
		{"poisson3d-7", gen.Laplacian3D(7, 7, 7)},
	}
	for _, seed := range []int64{1, 42, 20260805} {
		cases = append(cases, sharedCase{fmt.Sprintf("random-seed%d", seed), randomSPD(220, 4, seed)})
	}
	for _, name := range []string{"THREAD", "QUER"} {
		p, err := gen.Generate(name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, sharedCase{name, p.A})
	}
	return cases
}

// TestSharedMetamorphicEquality is the metamorphic oracle of the runtime
// family: for every corpus matrix and every processor count, the zero-copy
// shared runtime, the message-passing fan-in runtime and the sequential
// reference must produce the same factor to rounding and solves with the
// same residual quality.
func TestSharedMetamorphicEquality(t *testing.T) {
	for _, tc := range sharedCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			seqAn := analyzeFor(t, tc.a, 1)
			ref, err := FactorizeSeq(seqAn.A, seqAn.Sym)
			if err != nil {
				t.Fatal(err)
			}
			for _, P := range []int{1, 2, 4, 7} {
				an := analyzeFor(t, tc.a, P)
				par, err := FactorizePar(an.A, an.Sched)
				if err != nil {
					t.Fatalf("P=%d par: %v", P, err)
				}
				sh, err := FactorizeShared(an.A, an.Sched)
				if err != nil {
					t.Fatalf("P=%d shared: %v", P, err)
				}
				factorsClose(t, ref, par, 1e-11)
				factorsClose(t, ref, sh, 1e-11)

				// Solve residuals: sequential and level-set solves on the
				// shared factor both recover x_ref.
				x, b := gen.RHSForSolution(tc.a)
				pb := make([]float64, len(b))
				for newI, old := range an.Perm {
					pb[newI] = b[old]
				}
				ctx := context.Background()
				for mode, px := range map[string][]float64{
					"seq": sh.Solve(pb),
					"level": mustSolve(t, func() ([]float64, error) {
						return SolveLevelCtx(ctx, an.SolvePlanFor(P), sh, pb, LevelOptions{})
					}),
				} {
					maxErr := 0.0
					for newI, old := range an.Perm {
						if e := math.Abs(px[newI] - x[old]); e > maxErr {
							maxErr = e
						}
					}
					if maxErr > 1e-8 {
						t.Fatalf("P=%d %s solve: max |x-x_ref| = %g", P, mode, maxErr)
					}
					if r := sparse.Residual(an.A, px, pb); r > 1e-12 {
						t.Fatalf("P=%d %s solve: residual %g", P, mode, r)
					}
				}
			}
		})
	}
}

func mustSolve(t *testing.T, solve func() ([]float64, error)) []float64 {
	t.Helper()
	x, err := solve()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestSharedViaParOptions covers the ParOptions.Runtime dispatch to the
// shared-memory runtime.
func TestSharedViaParOptions(t *testing.T) {
	a := laplacian2D(18, 18)
	an := analyzeFor(t, a, 4)
	ref, err := FactorizeSeq(an.A, an.Sym)
	if err != nil {
		t.Fatal(err)
	}
	got, err := an.FactorizeOpts(ParOptions{Runtime: RuntimeShared})
	if err != nil {
		t.Fatal(err)
	}
	factorsClose(t, ref, got, 1e-11)
	direct, err := FactorizeShared(an.A, an.Sched)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqualFactors(t, direct, got, -1)
}

// TestSharedExercises2DTasks makes sure the corpus is not dodging the 2D
// code paths (FACTOR/BDIV/BMOD with cross-processor gates).
func TestSharedExercises2DTasks(t *testing.T) {
	a := laplacian2D(24, 24)
	an := analyzeFor(t, a, 8)
	st := an.Sched.ComputeStats()
	if st.NBMod == 0 || st.NBDiv == 0 || st.NFactor == 0 {
		t.Fatalf("schedule has no 2D tasks (stats %+v)", st)
	}
	ref, err := FactorizeSeq(an.A, an.Sym)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FactorizeShared(an.A, an.Sched)
	if err != nil {
		t.Fatal(err)
	}
	factorsClose(t, ref, got, 1e-11)
}

// TestSharedFactorizationError propagates a numerical failure (zero pivot)
// instead of deadlocking the gate graph.
func TestSharedFactorizationError(t *testing.T) {
	a := singularMatrix(10, 10, 33)
	for _, P := range []int{1, 2, 4, 8} {
		an := analyzeFor(t, a, P)
		if _, err := FactorizeShared(an.A, an.Sched); err == nil {
			t.Fatalf("P=%d: expected pivot failure, got success", P)
		}
	}
}

// TestSharedStress shakes out ordering-dependent bugs: many repetitions of
// the full shared factorize+solve on a small grid with varying processor
// counts. Run it under -race (the tier-2 target) to make the interleavings
// observable; -short keeps only a few iterations for tier-1.
func TestSharedStress(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 10
	}
	a := laplacian2D(9, 9)
	x, b := gen.RHSForSolution(a)
	type prep struct {
		an *Analysis
		pb []float64
		px []float64 // expected permuted solution
	}
	var preps []prep
	for _, P := range []int{2, 3, 5, 8} {
		an := analyzeFor(t, a, P)
		pb := make([]float64, len(b))
		px := make([]float64, len(x))
		for newI, old := range an.Perm {
			pb[newI] = b[old]
			px[newI] = x[old]
		}
		preps = append(preps, prep{an, pb, px})
	}
	ref, err := FactorizeSeq(preps[0].an.A, preps[0].an.Sym)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		pr := preps[it%len(preps)]
		f, err := FactorizeShared(pr.an.A, pr.an.Sched)
		if err != nil {
			t.Fatalf("iter %d P=%d: %v", it, pr.an.Sched.P, err)
		}
		factorsClose(t, ref, f, 1e-11)
		got, err := SolveLevelCtx(context.Background(), pr.an.SolvePlanFor(pr.an.Sched.P), f, pr.pb, LevelOptions{})
		if err != nil {
			t.Fatalf("iter %d P=%d solve: %v", it, pr.an.Sched.P, err)
		}
		for i := range got {
			if math.Abs(got[i]-pr.px[i]) > 1e-9 {
				t.Fatalf("iter %d P=%d: x[%d]=%g want %g", it, pr.an.Sched.P, i, got[i], pr.px[i])
			}
		}
	}
}
