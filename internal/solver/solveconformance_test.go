package solver

import (
	"context"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/sparse"
)

// solveConformanceCorpus covers every generator family in internal/gen at
// small sizes: the regular Poisson stencils, the FE shells/solids with
// multiple DOFs per node, the irregular graded matrix and random SPD graphs.
type solveConformanceCase struct {
	name string
	a    *sparse.SymMatrix
}

func solveConformanceCorpus() []solveConformanceCase {
	return []solveConformanceCase{
		{"poisson2d-14x14", gen.Laplacian2D(14, 14)},
		{"poisson3d-6", gen.Laplacian3D(6, 6, 6)},
		{"shell-8x8x3", gen.Shell(8, 8, 3)},
		{"solid-4x4x4x3", gen.Solid(4, 4, 4, 3)},
		{"thickshell-6x6x2x3", gen.ThickShell(6, 6, 2, 3)},
		{"graded", gen.GradedPivot(4, 8, 1e-2, 0.05, false)},
		{"randspd-seed5", gen.RandomSPD(150, 4, 5)},
	}
}

// TestSolveConformanceTable is the cross-runtime solve conformance table of
// the solve-path engine: every generator family × factors from the
// sequential, shared, dynamic and message-passing runtimes × the level-set
// engine (4 workers, and the one-worker sequential panel path) × 1 and 32
// right-hand sides.
//
// Every leg asserts BITWISE equality against the sequential Factors.Solve of
// each column of the same factor — the engine's core contract.
func TestSolveConformanceTable(t *testing.T) {
	const nrhsWide = 32
	for _, tc := range solveConformanceCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			an := analyzeFor(t, tc.a, 4)
			n := tc.a.N
			_, b := gen.RHSForSolution(tc.a)
			pb := make([]float64, n)
			for newI, old := range an.Perm {
				pb[newI] = b[old]
			}
			panel := make([]float64, n*nrhsWide)
			for r := 0; r < nrhsWide; r++ {
				for i := 0; i < n; i++ {
					panel[i+r*n] = pb[i] * (1 + float64(r)/3)
				}
			}
			for _, rt := range []Runtime{RuntimeSequential, RuntimeShared, RuntimeDynamic, RuntimeMPSim} {
				f, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: rt})
				if err != nil {
					t.Fatalf("%v factorize: %v", rt, err)
				}
				// Per-column sequential references.
				refs := make([][]float64, nrhsWide)
				for r := 0; r < nrhsWide; r++ {
					col := append([]float64(nil), panel[r*n:(r+1)*n]...)
					refs[r] = f.Solve(col)
				}
				pl := an.SolvePlanFor(4)
				bitwiseCols := func(leg string, x []float64, nrhs int) {
					t.Helper()
					for r := 0; r < nrhs; r++ {
						for i := 0; i < n; i++ {
							if x[i+r*n] != refs[r][i] {
								t.Fatalf("%v %s nrhs=%d col %d: x[%d] = %x, seq %x (not bit-identical)",
									rt, leg, nrhs, r, i, x[i+r*n], refs[r][i])
							}
						}
					}
				}

				for _, nrhs := range []int{1, nrhsWide} {
					x, err := SolveLevelCtx(context.Background(), pl, f, panel[:n*nrhs],
						LevelOptions{NRHS: nrhs})
					if err != nil {
						t.Fatalf("%v level nrhs=%d: %v", rt, nrhs, err)
					}
					bitwiseCols("level", x, nrhs)
				}

				// Sequential panel: the one-worker engine SolveOpts runs for
				// RuntimeSequential with NRHS > 1.
				xq, err := SolveLevelCtx(context.Background(), an.SolvePlanFor(1), f, panel,
					LevelOptions{NRHS: nrhsWide})
				if err != nil {
					t.Fatalf("%v sequential panel: %v", rt, err)
				}
				bitwiseCols("sequential panel", xq, nrhsWide)
			}
		})
	}
}
