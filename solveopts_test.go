package pastix

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/solver"
)

func solveOptsFixture(t *testing.T, opts Options) (*Analysis, *Factor, []float64) {
	t.Helper()
	a := gen.Laplacian2D(16, 16)
	an, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(a)
	return an, f, b
}

func bitwiseSame(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: x[%d] = %x, want %x (not bit-identical)", name, i, got[i], want[i])
		}
	}
}

// TestSolveOptsWrapperEquivalence is the API-consolidation contract: the
// wrappers Solve and (untraced) SolveParallelTraced return outputs
// bit-identical to the SolveOpts call they delegate to, on analyses
// configured for each runtime.
func TestSolveOptsWrapperEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"auto-p3", Options{Processors: 3}},
		{"shared-p4", Options{Processors: 4, Runtime: RuntimeShared}},
		{"dynamic-p4", Options{Processors: 4, Runtime: RuntimeDynamic}},
		{"mpsim-p2", Options{Processors: 2, Runtime: RuntimeMPSim}},
		{"seq-p1", Options{Processors: 1, Runtime: RuntimeSequential}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			an, f, b := solveOptsFixture(t, cfg.opts)
			x1, err := an.Solve(f, b)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := an.SolveOpts(ctx, f, b, SolveOptions{Runtime: RuntimeSequential})
			if err != nil {
				t.Fatal(err)
			}
			bitwiseSame(t, "Solve", x1, r1.X)

			x2, err := an.SolveParallelTraced(ctx, f, b, nil)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := an.SolveOpts(ctx, f, b, SolveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			bitwiseSame(t, "SolveParallelTraced", x2, r2.X)
		})
	}
}

// TestSolveOptsEngineDeterminism checks the headline guarantee of the
// redesign at the public surface: the level-set engine (both dispatch modes)
// returns solutions bit-identical to the sequential Solve, and each column of
// a level-set panel solve is bit-identical to the single-RHS Solve of it.
func TestSolveOptsEngineDeterminism(t *testing.T) {
	an, f, b := solveOptsFixture(t, Options{Processors: 4})
	ctx := context.Background()
	ref, err := an.Solve(f, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range []Runtime{RuntimeShared, RuntimeDynamic} {
		res, err := an.SolveOpts(ctx, f, b, SolveOptions{Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		bitwiseSame(t, "level engine", res.X, ref)
		if res.Plan.Cells == 0 || res.Plan.Levels == 0 {
			t.Fatalf("level engine reported no plan: %+v", res.Plan)
		}
		// The plan reports the workers it ran on: all four processors, or
		// one where the predicted makespan says the others do not pay.
		if want := an.inner.SolvePlan().Stats(); res.Plan != want {
			t.Fatalf("level engine reported plan %+v, ran %+v", res.Plan, want)
		}
	}
	const nrhs = 3
	n := len(b)
	panel := make([]float64, n*nrhs)
	for r := 0; r < nrhs; r++ {
		for i := 0; i < n; i++ {
			panel[i+r*n] = b[i] / float64(r+1)
		}
	}
	res, err := an.SolveOpts(ctx, f, panel, SolveOptions{NRHS: nrhs})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nrhs; r++ {
		col, err := an.Solve(f, panel[r*n:(r+1)*n])
		if err != nil {
			t.Fatal(err)
		}
		bitwiseSame(t, "panel column", res.X[r*n:(r+1)*n], col)
	}
	// Sequential engines report no level-set plan.
	rs, err := an.SolveOpts(ctx, f, b, SolveOptions{Runtime: RuntimeSequential})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Plan != (PlanStats{}) {
		t.Fatalf("sequential solve reported a plan: %+v", rs.Plan)
	}
}

// TestSolveEngineIgnoresAnalysisRuntime pins that Options.Runtime picks the
// factorization engine only: whatever runtime the analysis names, at one
// processor and at two, a solve with zero options runs the level-set plan
// PrepareSolve reports and returns the reference Analysis.Solve's bits.
func TestSolveEngineIgnoresAnalysisRuntime(t *testing.T) {
	ctx := context.Background()
	for _, rt := range []Runtime{RuntimeAuto, RuntimeSequential, RuntimeMPSim, RuntimeShared, RuntimeDynamic} {
		for _, p := range []int{1, 2} {
			name := fmt.Sprintf("%v p=%d", rt, p)
			an, f, b := solveOptsFixture(t, Options{Processors: p, Runtime: rt})
			st, err := an.PrepareSolve(f)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref, err := an.Solve(f, b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := an.SolveOpts(ctx, f, b, SolveOptions{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Plan != st || st.Cells == 0 {
				t.Fatalf("%s: solve reported plan %+v, PrepareSolve %+v", name, res.Plan, st)
			}
			bitwiseSame(t, name, res.X, ref)
		}
	}
}

// TestSolveOptsEveryRuntimeBitwise is the solve's bitwise contract across
// the conformance corpus: on dense and BLR-compressed factors, with and
// without an active FaultPlan on the analysis, every SolveOptions.Runtime at
// 1 and 32 right-hand sides returns, column for column, the bits of
// Factors.Solve of that column.
func TestSolveOptsEveryRuntimeBitwise(t *testing.T) {
	const nrhsWide = 32
	corpus := []struct {
		name string
		a    *Matrix
	}{
		{"poisson2d-14x14", gen.Laplacian2D(14, 14)},
		{"poisson3d-6", gen.Laplacian3D(6, 6, 6)},
		{"shell-8x8x3", gen.Shell(8, 8, 3)},
		{"solid-4x4x4x3", gen.Solid(4, 4, 4, 3)},
		{"thickshell-6x6x2x3", gen.ThickShell(6, 6, 2, 3)},
		{"graded", gen.GradedPivot(4, 8, 1e-2, 0.05, false)},
		{"randspd-seed5", gen.RandomSPD(150, 4, 5)},
	}
	plans := []struct {
		name   string
		faults *FaultPlan
	}{
		{"fault-free", nil},
		{"faults", &FaultPlan{Seed: 7, Dup: 0.1, Delay: 0.1, MaxDelay: 100 * time.Microsecond, CrashAtStep: map[int]int{1: 1}}},
	}
	ctx := context.Background()
	lowRank := 0 // low-rank blocks across the BLR factors
	for _, tc := range corpus {
		n := tc.a.N
		_, b := gen.RHSForSolution(tc.a)
		panel := make([]float64, n*nrhsWide)
		for r := 0; r < nrhsWide; r++ {
			for i := 0; i < n; i++ {
				panel[i+r*n] = b[i] * (1 + float64(r)/3)
			}
		}
		for _, fp := range plans {
			an, err := Analyze(tc.a, Options{Processors: 4, Faults: fp.faults})
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, fp.name, err)
			}
			for _, blr := range []bool{false, true} {
				name := fmt.Sprintf("%s %s blr=%v", tc.name, fp.name, blr)
				f, err := an.Factorize()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if blr {
					// A loose tolerance, so blocks of these small matrices
					// go low-rank.
					st, err := f.Compress(BLROptions{Tol: 1e-4, MinBlockSize: 8})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					lowRank += st.BlocksCompressed
				}
				// Per-column references: Factors.Solve in the permuted system.
				refs := make([][]float64, nrhsWide)
				for r := range refs {
					pb := make([]float64, n)
					for newI, old := range an.inner.Perm {
						pb[newI] = panel[old+r*n]
					}
					px := f.inner.Solve(pb)
					refs[r] = make([]float64, n)
					for newI, old := range an.inner.Perm {
						refs[r][old] = px[newI]
					}
				}
				for _, rt := range []Runtime{RuntimeAuto, RuntimeSequential, RuntimeMPSim, RuntimeShared, RuntimeDynamic} {
					for _, nrhs := range []int{1, nrhsWide} {
						res, err := an.SolveOpts(ctx, f, panel[:n*nrhs], SolveOptions{NRHS: nrhs, Runtime: rt})
						if err != nil {
							t.Fatalf("%s %v nrhs=%d: %v", name, rt, nrhs, err)
						}
						for r := 0; r < nrhs; r++ {
							bitwiseSame(t, fmt.Sprintf("%s %v nrhs=%d col %d", name, rt, nrhs, r),
								res.X[r*n:(r+1)*n], refs[r])
						}
					}
				}
			}
		}
	}
	if lowRank == 0 {
		t.Fatal("no BLR factor of the corpus holds a low-rank block")
	}
}

// TestSolveOptsRefinePanel refines every column of a panel solve and checks
// the aggregated stats plus the actual residuals.
func TestSolveOptsRefinePanel(t *testing.T) {
	a := gen.Laplacian2D(16, 16)
	an, err := Analyze(a, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(a)
	const nrhs = 3
	n := len(b)
	panel := make([]float64, n*nrhs)
	for r := 0; r < nrhs; r++ {
		for i := 0; i < n; i++ {
			panel[i+r*n] = b[i] * float64(r+1)
		}
	}
	res, err := an.SolveOpts(context.Background(), f, panel, SolveOptions{NRHS: nrhs, Refine: &RefineOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Refine == nil || !res.Refine.Converged {
		t.Fatalf("panel refinement did not converge: %+v", res.Refine)
	}
	if len(res.Refine.Trajectory) != 0 {
		t.Fatal("trajectory reported for a panel refine (single-RHS only)")
	}
	for r := 0; r < nrhs; r++ {
		if rr := Residual(a, res.X[r*n:(r+1)*n], panel[r*n:(r+1)*n]); rr > 1e-10 {
			t.Fatalf("column %d residual %g after refinement", r, rr)
		}
	}
}

// TestSolveOptsTraced runs a traced level-set solve and checks the returned
// trace renders (standalone solve traces support the Chrome export, not the
// schedule-divergence report).
func TestSolveOptsTraced(t *testing.T) {
	an, f, b := solveOptsFixture(t, Options{Processors: 3})
	res, err := an.SolveOpts(context.Background(), f, b, SolveOptions{Trace: &TraceOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace returned")
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty chrome trace")
	}
}

// TestSolveOptsValidation pins the error surface of the unified entry point.
func TestSolveOptsValidation(t *testing.T) {
	an, f, b := solveOptsFixture(t, Options{Processors: 2})
	ctx := context.Background()
	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"short rhs", func() error {
			_, err := an.SolveOpts(ctx, f, b[:3], SolveOptions{})
			return err
		}, ErrShape},
		{"short panel", func() error {
			_, err := an.SolveOpts(ctx, f, b, SolveOptions{NRHS: 2})
			return err
		}, ErrShape},
		{"negative nrhs", func() error {
			_, err := an.SolveOpts(ctx, f, b, SolveOptions{NRHS: -1})
			return err
		}, ErrShape},
		{"bad runtime", func() error {
			_, err := an.SolveOpts(ctx, f, b, SolveOptions{Runtime: Runtime(99)})
			return err
		}, ErrBadOptions},
		{"negative refine tol", func() error {
			_, err := an.SolveOpts(ctx, f, b, SolveOptions{Refine: &RefineOptions{Tol: -1}})
			return err
		}, ErrBadOptions},
		{"negative refine iters", func() error {
			_, err := an.SolveOpts(ctx, f, b, SolveOptions{Refine: &RefineOptions{MaxIter: -1}})
			return err
		}, ErrBadOptions},
		{"traced sequential", func() error {
			_, err := an.SolveOpts(ctx, f, b, SolveOptions{Runtime: RuntimeSequential, Trace: &TraceOptions{}})
			return err
		}, ErrBadOptions},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := an.SolveOpts(ctx, nil, b, SolveOptions{}); err != ErrFactorMismatch {
		t.Fatalf("nil factor: err = %v", err)
	}
	other, err := Analyze(gen.Laplacian2D(8, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.SolveOpts(ctx, f, b, SolveOptions{}); err != ErrFactorMismatch {
		t.Fatalf("foreign factor: err = %v", err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := an.SolveOpts(cctx, f, b, SolveOptions{}); err != context.Canceled {
		t.Fatalf("cancelled: err = %v", err)
	}
}

// TestPrepareSolvePublic warms the solve path and checks the stats match the
// plan a later solve reports.
func TestPrepareSolvePublic(t *testing.T) {
	an, f, b := solveOptsFixture(t, Options{Processors: 4})
	st, err := an.PrepareSolve(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := an.inner.SolvePlan().Stats(); st != want || st.Cells == 0 {
		t.Fatalf("PrepareSolve stats %+v, want those of the plan solves run %+v", st, want)
	}
	res, err := an.SolveOpts(context.Background(), f, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != st {
		t.Fatalf("solve plan %+v differs from prepared %+v", res.Plan, st)
	}
	if _, err := an.PrepareSolve(nil); err != ErrFactorMismatch {
		t.Fatalf("nil factor: err = %v", err)
	}
}

// TestPrepareSolveAllocatesNoFactorCopy guards the factor's single resident
// copy: warming the solve path and running one default solve must allocate
// far less than the factor holds. A solve-layout copy of the values beside
// the factor would be all of MemoryBytes.
func TestPrepareSolveAllocatesNoFactorCopy(t *testing.T) {
	a := gen.Laplacian3D(16, 16, 16)
	an, err := Analyze(a, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(a)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := an.PrepareSolve(f); err != nil {
		t.Fatal(err)
	}
	if _, err := an.SolveOpts(context.Background(), f, b, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	grew := int64(after.TotalAlloc - before.TotalAlloc)
	if limit := f.MemoryBytes() / 20; grew >= limit {
		t.Fatalf("PrepareSolve and one solve allocated %d bytes, want < %d (5%% of the %d-byte factor)",
			grew, limit, f.MemoryBytes())
	}
	t.Logf("allocated %d bytes against a %d-byte factor", grew, f.MemoryBytes())

	// Warm, a default single-RHS solve allocates the solution it returns and
	// little else: the permuted right-hand side comes from a pool.
	const solves = 20
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < solves; i++ {
		if _, err := an.SolveOpts(context.Background(), f, b, SolveOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perSolve := int64(after.TotalAlloc-before.TotalAlloc) / solves
	if vec := int64(8 * a.N); perSolve > vec+vec/4 {
		t.Fatalf("a warm solve allocated %d bytes, want about one %d-byte n-vector", perSolve, vec)
	}
	t.Logf("a warm solve allocated %d bytes (one n-vector is %d)", perSolve, 8*a.N)
}

// solveAllocsMax is what one warm solve of Poisson 12³ may allocate per
// case of TestSolveAllocs: the counts measured when the engine still parked
// every forward contribution in its buffer.
var solveAllocsMax = map[string]float64{
	"SolveOpts/1w":         4,
	"SolveOpts/nrhs3":      4,
	"SolveLevelInPlace/2w": 4,
}

// TestSolveAllocs holds a stream of warm solves of Poisson 12³ to the
// allocations of solveAllocsMax: SolveOpts on one worker (the plan the cost
// model picks there) for one right-hand side and a 3-column panel, and the
// engine on the two-worker plan. The contribution buffer and the permuted
// right-hand side come from the analysis' pools whatever their shape, so a
// solve allocates only its result and the per-run state.
func TestSolveAllocs(t *testing.T) {
	a := gen.Laplacian3D(12, 12, 12)
	an, err := Analyze(a, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(a)
	n := len(b)
	panel := make([]float64, 3*n)
	for c := range 3 {
		copy(panel[c*n:], b)
	}
	ctx := context.Background()
	x := make([]float64, n)
	pl2 := an.inner.SolvePlanFor(2)
	cases := []struct {
		name string
		run  func()
	}{
		{"SolveOpts/1w", func() {
			if res, err := an.SolveOpts(ctx, f, b, SolveOptions{}); err != nil || res.Plan.Workers != 1 {
				t.Fatalf("SolveOpts: %v, plan %+v", err, res.Plan)
			}
		}},
		{"SolveOpts/nrhs3", func() {
			if _, err := an.SolveOpts(ctx, f, panel, SolveOptions{NRHS: 3}); err != nil {
				t.Fatal(err)
			}
		}},
		{"SolveLevelInPlace/2w", func() {
			copy(x, b)
			if err := solver.SolveLevelInPlace(ctx, pl2, f.inner, x, solver.LevelOptions{}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		c.run() // warm: plans, pools and the panel row index
		got := testing.AllocsPerRun(50, c.run)
		t.Logf("%s: %.1f allocs per solve", c.name, got)
		if want := solveAllocsMax[c.name]; got > want {
			t.Errorf("%s: %.1f allocs per solve, want at most %.0f", c.name, got, want)
		}
	}
}
