package solver

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/trace"
)

// levelFixture factorizes a Poisson problem and returns analysis, factor and
// a right-hand side.
func levelFixture(t *testing.T, P int) (*Analysis, *Factors, []float64) {
	t.Helper()
	a := gen.Laplacian2D(18, 18)
	an := analyzeFor(t, a, P)
	f, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeShared})
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(a)
	// The engine works in the permuted system, like Factors.Solve.
	pb := make([]float64, len(b))
	for newI, old := range an.Perm {
		pb[newI] = b[old]
	}
	return an, f, pb
}

// TestSolveLevelBitwiseSeq is the core determinism property: the level-set
// engine (static and dynamic dispatch, several worker counts and cutoffs) is
// bitwise-identical to the sequential Factors.Solve.
func TestSolveLevelBitwiseSeq(t *testing.T) {
	an, f, pb := levelFixture(t, 4)
	ref := f.Solve(pb)
	for _, workers := range []int{1, 2, 4, 7} {
		for _, cutoff := range []int{0, 1, 3, 64} {
			pl := BuildSolvePlan(an.Sym, an.SolveDAG(), workers, cutoff)
			for _, dyn := range []bool{false, true} {
				x, err := SolveLevelCtx(context.Background(), pl, f, pb, LevelOptions{Dynamic: dyn})
				if err != nil {
					t.Fatalf("workers=%d cutoff=%d dyn=%v: %v", workers, cutoff, dyn, err)
				}
				for i := range ref {
					if x[i] != ref[i] {
						t.Fatalf("workers=%d cutoff=%d dyn=%v: x[%d] = %x, seq %x",
							workers, cutoff, dyn, i, x[i], ref[i])
					}
				}
			}
		}
	}
}

// TestSolveLevelPanelColumns checks the multi-RHS path: every column of a
// level-set panel solve must be bitwise-identical to the sequential
// single-RHS solve of that column.
func TestSolveLevelPanelColumns(t *testing.T) {
	an, f, pb := levelFixture(t, 4)
	n := len(pb)
	const nrhs = 5
	panel := make([]float64, n*nrhs)
	for r := 0; r < nrhs; r++ {
		for i := 0; i < n; i++ {
			panel[i+r*n] = pb[i] * float64(r+1)
		}
	}
	pl := an.SolvePlanFor(4)
	x, err := SolveLevelCtx(context.Background(), pl, f, panel, LevelOptions{NRHS: nrhs})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nrhs; r++ {
		col := make([]float64, n)
		copy(col, panel[r*n:(r+1)*n])
		ref := f.Solve(col)
		for i := range ref {
			if x[i+r*n] != ref[i] {
				t.Fatalf("col %d: x[%d] = %x, seq %x", r, i, x[i+r*n], ref[i])
			}
		}
	}
}

// TestSolvePlanCached checks the per-(analysis, workers) plan cache and the
// per-factor pack cache: same pointer back, safe under concurrent first use.
func TestSolvePlanCached(t *testing.T) {
	an, f, pb := levelFixture(t, 3)
	var wg sync.WaitGroup
	plans := make([]*SolvePlan, 8)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i] = an.SolvePlanFor(3)
			if _, err := SolveLevelCtx(context.Background(), plans[i], f, pb, LevelOptions{}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(plans); i++ {
		if plans[i] != plans[0] {
			t.Fatal("SolvePlanFor rebuilt a cached plan")
		}
	}
	if an.SolvePlanFor(2) == plans[0] {
		t.Fatal("different worker counts share a plan")
	}
	st := plans[0].Stats()
	if st.Workers != 3 || st.Cells != an.Sym.NumCB() || st.Levels != an.SolveDAG().Depth() {
		t.Fatalf("PlanStats inconsistent: %+v", st)
	}
	if st.ParallelSteps+st.ChainSteps == 0 {
		t.Fatal("plan has no steps")
	}
}

// TestPrepareSolvePacksOnce checks PrepareSolve warms the pack so the first
// solve does no packing work (same pack pointer observed).
func TestPrepareSolvePacksOnce(t *testing.T) {
	an, f, pb := levelFixture(t, 4)
	st := an.PrepareSolve(f)
	if st.Workers != an.Sched.P {
		t.Fatalf("PrepareSolve stats for %d workers, schedule has %d", st.Workers, an.Sched.P)
	}
	warm := f.pack
	if warm == nil {
		t.Fatal("PrepareSolve did not build the pack")
	}
	if _, err := SolveLevelCtx(context.Background(), an.SolvePlanFor(an.Sched.P), f, pb, LevelOptions{}); err != nil {
		t.Fatal(err)
	}
	if f.pack != warm {
		t.Fatal("solve rebuilt the pack")
	}
}

// TestSolveLevelCancelled checks cancellation: a pre-cancelled context and a
// context cancelled mid-run must both return ctx.Err() with every worker
// unwound (the race detector guards the unwinding).
func TestSolveLevelCancelled(t *testing.T) {
	an, f, pb := levelFixture(t, 4)
	pl := an.SolvePlanFor(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveLevelCtx(ctx, pl, f, pb, LevelOptions{}); err != context.Canceled {
		t.Fatalf("pre-cancelled: err = %v", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := SolveLevelCtx(ctx2, pl, f, pb, LevelOptions{})
		done <- err
	}()
	cancel2()
	if err := <-done; err != nil && err != context.Canceled {
		t.Fatalf("mid-run cancel: err = %v", err)
	}
}

// TestSolveLevelTraced checks the engine records one forward and one
// backward phase per worker into an attached recorder.
func TestSolveLevelTraced(t *testing.T) {
	an, f, pb := levelFixture(t, 4)
	pl := an.SolvePlanFor(4)
	rec := trace.New(4, 0)
	if _, err := SolveLevelCtx(context.Background(), pl, f, pb, LevelOptions{Trace: rec}); err != nil {
		t.Fatal(err)
	}
	if got := rec.KindCount(trace.KindPhase); got != 8 {
		t.Fatalf("recorded %d phase events, want 8 (fwd+bwd × 4 workers)", got)
	}
}

// TestSolveLevelShapeErrors pins the validation surface.
func TestSolveLevelShapeErrors(t *testing.T) {
	an, f, pb := levelFixture(t, 2)
	pl := an.SolvePlanFor(2)
	if _, err := SolveLevelCtx(context.Background(), pl, f, pb[:len(pb)-1], LevelOptions{}); err == nil {
		t.Fatal("short rhs accepted")
	}
	if _, err := SolveLevelCtx(context.Background(), pl, f, pb, LevelOptions{NRHS: 2}); err == nil {
		t.Fatal("panel shorter than n×nrhs accepted")
	}
	other := analyzeFor(t, gen.Laplacian2D(6, 6), 2)
	of, err := other.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveLevelCtx(context.Background(), pl, of, pb, LevelOptions{}); err == nil {
		t.Fatal("foreign factor accepted")
	}
}

// TestLevelStormDynamic is the steal/level-storm test: many more workers
// than the widest level keeps busy, tiny cutoff so every level is a parallel
// step, dynamic fetch — run repeatedly (under -race via make solvestress).
// Results must stay bitwise-identical to sequential every round, all
// parallel cells must be executed, and with contending workers more than one
// worker must win cells overall.
func TestLevelStormDynamic(t *testing.T) {
	an, f, pb := levelFixture(t, 4)
	ref := f.Solve(pb)
	pl := BuildSolvePlan(an.Sym, an.SolveDAG(), 8, 1)
	var parCells int64
	for _, s := range pl.steps {
		if s.Parallel {
			parCells += int64(len(s.Cells))
		}
	}
	if parCells == 0 {
		t.Fatal("storm plan has no parallel cells")
	}
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	winners := map[int]bool{}
	for r := 0; r < rounds; r++ {
		var st LevelStats
		x, err := SolveLevelCtx(context.Background(), pl, f, pb, LevelOptions{Dynamic: true, Stats: &st})
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		var got int64
		for p, c := range st.Executed {
			got += c
			if c > 0 {
				winners[p] = true
			}
		}
		// Forward and backward both traverse the parallel cells.
		if got != 2*parCells {
			t.Fatalf("round %d: executed %d parallel cells, want %d", r, got, 2*parCells)
		}
		for i := range ref {
			if x[i] != ref[i] {
				t.Fatalf("round %d: x[%d] = %x, seq %x (storm broke determinism)", r, i, x[i], ref[i])
			}
		}
	}
	if len(winners) < 2 {
		t.Fatalf("storm degenerated: only %d worker(s) ever fetched cells", len(winners))
	}
}

// TestSolveLevelAllRuntimeFactors checks the engine accepts factors from
// every deterministic runtime interchangeably (they are bitwise-identical)
// and from mpsim (bitwise against its own sequential solve).
func TestSolveLevelAllRuntimeFactors(t *testing.T) {
	a := gen.RandomSPD(160, 4, 3)
	an := analyzeFor(t, a, 4)
	_, b := gen.RHSForSolution(a)
	pb := make([]float64, len(b))
	for newI, old := range an.Perm {
		pb[newI] = b[old]
	}
	pl := an.SolvePlanFor(4)
	for _, rt := range []Runtime{RuntimeSequential, RuntimeShared, RuntimeDynamic, RuntimeMPSim} {
		f, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: rt})
		if err != nil {
			t.Fatalf("%v: %v", rt, err)
		}
		ref := f.Solve(pb)
		x, err := SolveLevelCtx(context.Background(), pl, f, pb, LevelOptions{})
		if err != nil {
			t.Fatalf("%v: %v", rt, err)
		}
		for i := range ref {
			if x[i] != ref[i] {
				t.Fatalf("%v: x[%d] = %x, seq %x", rt, i, x[i], ref[i])
			}
		}
	}
}

func ExampleSolveLevelCtx() {
	a := gen.Laplacian2D(8, 8)
	an, err := Analyze(a, Options{P: 2})
	if err != nil {
		panic(err)
	}
	f, err := an.Factorize()
	if err != nil {
		panic(err)
	}
	_, b := gen.RHSForSolution(a)
	pb := make([]float64, len(b))
	for newI, old := range an.Perm {
		pb[newI] = b[old]
	}
	x, err := SolveLevelCtx(context.Background(), an.SolvePlanFor(2), f, pb, LevelOptions{})
	if err != nil {
		panic(err)
	}
	seq := f.Solve(pb)
	same := true
	for i := range x {
		if x[i] != seq[i] {
			same = false
		}
	}
	fmt.Println("bitwise equal to sequential:", same)
	// Output: bitwise equal to sequential: true
}
