package solver

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/lowrank"
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
// engine (several worker counts and cutoffs) is bitwise-identical to the
// sequential Factors.Solve.
func TestSolveLevelBitwiseSeq(t *testing.T) {
	an, f, pb := levelFixture(t, 4)
	ref := f.Solve(pb)
	for _, workers := range []int{1, 2, 4, 7} {
		for _, cutoff := range []int{0, 1, 3, 64} {
			pl := BuildSolvePlan(an.Sym, an.SolveDAG(), workers, cutoff)
			x, err := SolveLevelCtx(context.Background(), pl, f, pb, LevelOptions{})
			if err != nil {
				t.Fatalf("workers=%d cutoff=%d: %v", workers, cutoff, err)
			}
			for i := range ref {
				if x[i] != ref[i] {
					t.Fatalf("workers=%d cutoff=%d: x[%d] = %x, seq %x",
						workers, cutoff, i, x[i], ref[i])
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

// TestPrepareSolvePacksOnce checks the factor keeps the one layout the
// factorization wrote: PrepareSolve returns the stats of the plan solves
// run, and neither it nor a solve builds anything beside the strided cells.
func TestPrepareSolvePacksOnce(t *testing.T) {
	an, f, pb := levelFixture(t, 4)
	if f.Data == nil || f.lrCells != nil {
		t.Fatal("factorization did not leave the strided cells")
	}
	data, cell0 := &f.Data[0], f.Data[0]
	st := an.PrepareSolve(f)
	if want := an.SolvePlan().Stats(); st != want {
		t.Fatalf("PrepareSolve stats %+v, want those of the plan solves run %+v", st, want)
	}
	if _, err := SolveLevelCtx(context.Background(), an.SolvePlanFor(an.Sched.P), f, pb, LevelOptions{}); err != nil {
		t.Fatal(err)
	}
	if &f.Data[0] != data || &f.Data[0][0] != &cell0[0] || f.lrCells != nil {
		t.Fatal("PrepareSolve or the solve replaced the strided cells")
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
// backward phase per worker into an attached recorder, plus its waits in
// the step barriers.
func TestSolveLevelTraced(t *testing.T) {
	an, f, pb := levelFixture(t, 4)
	pl := an.SolvePlanFor(4)
	rec := trace.New(4, 0)
	if _, err := SolveLevelCtx(context.Background(), pl, f, pb, LevelOptions{Trace: rec}); err != nil {
		t.Fatal(err)
	}
	phases := map[int8]int{}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindPhase {
			phases[e.Aux]++
		}
	}
	if got := phases[trace.PhaseForward] + phases[trace.PhaseBackward]; got != 8 {
		t.Fatalf("recorded %d forward/backward phase events, want 8 (fwd+bwd × 4 workers)", got)
	}
	if phases[trace.PhaseBarrier] == 0 {
		t.Fatal("no barrier-wait events recorded")
	}
	var chrome strings.Builder
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"solve-barrier-wait"`) {
		t.Fatal("Chrome trace names no solve-barrier-wait event")
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

// TestLevelStormDynamic is the level-storm test: many more workers than the
// widest level keeps busy, tiny cutoff so every level is a parallel step —
// run repeatedly (under -race via make solvestress). Results must stay
// bitwise-identical to sequential every round, all parallel cells must be
// executed, and the cost-balanced partition must hand cells to more than one
// worker.
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
		x, err := SolveLevelCtx(context.Background(), pl, f, pb, LevelOptions{Stats: &st})
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
		t.Fatalf("storm degenerated: only %d worker(s) ever ran cells", len(winners))
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

// forceSplit returns a copy of pl with every chain cell split across the
// workers, so the split path runs whatever the cost model would choose.
func forceSplit(pl *SolvePlan) *SolvePlan {
	cp := *pl
	cp.split = make([]bool, pl.sym.NumCB())
	cp.splitCells = 0
	for _, st := range cp.steps {
		if st.Parallel {
			continue
		}
		for _, k := range st.Cells {
			cp.split[k] = true
			cp.splitCells++
		}
	}
	return &cp
}

// TestSolveLevelSplitChain is the bitwise table of the split chain: every
// chain cell run across 2, 3 and 4 workers (some narrower than the worker
// count, so some row and column ranges are empty), one and three
// right-hand sides, dense and BLR-compressed factors. Every column must
// equal the per-column Factors.Solve bit for bit.
func TestSolveLevelSplitChain(t *testing.T) {
	an, dense, pb, _ := compressFixture(t, 4)
	blr, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeShared})
	if err != nil {
		t.Fatal(err)
	}
	blr.Compress(lowrank.Options{Tol: 1e-8, MinBlockSize: 8})
	n := len(pb)
	const maxRHS = 3
	panel := make([]float64, n*maxRHS)
	for c := 0; c < maxRHS; c++ {
		for i := range pb {
			panel[c*n+i] = pb[i] / float64(c+1)
		}
	}
	for _, fc := range []struct {
		name string
		f    *Factors
	}{{"dense", dense}, {"blr", blr}} {
		refs := make([][]float64, maxRHS)
		for c := range refs {
			refs[c] = fc.f.Solve(append([]float64(nil), panel[c*n:(c+1)*n]...))
		}
		for _, workers := range []int{2, 3, 4} {
			// The default cutoff mixes parallel steps and a chain; a huge one
			// chains every level, narrow leaves included.
			for _, cutoff := range []int{0, 1 << 20} {
				pl := forceSplit(BuildSolvePlan(an.Sym, an.SolveDAG(), workers, cutoff))
				if pl.Stats().SplitCells == 0 {
					t.Fatalf("workers=%d cutoff=%d: no chain cell to split", workers, cutoff)
				}
				for _, nrhs := range []int{1, maxRHS} {
					x, err := SolveLevelCtx(context.Background(), pl, fc.f, panel[:n*nrhs],
						LevelOptions{NRHS: nrhs})
					if err != nil {
						t.Fatal(err)
					}
					for c := 0; c < nrhs; c++ {
						for i, want := range refs[c] {
							if got := x[c*n+i]; got != want {
								t.Fatalf("%s workers=%d cutoff=%d nrhs=%d: col %d x[%d] = %x, seq %x",
									fc.name, workers, cutoff, nrhs, c, i, got, want)
							}
						}
					}
				}
			}
		}
	}
	// The table must reach the cases it is for: a split cell narrower than
	// four workers, and a split cell the BLR factor touches through a
	// low-rank block.
	narrow, lowRank := false, false
	pl := forceSplit(BuildSolvePlan(an.Sym, an.SolveDAG(), 4, 1<<20))
	for k, split := range pl.split {
		if !split {
			continue
		}
		narrow = narrow || an.Sym.CB[k].Width() < 4
		for _, lb := range blr.lrCells[k].lr {
			lowRank = lowRank || lb != nil
		}
	}
	if !narrow || !lowRank {
		t.Fatalf("fixture lost a case: narrow split cell %v, low-rank split cell %v", narrow, lowRank)
	}
}

// flipCtx is a context whose Err turns to context.Canceled after a given
// number of calls, so a test can cancel at an exact barrier.
type flipCtx struct {
	context.Context
	after int64
	calls atomic.Int64
	done  chan struct{}
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestSolveLevelCancelMidChain cancels at every barrier of solves whose
// chain cells are split, so most cancellations land inside a chain step
// between a cell's two barriers. Every call must return context.Canceled
// promptly: a worker that stopped early would leave the others spinning in a
// barrier forever.
func TestSolveLevelCancelMidChain(t *testing.T) {
	an, f, pb := levelFixture(t, 4)
	for _, workers := range []int{2, 3, 4} {
		pl := forceSplit(BuildSolvePlan(an.Sym, an.SolveDAG(), workers, 1<<20))
		// One check before the workers start, one per barrier and one after
		// they join. A step ends in a barrier per sweep (bar the last); in
		// each sweep a split chain cell adds two, except that the last cell
		// of a step needs none after its forward product and the first none
		// before its backward one.
		barriers := 2*len(pl.steps) - 1
		for _, st := range pl.steps {
			if !st.Parallel {
				barriers += 2 * (2*len(st.Cells) - 1)
			}
		}
		for after := int64(1); after <= int64(barriers)+1; after++ {
			ctx := &flipCtx{Context: context.Background(), after: after, done: make(chan struct{})}
			done := make(chan error, 1)
			go func() {
				_, err := SolveLevelCtx(ctx, pl, f, pb, LevelOptions{})
				done <- err
			}()
			select {
			case err := <-done:
				if err != context.Canceled {
					t.Fatalf("workers=%d cancel after %d checks: err = %v", workers, after, err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("workers=%d cancel after %d checks: solve hung", workers, after)
			}
		}
	}
}

// TestSolveLevelSpinBarrier checks the step barrier on its own: a lone
// worker passes straight through, and four workers on two threads go
// through many generations in a row without one of them running ahead and
// without livelock; the last arrival's hook runs once per generation,
// before any worker leaves.
func TestSolveLevelSpinBarrier(t *testing.T) {
	one := spinBarrier{n: 1}
	hooks := 0
	for i := 0; i < 1000; i++ {
		one.wait(func() { hooks++ })
	}
	if hooks != 1000 {
		t.Fatalf("lone worker: hook ran %d times, want 1000", hooks)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const workers, gens = 4, 2000
	bar := spinBarrier{n: workers}
	var arrived [gens]atomic.Int32
	var hooked [gens]int32
	errs := make(chan error, workers)
	for p := 0; p < workers; p++ {
		go func() {
			for g := 0; g < gens; g++ {
				arrived[g].Add(1)
				bar.wait(func() { hooked[g]++ })
				if a := arrived[g].Load(); a != workers {
					errs <- fmt.Errorf("generation %d: left with %d of %d arrived", g, a, workers)
					return
				}
				if hooked[g] != 1 {
					errs <- fmt.Errorf("generation %d: hook ran %d times", g, hooked[g])
					return
				}
			}
			errs <- nil
		}()
	}
	timeout := time.After(60 * time.Second)
	for p := 0; p < workers; p++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("barrier livelocked")
		}
	}
}

// TestSolvePlanChoosesWorkers pins the worker-count choice on the two
// benchmark problems at two processors: the 24³ Poisson plan runs on both
// workers with its chain split, the 12³ one on a single worker.
func TestSolvePlanChoosesWorkers(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{12, 1}, {24, 2}} {
		an, err := Analyze(gen.Laplacian3D(c.n, c.n, c.n), Options{P: 2})
		if err != nil {
			t.Fatal(err)
		}
		st := an.SolvePlan().Stats()
		if st.Workers != c.workers {
			t.Fatalf("Poisson %d³: plan on %d workers, want %d (%+v)", c.n, st.Workers, c.workers, st)
		}
		if c.workers > 1 && st.SplitCells == 0 {
			t.Fatalf("Poisson %d³: no chain cell split (%+v)", c.n, st)
		}
		if c.workers == 1 && st.ParallelSteps+st.SplitCells != 0 {
			t.Fatalf("Poisson %d³: one-worker plan has parallel work (%+v)", c.n, st)
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

// BenchmarkSolveBarrier times one spinBarrier generation with two workers
// (ns/op is per barrier): the engine's per-barrier charge.
func BenchmarkSolveBarrier(b *testing.B) {
	bar := spinBarrier{n: 2}
	done := make(chan struct{})
	go func() {
		for i := 0; i < b.N; i++ {
			bar.wait(nil)
		}
		close(done)
	}()
	for i := 0; i < b.N; i++ {
		bar.wait(nil)
	}
	<-done
}

// BenchmarkSolveSpawn times starting one extra worker goroutine, meeting it
// at a barrier and joining it: the per-worker start-up charge of a solve.
func BenchmarkSolveSpawn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bar := spinBarrier{n: 2}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			bar.wait(nil)
		}()
		bar.wait(nil)
		wg.Wait()
	}
}

// BenchmarkSolveEngine times the level-set engine at one and two workers
// and the sequential Factors.Solve on 3-D Poisson 12³ and 24³ analyzed at
// P=2, one right-hand side, and reports the factor bytes streamed per
// second (a solve reads every factor value once per sweep). Run it on two
// trees, alternating, to A/B a solve change:
//
//	go test -run '^$' -bench SolveEngine -count 5 ./internal/solver
func BenchmarkSolveEngine(b *testing.B) {
	for _, n := range []int{12, 24} {
		a := gen.Laplacian3D(n, n, n)
		an, err := Analyze(a, Options{P: 2})
		if err != nil {
			b.Fatal(err)
		}
		f, err := an.Factorize()
		if err != nil {
			b.Fatal(err)
		}
		_, rhs := gen.RHSForSolution(a)
		pb := make([]float64, len(rhs))
		for newI, old := range an.Perm {
			pb[newI] = rhs[old]
		}
		streamed := 2 * float64(f.MemoryBytes())
		run := func(name string, solve func() error) {
			b.Run(fmt.Sprintf("poisson%d/%s", n, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := solve(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(streamed*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
		for _, workers := range []int{1, 2} {
			pl := an.SolvePlanFor(workers)
			run(fmt.Sprintf("engine-%dw", workers), func() error {
				_, err := SolveLevelCtx(context.Background(), pl, f, pb, LevelOptions{})
				return err
			})
		}
		run("seq", func() error {
			f.Solve(pb)
			return nil
		})
	}
}
