package solver

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/faults"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/trace"
)

// conformanceCase is one matrix of the cross-runtime conformance corpus:
// every generator family in internal/gen, including the irregular ones.
type conformanceCase struct {
	name string
	a    *sparse.SymMatrix
	// needsPivot marks matrices that cannot factor without static pivoting
	// (the pivot-off leg is skipped for them).
	needsPivot bool
}

func conformanceCorpus() []conformanceCase {
	return []conformanceCase{
		{"poisson2d-16x16", gen.Laplacian2D(16, 16), false},
		{"poisson3d-7", gen.Laplacian3D(7, 7, 7), false},
		{"graded", gen.GradedPivot(4, 8, 1e-2, 0.05, false), false},
		{"graded-singular", gen.GradedPivot(4, 8, 1e-2, 0.05, true), true},
		{"randspd-seed1", gen.RandomSPD(160, 4, 1), false},
		{"randspd-seed9", gen.RandomSPD(160, 5, 9), false},
	}
}

// factorizeRT runs one factorization of the conformance grid: analysis an,
// runtime rt, optional pivoting, optional tracing (recorder sized to the
// schedule).
func factorizeRT(t *testing.T, an *Analysis, rt Runtime, sp StaticPivot, traced bool) (*Factors, *trace.Recorder) {
	t.Helper()
	var rec *trace.Recorder
	if traced {
		rec = trace.New(an.Sched.P, 0)
	}
	f, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{
		Runtime: rt,
		Pivot:   sp,
		Trace:   rec,
	})
	if err != nil {
		t.Fatalf("%v factorize: %v", rt, err)
	}
	return f, rec
}

// TestRuntimeConformance is the cross-runtime conformance suite of the
// dynamic-runtime work: every generator family × all four runtimes ×
// {pivot off, pivot on} × {untraced, traced}, plus fan-out at P = 2, 3 and
// 4 with pivoting off. The deterministic runtimes (sequential, shared,
// dynamic) must agree BITWISE on factor data, publish reflect.DeepEqual
// perturbation reports, and return bitwise-equal solve vectors; fan-out
// must give the sequential factor bit for bit; the message-passing
// simulator must agree to aggregation rounding (≤1e-11 entrywise on these
// scales) with an identical report, and must be bitwise-reproducible
// against itself. The complex leg holds the same contract on complex128
// storage at P = 2 and 4, and a fault-injected complex mpsim run must
// reproduce the fault-free bits.
func TestRuntimeConformance(t *testing.T) {
	for _, tc := range conformanceCorpus() {
		for _, pivOn := range []bool{false, true} {
			if tc.needsPivot && !pivOn {
				continue
			}
			var sp StaticPivot
			if pivOn {
				sp = StaticPivot{Epsilon: 1e-10}
			}
			t.Run(fmt.Sprintf("%s/pivot=%v", tc.name, pivOn), func(t *testing.T) {
				an := analyzeFor(t, tc.a, 4)
				ref, _ := factorizeRT(t, an, RuntimeSequential, sp, false)
				_, b := gen.RHSForSolution(tc.a)
				refX := solveOriginal(an, ref, b)

				for _, rt := range []Runtime{RuntimeShared, RuntimeDynamic} {
					for _, traced := range []bool{false, true} {
						f, _ := factorizeRT(t, an, rt, sp, traced)
						name := fmt.Sprintf("%v/traced=%v", rt, traced)
						bitwiseEqualData(t, ref.Data, f.Data, name)
						if !reflect.DeepEqual(ref.Pivots, f.Pivots) {
							t.Fatalf("%s: perturbation report differs:\nseq: %+v\ngot: %+v", name, ref.Pivots, f.Pivots)
						}
						x := solveOriginal(an, f, b)
						for i := range refX {
							if x[i] != refX[i] {
								t.Fatalf("%s: solve x[%d] = %x, seq %x (not bit-identical)", name, i, x[i], refX[i])
							}
						}
					}
				}

				// fan-out (no pivoting): the reference bit for bit at every P
				// (the partition, and so the reference, does not depend on P).
				if !pivOn {
					for _, P := range []int{2, 3, 4} {
						anP := analyzeFor(t, tc.a, P)
						f, _, err := anP.FactorizeFanOut()
						if err != nil {
							t.Fatalf("fan-out P=%d: %v", P, err)
						}
						bitwiseEqualData(t, ref.Data, f.Data, fmt.Sprintf("fan-out P=%d", P))
					}
				}

				// mpsim: deterministic (bitwise against itself) and equal to the
				// reference to aggregation rounding; same report.
				for _, traced := range []bool{false, true} {
					f1, _ := factorizeRT(t, an, RuntimeMPSim, sp, traced)
					f2, _ := factorizeRT(t, an, RuntimeMPSim, sp, traced)
					name := fmt.Sprintf("mpsim/traced=%v", traced)
					bitwiseEqualData(t, f1.Data, f2.Data, name+" (run-to-run)")
					factorsClose(t, ref, f1, 1e-11)
					if !reflect.DeepEqual(ref.Pivots, f1.Pivots) {
						t.Fatalf("%s: perturbation report differs from seq", name)
					}
					x := solveOriginal(an, f1, b)
					for i := range refX {
						if d := math.Abs(x[i] - refX[i]); d > 1e-9 {
							t.Fatalf("%s: solve x[%d] off by %g", name, i, d)
						}
					}
				}
			})
		}
	}
	for _, zc := range []struct {
		name string
		a    *sparse.ZSymMatrix
	}{
		{"complex-laplacian-18x18", zLaplacian(18, 18)},
		{"complex-helmholtz-18x18", zHelmholtz(18, 18)},
	} {
		for _, P := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", zc.name, P), func(t *testing.T) {
				an, paz := zAnalyze(t, zc.a, P)
				ref := zFactorize(t, an, paz, ParOptions{Runtime: RuntimeSequential})
				for _, rt := range []Runtime{RuntimeShared, RuntimeDynamic} {
					bitwiseEqualData(t, ref.Data, zFactorize(t, an, paz, ParOptions{Runtime: rt}).Data, rt.String())
				}
				mp := zFactorize(t, an, paz, ParOptions{Runtime: RuntimeMPSim})
				bitwiseEqualData(t, mp.Data, zFactorize(t, an, paz, ParOptions{Runtime: RuntimeMPSim}).Data, "mpsim (run-to-run)")
				zFactorsClose(t, ref, mp, 1e-11)
				faulted := zFactorize(t, an, paz, ParOptions{Runtime: RuntimeMPSim, Faults: chaosPlan(int64(P))})
				bitwiseEqualData(t, mp.Data, faulted.Data, "mpsim (faulted)")
			})
		}
	}
}

func bitwiseEqualData[T blas.Scalar](t *testing.T, ref, got [][]T, name string) {
	t.Helper()
	for k := range ref {
		if len(ref[k]) != len(got[k]) {
			t.Fatalf("%s: cell %d sizes differ (%d vs %d)", name, k, len(ref[k]), len(got[k]))
		}
		for i := range ref[k] {
			if ref[k][i] != got[k][i] {
				t.Fatalf("%s: cell %d elem %d: %x vs %x (not bit-identical)",
					name, k, i, got[k][i], ref[k][i])
			}
		}
	}
}

// TestDynamicSharedBitwiseSeeds is the acceptance soak: across ≥20 random
// irregular matrices the work-stealing runtime must produce factors
// bitwise-identical to the static shared-memory runtime — every seed, every
// run, regardless of which worker stole what. Run under -race by `make race`.
func TestDynamicSharedBitwiseSeeds(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		a := gen.RandomSPD(120, 4, uint64(seed)+1)
		an := analyzeFor(t, a, 4)
		sh, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeShared})
		if err != nil {
			t.Fatalf("seed %d: shared: %v", seed, err)
		}
		dy, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeDynamic})
		if err != nil {
			t.Fatalf("seed %d: dynamic: %v", seed, err)
		}
		bitwiseEqualFactors(t, sh, dy, int64(seed))
	}
}

// TestDynamicStealStorm drives the dynamic runtime where stealing is the
// only way to make progress: tiny blocks (many small tasks) on many more
// workers than the elimination tree keeps busy. Results must still be
// bitwise-identical to sequential, and the executor must actually have
// stolen.
func TestDynamicStealStorm(t *testing.T) {
	a := gen.Laplacian2D(20, 20)
	an, err := Analyze(a, Options{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FactorizeSeq(an.A, an.Sym)
	if err != nil {
		t.Fatal(err)
	}
	var totalSteals int64
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for r := 0; r < rounds; r++ {
		f, st, err := factorizeSharedOn(an, false)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if st.Executed != int64(len(an.Sched.Tasks)) {
			t.Fatalf("round %d: executed %d of %d tasks", r, st.Executed, len(an.Sched.Tasks))
		}
		bitwiseEqualFactors(t, ref, f, int64(r))
		totalSteals += st.Steals
	}
	if totalSteals == 0 {
		t.Fatal("steal storm never stole: executor degenerated to static mapping")
	}
}

// TestDynamicTraceCompare checks the tracing surface of the dynamic runtime:
// a traced dynamic factorization must replay through trace.CompareOpts with
// FreeMapping (tasks run on arbitrary workers), producing a full report,
// while the strict mapped comparison is expected to reject the free mapping.
func TestDynamicTraceCompare(t *testing.T) {
	a := gen.Laplacian2D(16, 16)
	an := analyzeFor(t, a, 4)
	rec := trace.New(an.Sched.P, 0)
	_, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeDynamic, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := trace.CompareOpts(an.Sched, rec, trace.CompareOptions{FreeMapping: true})
	if err != nil {
		t.Fatalf("CompareOpts(FreeMapping): %v", err)
	}
	if len(rp.Tasks) != len(an.Sched.Tasks) {
		t.Fatalf("report covers %d tasks, schedule has %d", len(rp.Tasks), len(an.Sched.Tasks))
	}
	if rp.MeasuredMakespan <= 0 {
		t.Fatalf("measured makespan %v not positive", rp.MeasuredMakespan)
	}
}

// TestDynamicRejectsFaults pins the chaos-interplay contract at the solver
// layer: fault injection exists for the message-passing runtime only, and
// combining an active plan with the work-stealing runtime must fail up
// front, not silently ignore the plan.
func TestDynamicRejectsFaults(t *testing.T) {
	a := gen.Laplacian2D(10, 10)
	an := analyzeFor(t, a, 2)
	plan := &faults.Plan{Seed: 1, Drop: 0.1}
	for _, rt := range []Runtime{RuntimeDynamic, RuntimeShared, RuntimeSequential} {
		_, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: rt, Faults: plan})
		if err == nil {
			t.Fatalf("%v accepted an active fault plan", rt)
		}
	}
	// The same plan on the message-passing runtime is fine.
	if _, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: RuntimeMPSim, Faults: plan}); err != nil {
		t.Fatalf("mpsim rejected its own fault plan: %v", err)
	}
}

// TestDynamicHonorsContext cancels factorizations while their workers run,
// under both placement policies of the shared-memory executor: the run must
// stop early and return ctx.Err(). The cancel fires on a timer; the trace
// shows where it landed (some but not all tasks recorded means mid-run), and
// the delay is bisected until it lands there.
func TestDynamicHonorsContext(t *testing.T) {
	a := gen.Laplacian2D(40, 40)
	an := analyzeFor(t, a, 4)
	n := len(an.Sched.Tasks)
	for _, rt := range []Runtime{RuntimeShared, RuntimeDynamic} {
		start := time.Now()
		if _, err := an.FactorizeOpts(ParOptions{Runtime: rt, Trace: trace.New(an.Sched.P, 0)}); err != nil {
			t.Fatalf("%v: %v", rt, err)
		}
		delay := time.Since(start) / 2
		midRun := false
		for try := 0; try < 50 && !midRun; try++ {
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(delay, cancel)
			rec := trace.New(an.Sched.P, 0)
			_, err := an.FactorizeMatrixOptsCtx(ctx, an.A, ParOptions{Runtime: rt, Trace: rec})
			timer.Stop()
			cancel()
			ran := len(taskEvents(rec))
			if ran == n {
				delay /= 2 // the run finished first
				continue
			}
			if err != context.Canceled {
				t.Fatalf("%v: cancelled after %d of %d tasks: err = %v, want %v", rt, ran, n, err, context.Canceled)
			}
			if ran == 0 {
				delay += delay / 2 // cancelled before the first task
				continue
			}
			midRun = true
		}
		if !midRun {
			t.Fatalf("%v: no cancellation landed mid-run in 50 tries", rt)
		}
	}
}
