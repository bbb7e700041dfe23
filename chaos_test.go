package pastix

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/gen"
)

// Fault injection through the public surface: Analyze with a FaultPlan, then
// Factorize and SolveOpts must recover from drops, duplicates, delays and
// a scheduled worker crash, and still produce a correct solution.
func TestPublicChaosRoundTrip(t *testing.T) {
	a := gen.Laplacian2D(12, 12)
	an, err := Analyze(a, Options{Processors: 4, BlockSize: 16, Ratio2D: 2,
		Faults: &FaultPlan{
			Seed:        11,
			Drop:        0.1,
			Dup:         0.1,
			Delay:       0.15,
			MaxDelay:    200 * time.Microsecond,
			CrashAtStep: map[int]int{1: 1},
		}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	x, b := gen.RHSForSolution(a)
	res, err := an.SolveOpts(context.Background(), f, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.X
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("x[%d]=%g want %g", i, got[i], x[i])
		}
	}
}

func TestPublicChaosOptionErrors(t *testing.T) {
	a := gen.Laplacian2D(8, 8)
	if _, err := Analyze(a, Options{Processors: 2, Faults: &FaultPlan{Drop: 1.5}}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("invalid plan not rejected as ErrBadOptions: %v", err)
	}
	// An inactive plan is fine alongside a shared-memory runtime.
	if _, err := Analyze(a, Options{Processors: 2, Runtime: RuntimeShared, Faults: &FaultPlan{}}); err != nil {
		t.Fatal(err)
	}
	// Chaos interplay with the work-stealing runtime: faults are a
	// message-passing concept, so an active plan combined with
	// RuntimeDynamic (or RuntimeShared/RuntimeSequential) must be rejected
	// as ErrBadOptions at validation, not silently ignored.
	for _, rt := range []Runtime{RuntimeDynamic, RuntimeShared, RuntimeSequential} {
		_, err := Analyze(a, Options{Processors: 2, Runtime: rt, Faults: &FaultPlan{Drop: 0.1}})
		if !errors.Is(err, ErrBadOptions) {
			t.Fatalf("Runtime %v + active Faults not rejected as ErrBadOptions: %v", rt, err)
		}
	}
	// An inactive plan alongside the dynamic runtime is fine.
	if _, err := Analyze(a, Options{Processors: 2, Runtime: RuntimeDynamic, Faults: &FaultPlan{}}); err != nil {
		t.Fatal(err)
	}
}

// A hopeless wire with a tiny retry budget must surface the typed budget
// error with per-processor progress through the public API.
func TestPublicChaosBudgetError(t *testing.T) {
	a := gen.Laplacian2D(12, 12)
	plan := &FaultPlan{Seed: 2, Drop: 0.999}
	plan.Reliability.RTO = 100 * time.Microsecond
	plan.Reliability.MaxRTO = 200 * time.Microsecond
	plan.Reliability.RetryLimit = 2
	plan.Reliability.Tick = 50 * time.Microsecond
	an, err := Analyze(a, Options{Processors: 4, BlockSize: 16, Ratio2D: 2, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	_, err = an.Factorize()
	if !errors.Is(err, ErrFaultBudget) {
		t.Fatalf("want ErrFaultBudget, got %v", err)
	}
	var fbe *FaultBudgetError
	if !errors.As(err, &fbe) || len(fbe.Progress) != 4 {
		t.Fatalf("budget detail wrong: %v", err)
	}
}

// Chaos runs must show up in the trace: fault events recorded, restarts and
// resends tallied in the summary.
func TestPublicChaosTrace(t *testing.T) {
	a := gen.Laplacian2D(12, 12)
	an, err := Analyze(a, Options{Processors: 4, BlockSize: 16,
		Faults: &FaultPlan{Seed: 4, Drop: 0.15, CrashAtStep: map[int]int{2: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	_, tr, err := an.FactorizeTraced(context.Background(), TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tr.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if ts.FaultEvents == 0 {
		t.Fatal("no fault events recorded")
	}
	if ts.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", ts.Restarts)
	}
	if ts.Resends == 0 {
		t.Fatal("no resends recorded despite drops")
	}
}
