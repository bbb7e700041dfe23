package solver

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/faults"
	"github.com/pastix-go/pastix/internal/mpsim"
)

// chaosPlan is the soak configuration: every wire fault class armed, one
// scheduled crash and one supervisor-broken stall, with tight reliability
// timeouts so recovery happens within test time.
func chaosPlan(seed int64) *faults.Plan {
	return &faults.Plan{
		Seed:     seed,
		Drop:     0.15,
		Dup:      0.15,
		Delay:    0.20,
		MaxDelay: 300 * time.Microsecond,
		CrashAtStep: map[int]int{
			1: 2,
			3: 0,
		},
		StallAtStep: map[int]faults.Stall{
			2: {Step: 1, Duration: 50 * time.Millisecond},
		},
		Reliability: mpsim.Reliability{
			RTO:          200 * time.Microsecond,
			StallTimeout: 3 * time.Millisecond,
			Tick:         100 * time.Microsecond,
		},
	}
}

func bitwiseEqualFactors(t *testing.T, ref, got *Factors, seed int64) {
	t.Helper()
	rd, gd := ref.Data, got.Data
	for k := range rd {
		if len(rd[k]) != len(gd[k]) {
			t.Fatalf("seed %d: cell %d sizes differ", seed, k)
		}
		for i := range rd[k] {
			if rd[k][i] != gd[k][i] {
				t.Fatalf("seed %d: cell %d elem %d: %x vs %x (not bit-identical)",
					seed, k, i, rd[k][i], gd[k][i])
			}
		}
	}
}

// The acceptance soak: across many seeds with drops, duplicates, delays, two
// scheduled crashes and a supervisor-broken stall, factorization must
// complete with a factor bit-for-bit identical to the fault-free run, with
// the recovery machinery demonstrably exercised. The solve sends no
// messages, so its answer on that factor is the fault-free one too.
func TestChaosSoakFactorSolve(t *testing.T) {
	a := laplacian2D(14, 14)
	an := analyzeFor(t, a, 4)
	ref, _, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	pl := an.SolvePlanFor(4)
	refX, err := SolveLevelCtx(context.Background(), pl, ref, b, LevelOptions{})
	if err != nil {
		t.Fatal(err)
	}

	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	var restarts, recoveries int64
	for s := 0; s < seeds; s++ {
		seed := int64(s*7919 + 1)
		plan := chaosPlan(seed)
		f, cs, err := FactorizeParStats(an.A, an.Sched, ParOptions{Faults: plan})
		if err != nil {
			t.Fatalf("seed %d: factorization under chaos failed: %v", seed, err)
		}
		bitwiseEqualFactors(t, ref, f, seed)
		x, err := SolveLevelCtx(context.Background(), pl, f, b, LevelOptions{})
		if err != nil {
			t.Fatalf("seed %d: solve of the chaos factor failed: %v", seed, err)
		}
		for i := range x {
			if x[i] != refX[i] {
				t.Fatalf("seed %d: x[%d] = %x, fault-free %x (not bit-identical)", seed, i, x[i], refX[i])
			}
		}
		restarts += cs.Restarts
		recoveries += cs.Resends + cs.Deduped
	}
	if restarts == 0 {
		t.Fatal("no worker restart was exercised across the soak")
	}
	if recoveries == 0 {
		t.Fatal("no resend/dedup activity was exercised across the soak")
	}
}

// Fan-both spills must survive chaos too: partial AUBs from one sender must
// be applied before its final message despite reordering on the wire.
func TestChaosFanBoth(t *testing.T) {
	a := laplacian2D(12, 12)
	an := analyzeFor(t, a, 4)
	ref, _, err := FactorizeParStats(an.A, an.Sched, ParOptions{MaxAUBBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		seed := int64(s*104729 + 13)
		f, _, err := FactorizeParStats(an.A, an.Sched, ParOptions{MaxAUBBytes: 512, Faults: chaosPlan(seed)})
		if err != nil {
			t.Fatalf("seed %d: fan-both under chaos failed: %v", seed, err)
		}
		bitwiseEqualFactors(t, ref, f, seed)
	}
}

// A crash schedule works at P = 1 too (the injector forces the
// message-passing runtime past the sequential shortcut).
func TestChaosCrashSingleProc(t *testing.T) {
	a := laplacian2D(8, 8)
	an := analyzeFor(t, a, 1)
	ref, err := FactorizeSeq(an.A, an.Sym)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Seed: 5, CrashAtStep: map[int]int{0: 1}}
	f, cs, err := FactorizeParStats(an.A, an.Sched, ParOptions{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", cs.Restarts)
	}
	factorsClose(t, ref, f, 1e-12)
}

// Past-recovery degradation: with everything dropped and a tiny retry
// budget, the run must abort with the typed budget error carrying
// per-processor progress — not deadlock and not panic.
func TestChaosFaultBudget(t *testing.T) {
	a := laplacian2D(10, 10)
	an := analyzeFor(t, a, 4)
	plan := &faults.Plan{
		Seed: 9,
		Drop: 0.999,
		Reliability: mpsim.Reliability{
			RTO: 100 * time.Microsecond, MaxRTO: 200 * time.Microsecond,
			RetryLimit: 2, Tick: 50 * time.Microsecond,
		},
	}
	_, _, err := FactorizeParStats(an.A, an.Sched, ParOptions{Faults: plan})
	if err == nil {
		t.Fatal("expected fault-budget exhaustion")
	}
	if !errors.Is(err, ErrFaultBudget) {
		t.Fatalf("not matchable as ErrFaultBudget: %v", err)
	}
	var fbe *FaultBudgetError
	if !errors.As(err, &fbe) {
		t.Fatalf("no FaultBudgetError in chain: %v", err)
	}
	if len(fbe.Progress) != 4 {
		t.Fatalf("progress for %d procs, want 4", len(fbe.Progress))
	}
	total := 0
	for p, pr := range fbe.Progress {
		if pr.Done < 0 || pr.Done > pr.Total {
			t.Fatalf("proc %d: nonsense progress %+v", p, pr)
		}
		total += pr.Total
	}
	if total == 0 {
		t.Fatal("no tasks reported in progress")
	}
}

// The shared-memory runtimes and fault injection are mutually exclusive.
func TestChaosRejectsSharedMemory(t *testing.T) {
	a := laplacian2D(6, 6)
	an := analyzeFor(t, a, 2)
	plan := &faults.Plan{Drop: 0.1}
	for _, rt := range []Runtime{RuntimeShared, RuntimeDynamic} {
		if _, err := an.FactorizeOpts(ParOptions{Runtime: rt, Faults: plan}); err == nil {
			t.Fatalf("%v+Faults accepted", rt)
		}
	}
}

// With no injection, repeated runs are bit-identical (the canonical
// contribution ordering makes even the fault-free runtime deterministic).
func TestFaultFreeBitwiseDeterministic(t *testing.T) {
	a := laplacian2D(12, 12)
	an := analyzeFor(t, a, 4)
	f1, err := FactorizePar(an.A, an.Sched)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := FactorizePar(an.A, an.Sched)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqualFactors(t, f1, f2, -1)
}
