package solver

import (
	"math"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
)

// Fan-both mode (partial AUB aggregation under a memory bound) must produce
// the same factor as pure fan-in — more messages, same numbers.
func TestFanBothMatchesFanIn(t *testing.T) {
	a := laplacian2D(20, 20)
	an := analyzeFor(t, a, 4)
	ref, err := FactorizePar(an.A, an.Sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, capBytes := range []int64{1, 1 << 10, 1 << 16} {
		got, err := FactorizeParOpts(an.A, an.Sched, ParOptions{MaxAUBBytes: capBytes})
		if err != nil {
			t.Fatalf("cap=%d: %v", capBytes, err)
		}
		factorsClose(t, ref, got, 1e-11)
	}
}

// TestFanBothPeakAUBMonotone drives the fan-both memory bound through a
// ladder of caps, from unbounded down to a pathological 1-byte bound. At
// every step the factor must stay identical to the sequential reference and
// the observed aggregation-buffer high-water mark (CommStats.PeakAUBBytes)
// must be non-increasing: paying messages can only buy memory back, never
// cost more. The run is repeated to pin down determinism of the spill
// sequence.
func TestFanBothPeakAUBMonotone(t *testing.T) {
	a := laplacian2D(22, 22)
	an := analyzeFor(t, a, 6)
	ref, err := FactorizeSeq(an.A, an.Sym)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{0, 1 << 20, 1 << 14, 1 << 11, 1 << 8, 64, 8, 1}
	peaks := make([]int64, len(bounds))
	for i, bd := range bounds {
		f, stats, err := FactorizeParStats(an.A, an.Sched, ParOptions{MaxAUBBytes: bd})
		if err != nil {
			t.Fatalf("bound %d: %v", bd, err)
		}
		factorsClose(t, ref, f, 1e-11)
		peaks[i] = stats.PeakAUBBytes
		if i > 0 && peaks[i] > peaks[i-1] {
			t.Fatalf("peak AUB grew when bound shrank: bound %d → peak %d, bound %d → peak %d",
				bounds[i-1], peaks[i-1], bd, peaks[i])
		}
	}
	if peaks[0] == 0 {
		t.Fatal("unbounded run held no AUBs; pick a bigger problem or more procs")
	}
	if last := peaks[len(peaks)-1]; last >= peaks[0] {
		t.Fatalf("pathological bound did not reduce peak: %d vs unbounded %d", last, peaks[0])
	}
	// Determinism: the same bound must reproduce the same peak.
	for i, bd := range bounds {
		_, stats, err := FactorizeParStats(an.A, an.Sched, ParOptions{MaxAUBBytes: bd})
		if err != nil {
			t.Fatalf("bound %d (rerun): %v", bd, err)
		}
		if stats.PeakAUBBytes != peaks[i] {
			t.Fatalf("bound %d: peak not deterministic: %d then %d", bd, peaks[i], stats.PeakAUBBytes)
		}
	}
}

func TestFanBothSolvesCorrectly(t *testing.T) {
	p, err := gen.Generate("QUER", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	an := analyzeFor(t, p.A, 8)
	f, err := FactorizeParOpts(an.A, an.Sched, ParOptions{MaxAUBBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	x, b := gen.RHSForSolution(p.A)
	got := an.SolveOriginal(f, b)
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-8 {
			t.Fatalf("x[%d]=%g want %g", i, got[i], x[i])
		}
	}
}
