package multifrontal

import (
	"testing"

	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/solver"
	"github.com/pastix-go/pastix/internal/sparse"
)

func analyzeMF(t *testing.T, a *sparse.SymMatrix, P int) *solver.Analysis {
	t.Helper()
	// PSPASES-like configuration: MeTiS-style ordering, fronts are whole
	// supernodes (no splitting), no 1D/2D switch (the multifrontal code has
	// its own subcube parallelism).
	an, err := solver.Analyze(a, solver.Options{
		P:        P,
		Ordering: order.Options{Method: order.MetisLike, LeafSize: 30},
		Part:     part.Options{BlockSize: 1 << 20, Ratio2D: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestSimulateTimeScales(t *testing.T) {
	// Needs a realistically sized problem: on the SP2 profile, tiny problems
	// legitimately do not speed up (latency dominates), exactly as on the
	// real machine.
	p, err := gen.Generate("QUER", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mach := cost.SP2()
	t1 := SimulateTime(analyzeMF(t, p.A, 1), mach)
	t4 := SimulateTime(analyzeMF(t, p.A, 4), mach)
	t16 := SimulateTime(analyzeMF(t, p.A, 16), mach)
	if t1 <= 0 {
		t.Fatal("sequential simulated time must be positive")
	}
	if t4 >= t1 {
		t.Fatalf("P=4 (%g) not faster than P=1 (%g)", t4, t1)
	}
	if t16 >= t4 {
		t.Fatalf("P=16 (%g) not faster than P=4 (%g)", t16, t4)
	}
	if t1/t16 > 16 {
		t.Fatalf("superlinear baseline speedup %g", t1/t16)
	}
}
