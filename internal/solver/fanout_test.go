package solver

import (
	"fmt"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
)

func analyze1D(t *testing.T, a *sparse.SymMatrix, P int) *Analysis {
	t.Helper()
	an, err := Analyze(a, Options{
		P:        P,
		Ordering: order.Options{Method: order.ScotchLike, LeafSize: 30},
		Part:     part.Options{BlockSize: 16, Ratio2D: 1 << 30}, // 1D only
	})
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// Fan-out adds each target's updates in ascending source order whatever
// order the panels arrive in, so every run at every P is the sequential
// factor bit for bit.
func TestFanOutMatchesSequential(t *testing.T) {
	a := laplacian2D(18, 18)
	for _, P := range []int{2, 3, 4, 8} {
		an := analyze1D(t, a, P)
		ref, err := FactorizeSeq(an.A, an.Sym)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 8; run++ {
			got, st, err := an.FactorizeFanOut()
			if err != nil {
				t.Fatalf("P=%d: %v", P, err)
			}
			bitwiseEqualData(t, ref.Data, got.Data, fmt.Sprintf("fan-out P=%d run %d", P, run))
			if st.Messages != st.PredictedMessages {
				t.Fatalf("P=%d: fan-out sent %d messages, predicted %d", P, st.Messages, st.PredictedMessages)
			}
		}
	}
}

// The classical fan-in-vs-fan-out trade-off (Ashcraft-Eisenstat-Liu, the
// paper's refs [3,4]): with a subtree-per-processor mapping, fan-in
// aggregation compresses the raw cross-processor update volume by a large
// factor and sends FEWER messages than fan-out's panel broadcasts — the
// decisive metric on a high-latency network like the paper's SP2 switch.
// (Total bytes can go either way: fan-out ships compact factor panels but
// recomputes updates on every consumer.)
func TestFanInVsFanOutTradeoffs(t *testing.T) {
	p, err := gen.Generate("BMWCRA1", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	an := analyze1D(t, p.A, 2)
	var rawBytes int64
	for i := range an.Sched.Tasks {
		for _, e := range an.Sched.Tasks[i].Outs {
			if e.Kind == sched.EdgeAUB && an.Sched.Tasks[e.Dst].Proc != an.Sched.Tasks[i].Proc {
				rawBytes += int64(e.Elems) * 8
			}
		}
	}
	_, fanIn, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, fanOut, err := an.FactorizeFanOut()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("raw updates: %d bytes; fan-in: %d msgs %d bytes; fan-out: %d msgs %d bytes",
		rawBytes, fanIn.Messages, fanIn.Bytes, fanOut.Messages, fanOut.Bytes)
	if fanIn.Messages >= fanOut.Messages {
		t.Fatalf("fan-in messages (%d) not below fan-out (%d)", fanIn.Messages, fanOut.Messages)
	}
	if fanIn.Bytes*2 >= rawBytes {
		t.Fatalf("aggregation compresses raw volume %d only to %d (< 2x)", rawBytes, fanIn.Bytes)
	}
}

func TestFanOutSolves(t *testing.T) {
	prob, err := gen.Generate("QUER", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	an := analyze1D(t, prob.A, 4)
	f, _, err := an.FactorizeFanOut()
	if err != nil {
		t.Fatal(err)
	}
	x, b := gen.RHSForSolution(prob.A)
	got := solveOriginal(an, f, b)
	for i := range x {
		if d := got[i] - x[i]; d > 1e-8 || d < -1e-8 {
			t.Fatalf("x[%d]=%g want %g", i, got[i], x[i])
		}
	}
}
