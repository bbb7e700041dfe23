package solver

import (
	"context"
	"fmt"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
)

// FactorizeParStats runs the message-passing fan-in runtime (what
// RuntimeMPSim dispatches to) on sch.P goroutine processors and returns the
// gathered factor with the communication statistics the product path
// discards.
func FactorizeParStats(a *sparse.SymMatrix, sch *sched.Schedule, popts ParOptions) (*Factors, CommStats, error) {
	tau, normMax := pivotThreshold(popts.Pivot, a)
	f, perts, stats, err := factorizePar(context.Background(), a, sch, popts, tau)
	if err != nil {
		return nil, stats, err
	}
	return realFactors(f, popts.Pivot, normMax, perts), stats, nil
}

// The executed fan-in protocol must send exactly the messages the static
// schedule implies: one AUB per (source processor, destination task) pair,
// one diagonal-block transfer per remote BDIV consumer group, one panel
// transfer per remote BMOD consumer group.
func TestExecutedMessagesMatchPrediction(t *testing.T) {
	for _, name := range []string{"QUER", "THREAD"} {
		p, err := gen.Generate(name, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		for _, P := range []int{2, 4, 8} {
			an := analyzeFor(t, p.A, P)
			_, st, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, P, err)
			}
			if st.Messages != st.PredictedMessages {
				t.Fatalf("%s P=%d: sent %d messages, schedule predicts %d",
					name, P, st.Messages, st.PredictedMessages)
			}
			if st.Messages > 0 && st.Bytes == 0 {
				t.Fatalf("%s P=%d: messages without payload", name, P)
			}
		}
	}
}

// Fan-both spilling may only add messages, never lose any.
func TestFanBothSendsMoreMessages(t *testing.T) {
	p, err := gen.Generate("QUER", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	an := analyzeFor(t, p.A, 4)
	_, pure, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, both, err := FactorizeParStats(an.A, an.Sched, ParOptions{MaxAUBBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if both.Messages < pure.Messages {
		t.Fatalf("fan-both sent fewer messages (%d) than fan-in (%d)", both.Messages, pure.Messages)
	}
	if pure.Messages != pure.PredictedMessages {
		t.Fatalf("fan-in count %d != prediction %d", pure.Messages, pure.PredictedMessages)
	}
}

func TestSingleProcNoMessages(t *testing.T) {
	a := laplacian2D(10, 10)
	an := analyzeFor(t, a, 1)
	_, st, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != 0 || st.Bytes != 0 {
		t.Fatalf("sequential run sent %d messages", st.Messages)
	}
	_ = gen.Names // keep the import used if the test shrinks
}

// BenchmarkSharedVsMpsim times the executed factorization of a 3D Poisson
// problem under the two runtimes at each processor count: the mpsim
// message-passing runtime pays for packing, copying and the final gather;
// the shared-memory runtime aggregates in place. Message volume is attached
// to the mpsim rows as custom metrics.
func BenchmarkSharedVsMpsim(b *testing.B) {
	a := gen.Laplacian3D(12, 12, 12)
	for _, p := range []int{1, 2, 4, 8} {
		an, err := Analyze(a, Options{
			P:    p,
			Part: part.Options{BlockSize: 16, Ratio2D: 2, MinWidth2D: 8},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Mpsim/P%d", p), func(b *testing.B) {
			var st CommStats
			for i := 0; i < b.N; i++ {
				if _, st, err = FactorizeParStats(an.A, an.Sched, ParOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Messages), "msgs")
			b.ReportMetric(float64(st.Bytes), "bytes")
		})
		b.Run(fmt.Sprintf("Shared/P%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := an.FactorizeOpts(ParOptions{Runtime: RuntimeShared}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
