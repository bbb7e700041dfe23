package solver

import (
	"fmt"
	"slices"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/mpsim"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
)

// Fan-out factorization: the classical column-based alternative the paper's
// fan-in scheme is contrasted against (Ashcraft-Eisenstat-Liu's comparison of
// column-based schemes, the paper's refs [3,4]). The OWNER of a column block
// factors it and broadcasts the factored diagonal block with the panel W to
// every processor owning a column block it updates; updates are computed on
// the RECEIVING side. No aggregation happens, so communication volume is
// the panel size times its remote consumer count — the trade-off that
// motivates fan-in with AUBs.
//
// Column blocks are wholly owned by their diagonal-task processor (use a
// 1D-only schedule for a faithful comparison). Each processor is
// left-looking over its own cells: before factoring cell k it pulls the
// updates into k from the schedule's static lists (sched.Schedule.Pulls),
// those of its COMP1D task, or of its FACTOR and then each BDIV, through the
// kernel layer (W = L·D with 1/D). Each list is in the sequential
// reference's order and the regions are disjoint, so every element takes
// its updates in that order, and the factor is FactorizeSeq's bit for bit
// at every P, whatever order the panels arrive in.

const msgPanel int8 = 20 // factored panel of a cell: Tag = cell

// FactorizeFanOut runs the fan-out LDLᵀ factorization of the analysed
// matrix on its schedule's goroutine processors and reports its
// communication statistics (compare with FactorizeParStatsCtx for the fan-in
// volume).
func (an *Analysis) FactorizeFanOut() (*Factors, CommStats, error) {
	a, sch, sym, pulls := an.A, an.Sched, an.Sym, an.taskPulls()
	P := sch.P
	ncb := sym.NumCB()

	// into[k]: the tasks whose regions tile cell k, in the order their
	// updates are applied. owner[k]: the processor factoring k.
	// sendSet[i]: the distinct remote processors owning a cell that i
	// updates.
	into := make([][]int, ncb)
	owner := make([]int, ncb)
	sendSet := make([][]int, ncb)
	for k := range into {
		if sch.Comp1DOf[k] >= 0 {
			into[k] = sch.Comp1DOf[k : k+1]
		} else {
			into[k] = append([]int{sch.FactorOf[k]}, sch.BDivOf[k]...)
		}
		owner[k] = sch.Tasks[into[k][0]].Proc
		for _, id := range into[k] {
			for _, r := range pulls.Of(id) { // sources precede k: owned already
				if q := owner[k]; q != owner[r.Src] && !slices.Contains(sendSet[r.Src], q) {
					sendSet[r.Src] = append(sendSet[r.Src], q)
				}
			}
		}
	}

	stores := make([]*Storage[float64], P)
	comm := mpsim.NewComm(P)
	runErr := comm.Run(func(p int) error {
		f := newStorage[float64](sym, false)
		stores[p] = f
		// A remote source's received W sits in its cell slot of f until
		// uses, its count of runs into p's cells still to apply, reaches 0.
		// invd[i] is 1/D of source i while its W is here.
		uses := make([]int, ncb)
		invd := make([][]float64, ncb)
		for k := range owner {
			if owner[k] != p {
				continue
			}
			if err := f.AssembleCell(a, k, 0, a.N); err != nil {
				return err
			}
			for _, id := range into[k] {
				for _, r := range pulls.Of(id) {
					if owner[r.Src] != p {
						uses[r.Src]++
					}
				}
			}
		}
		for k := range owner {
			if owner[k] != p {
				continue
			}
			for _, id := range into[k] {
				for _, r := range pulls.Of(id) {
					i := r.Src
					for f.Data[i] == nil {
						m, err := comm.Recv(p)
						if err != nil {
							return err
						}
						if m.Kind != msgPanel {
							return fmt.Errorf("solver: fan-out got message kind %d", m.Kind)
						}
						f.Data[m.Tag] = m.Data
					}
					if invd[i] == nil {
						invd[i] = invert(f.Diag(int(i)))
					}
					if err := applyRun(f, r, f.Data[i], invd[i]); err != nil {
						return err
					}
					if owner[i] != p {
						if uses[i]--; uses[i] == 0 {
							f.Data[i], invd[i] = nil, nil
						}
					}
				}
			}
			if _, err := f.FactorDiagStatic(k, 0); err != nil {
				return err
			}
			f.SolvePanel(k)
			// Broadcast the factored diagonal block with the unscaled W.
			if len(sendSet[k]) > 0 {
				buf := slices.Clone(f.Data[k])
				for _, q := range sendSet[k] {
					comm.Send(mpsim.Message{Kind: msgPanel, Src: p, Dst: q, Tag: k, Data: buf})
				}
			}
		}
		for k := range owner {
			if owner[k] == p {
				f.ScalePanel(k, f.Diag(k))
			}
		}
		return nil
	})
	msgs, bytes, inflight := comm.Stats()
	stats := CommStats{Messages: msgs, Bytes: bytes, MaxInFlight: inflight}
	for i := 0; i < ncb; i++ {
		stats.PredictedMessages += int64(len(sendSet[i]))
	}
	if runErr != nil {
		return nil, stats, runErr
	}
	g := newStorage[float64](sym, false)
	for k := 0; k < ncb; k++ {
		g.Data[k] = stores[owner[k]].Data[k]
	}
	return realFactors(g, StaticPivot{}, 0, nil), stats, nil
}

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

// BenchmarkFanInVsFanOut times both message drivers on one schedule and
// reports each one's message count and volume.
func BenchmarkFanInVsFanOut(b *testing.B) {
	if testing.Short() {
		b.Skip("heavy benchmark; run without -short")
	}
	prob, err := gen.Generate("BMWCRA1", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	an, err := Analyze(prob.A, Options{P: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("FanIn", func(b *testing.B) {
		var st CommStats
		for i := 0; i < b.N; i++ {
			_, st, err = FactorizeParStats(an.A, an.Sched, ParOptions{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.Messages), "msgs")
		b.ReportMetric(float64(st.Bytes), "bytes")
	})
	b.Run("FanOut", func(b *testing.B) {
		var st CommStats
		for i := 0; i < b.N; i++ {
			_, st, err = an.FactorizeFanOut()
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.Messages), "msgs")
		b.ReportMetric(float64(st.Bytes), "bytes")
	})
}
