package solver

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/trace"
)

// TestTraceCoversSchedule runs a traced factorization under both runtimes
// and checks the recorder holds exactly one task event per schedule task,
// and that the divergence report's per-processor busy times equal the sums
// of the recorded task durations.
func TestTraceCoversSchedule(t *testing.T) {
	a := gen.Laplacian3D(8, 8, 8)
	for _, rt := range []Runtime{RuntimeMPSim, RuntimeShared} {
		shared := rt == RuntimeShared
		t.Run(rt.String(), func(t *testing.T) {
			an := analyzeFor(t, a, 4)
			rec := trace.New(4, 0)
			_, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A,
				ParOptions{Runtime: rt, Trace: rec})
			if err != nil {
				t.Fatal(err)
			}
			tasks := taskEvents(rec)
			if len(tasks) != len(an.Sched.Tasks) {
				t.Fatalf("traced %d tasks, schedule has %d", len(tasks), len(an.Sched.Tasks))
			}
			rp, err := trace.CompareOpts(an.Sched, rec, trace.CompareOptions{})
			if err != nil {
				t.Fatal(err)
			}
			busy := make([]float64, 4)
			for _, e := range tasks {
				busy[e.Proc] += (e.End - e.Start).Seconds()
			}
			for p := range rp.Procs {
				if math.Abs(rp.Procs[p].MeasBusy-busy[p]) > 1e-12 {
					t.Fatalf("proc %d: report busy %g != summed task durations %g",
						p, rp.Procs[p].MeasBusy, busy[p])
				}
			}
			if rp.MeasuredMakespan <= 0 {
				t.Fatalf("measured makespan %g, want > 0", rp.MeasuredMakespan)
			}
			if shared {
				if rp.MsgsSent != 0 {
					t.Fatalf("shared runtime sent %d messages, want 0", rp.MsgsSent)
				}
			} else if rp.MsgsSent == 0 {
				t.Fatal("mpsim runtime recorded no messages")
			}
		})
	}
}

// TestTraceSpillEvents checks the fan-both memory bound shows up as spill
// events in the trace.
func TestTraceSpillEvents(t *testing.T) {
	a := gen.Laplacian3D(8, 8, 8)
	an := analyzeFor(t, a, 4)
	rec := trace.New(4, 0)
	_, stats, err := FactorizeParStats(an.A, an.Sched,
		ParOptions{MaxAUBBytes: 1, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := trace.CompareOpts(an.Sched, rec, trace.CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages > stats.PredictedMessages && rp.SpillCount == 0 {
		t.Fatalf("fan-both sent %d > %d predicted messages but recorded no spills",
			stats.Messages, stats.PredictedMessages)
	}
}

// waitGoroutines polls until the goroutine count drops back to at most base,
// tolerating the runtime's own background goroutines.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFactorizeCtxPreCancelled: an already-cancelled context aborts before
// any work starts, under both runtimes, without leaking goroutines.
func TestFactorizeCtxPreCancelled(t *testing.T) {
	a := laplacian2D(15, 15)
	an := analyzeFor(t, a, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := runtime.NumGoroutine()
	for _, rt := range []Runtime{RuntimeMPSim, RuntimeShared} {
		_, err := an.FactorizeMatrixOptsCtx(ctx, an.A, ParOptions{Runtime: rt})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: got %v, want context.Canceled", rt, err)
		}
	}
	waitGoroutines(t, base)
}

// TestFactorizeCtxCancelMidRun cancels concurrently with the run: the call
// must return (no deadlock with receivers blocked in Recv or workers parked
// on a dependency) and report context.Canceled unless it already finished,
// with all worker goroutines unwound either way.
func TestFactorizeCtxCancelMidRun(t *testing.T) {
	a := gen.Laplacian3D(10, 10, 10)
	for _, rt := range []Runtime{RuntimeMPSim, RuntimeShared} {
		an := analyzeFor(t, a, 4)
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(200 * time.Microsecond)
			cancel()
		}()
		_, err := an.FactorizeMatrixOptsCtx(ctx, an.A, ParOptions{Runtime: rt})
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: got %v, want nil or context.Canceled", rt, err)
		}
		cancel()
		waitGoroutines(t, base+1) // +1 tolerates the exiting cancel goroutine
	}
}

// TestSolveCtxPreCancelled covers the parallel solve engine.
func TestSolveCtxPreCancelled(t *testing.T) {
	a := laplacian2D(15, 15)
	an := analyzeFor(t, a, 4)
	f, _, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, an.A.N)
	for i := range b {
		b[i] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveLevelCtx(ctx, an.SolvePlanFor(4), f, b, LevelOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveLevelCtx: got %v, want context.Canceled", err)
	}
}

// TestTracedSolvePhases checks the level-set solve records forward/backward
// phase events for every worker.
func TestTracedSolvePhases(t *testing.T) {
	a := laplacian2D(15, 15)
	an := analyzeFor(t, a, 4)
	f, _, err := FactorizeParStats(an.A, an.Sched, ParOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, an.A.N)
	for i := range b {
		b[i] = 1
	}
	rec := trace.New(4, 0)
	if _, err := SolveLevelCtx(context.Background(), an.SolvePlanFor(4), f, b, LevelOptions{Trace: rec}); err != nil {
		t.Fatal(err)
	}
	var phases int
	for _, e := range rec.Events() {
		if e.Kind == trace.KindPhase && (e.Aux == trace.PhaseForward || e.Aux == trace.PhaseBackward) {
			phases++
		}
	}
	if phases != 2*4 {
		t.Fatalf("got %d phase events, want %d (fwd+bwd per worker)", phases, 2*4)
	}
}

// taskEvents returns rec's KindTask events.
func taskEvents(rec *trace.Recorder) []trace.Event {
	var out []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == trace.KindTask {
			out = append(out, e)
		}
	}
	return out
}
