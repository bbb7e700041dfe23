package pastix

import (
	"context"
	"io"
	"time"

	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/trace"
)

// TraceOptions configures execution tracing.
type TraceOptions struct {
	// Buffer is the per-processor event-buffer capacity hint (events, not
	// bytes). Zero or less selects a default: a factorization trace derives
	// it from the schedule so the common case never reallocates mid-run; a
	// solve trace, which records only each worker's sweep and barrier
	// events, takes the recorder's default of 1024 events.
	Buffer int
}

// Trace holds the events recorded during one traced factorization (and any
// traced solves run against it): per-task execution intervals, message
// traffic, aggregation-buffer spills and runtime phases. It is not safe for
// use before the traced call has returned.
type Trace struct {
	rec *trace.Recorder
	sch *sched.Schedule
	// free marks a trace from the work-stealing policy of the shared-memory
	// executor (RuntimeDynamic): tasks ran on whichever worker won them, so
	// divergence reports compare with trace.CompareOptions.FreeMapping
	// instead of erroring on the task→processor mismatch. The pinned policy
	// (RuntimeShared) runs every task on its scheduled processor and is
	// compared strictly.
	free bool
}

// FactorizeTraced is FactorizeContext with execution tracing: the numerical
// factorization runs with a recorder attached (both the message-passing and
// the shared-memory runtime are instrumented) and the recorded events are
// returned alongside the factor. On one processor the schedule-driven
// runtime is used instead of the plain sequential code so every schedule
// task still gets an event.
func (an *Analysis) FactorizeTraced(ctx context.Context, topts TraceOptions) (*Factor, *Trace, error) {
	return an.factorizeTraced(ctx, an.inner.A, topts)
}

// FactorizeValuesTraced is FactorizeValues with execution tracing: it
// factorizes a matrix sharing the analysed pattern (ErrPatternMismatch
// otherwise) and returns the recorded events alongside the factor, so a
// serving layer reusing one analysis across many factorizations can feed
// each run's Trace.Summary into its metrics.
func (an *Analysis) FactorizeValuesTraced(ctx context.Context, a *Matrix, topts TraceOptions) (*Factor, *Trace, error) {
	pa, err := permuteSamePattern(an, a)
	if err != nil {
		return nil, nil, err
	}
	return an.factorizeTraced(ctx, pa, topts)
}

func (an *Analysis) factorizeTraced(ctx context.Context, pa *Matrix, topts TraceOptions) (*Factor, *Trace, error) {
	sch := an.inner.Sched
	cap := topts.Buffer
	if cap <= 0 {
		// Tasks plus their message and phase events, split across processors.
		cap = 4*len(sch.Tasks)/sch.P + 64
	}
	rec := trace.New(sch.P, cap)
	popts := an.parOpts()
	popts.Trace = rec
	f, err := an.inner.FactorizeMatrixOptsCtx(ctx, pa, popts)
	if err != nil {
		return nil, nil, err
	}
	return an.newFactor(f, pa),
		&Trace{rec: rec, sch: sch, free: an.runtime == RuntimeDynamic}, nil
}

// SolveParallelTraced is SolveOpts with default options recording the
// solve's phase events into tr (typically the trace of the factorization the
// factor came from), so one trace file can show the whole run. The solve
// sends no messages: its events are each worker's forward and backward sweep
// and its barrier waits.
func (an *Analysis) SolveParallelTraced(ctx context.Context, f *Factor, b []float64, tr *Trace) ([]float64, error) {
	var rec *trace.Recorder
	if tr != nil {
		rec = tr.rec
	}
	res, err := an.solveOpts(ctx, f, b, SolveOptions{}, rec)
	if err != nil {
		return nil, err
	}
	return res.X, nil
}

// WriteChromeTrace writes the recorded events in the Chrome trace-event JSON
// format: open the file at chrome://tracing or https://ui.perfetto.dev. Each
// virtual processor is one timeline row; tasks and phases are duration
// events, messages and spills instant events.
func (t *Trace) WriteChromeTrace(w io.Writer) error { return t.rec.WriteChromeTrace(w) }

// WriteReport writes the human-readable predicted-vs-actual divergence
// report: makespans, model error, load balance, critical path and traffic.
// It fails if the trace does not cover every schedule task (e.g. the run was
// cancelled).
func (t *Trace) WriteReport(w io.Writer) error {
	rp, err := trace.CompareOpts(t.sch, t.rec, trace.CompareOptions{FreeMapping: t.free})
	if err != nil {
		return err
	}
	return rp.Write(w)
}

// TraceSummary is the machine-readable digest of a traced execution joined
// against the static schedule that drove it.
type TraceSummary struct {
	Processors int
	Tasks      int // schedule tasks traced (all of them)

	// PredictedMakespan is the schedule's modelled parallel time in the cost
	// model's seconds; MeasuredMakespan is the wall-clock span from the first
	// task start to the last task end.
	PredictedMakespan float64
	MeasuredMakespan  time.Duration

	// TimeScale converts modelled seconds to this host's wall seconds
	// (measured total busy / modelled total busy).
	TimeScale float64

	// MeanAbsModelError and MaxAbsModelError summarise how much each task's
	// measured duration deviates from its modelled one after rescaling
	// (0.25 = 25% off), duration-weighted and worst-case; WorstTask attains
	// the maximum.
	MeanAbsModelError float64
	MaxAbsModelError  float64
	WorstTask         int

	// ModelImbalance and MeasuredImbalance are max/mean busy time across
	// processors, as scheduled and as executed.
	ModelImbalance    float64
	MeasuredImbalance float64

	// Traffic observed by the runtime (zero under the shared-memory runtime).
	Messages   int64
	Bytes      int64
	Spills     int64
	SpillBytes int64

	// Fault-injection observables (all zero on a fault-free run):
	// FaultEvents counts every recorded KindFault event (injected drops,
	// duplicates, delays, crashes, stalls, plus recovery actions); Resends and
	// Restarts single out the reliability layer's retransmissions and worker
	// restarts.
	FaultEvents int64
	Resends     int64
	Restarts    int64
	// Perturbations counts the static-pivot substitutions recorded during the
	// traced factorization (KindPivot instants; 0 unless Options.StaticPivot
	// is enabled and the matrix needed them).
	Perturbations int64
}

// Summary computes the divergence digest. It fails if the trace does not
// cover every schedule task.
func (t *Trace) Summary() (TraceSummary, error) {
	rp, err := trace.CompareOpts(t.sch, t.rec, trace.CompareOptions{FreeMapping: t.free})
	if err != nil {
		return TraceSummary{}, err
	}
	ts := TraceSummary{
		Processors:        rp.P,
		Tasks:             len(rp.Tasks),
		PredictedMakespan: rp.PredictedMakespan,
		MeasuredMakespan:  time.Duration(rp.MeasuredMakespan * float64(time.Second)),
		TimeScale:         rp.TimeScale,
		MeanAbsModelError: rp.MeanAbsNormError,
		MaxAbsModelError:  rp.MaxAbsNormError,
		WorstTask:         rp.WorstTask,
		ModelImbalance:    rp.ModelImbalance,
		MeasuredImbalance: rp.MeasImbalance,
		Messages:          rp.MsgsSent,
		Bytes:             rp.BytesSent,
		Spills:            rp.SpillCount,
		SpillBytes:        rp.SpillBytes,
	}
	for id, n := range t.rec.FaultCounts() {
		ts.FaultEvents += n
		switch id {
		case trace.FaultResend:
			ts.Resends = n
		case trace.FaultRestart:
			ts.Restarts = n
		}
	}
	ts.Perturbations = t.rec.KindCount(trace.KindPivot)
	return ts, nil
}
