// Package trace records what the parallel runtimes actually did — per-task
// execution intervals, message traffic, aggregation-buffer spills, solve
// phases — so an executed factorization can be compared against the static
// schedule that drove it. The paper's contribution is a schedule computed
// from a calibrated cost model; this package is the instrument that shows
// where the model and the machine disagree.
//
// Recording is designed to be cheap enough to leave compiled into the hot
// paths: each virtual processor appends to its own pre-grown buffer (no
// locks, no allocation in the common case), events are plain structs of
// integers, and every call site is behind a nil-recorder check so the
// disabled path costs a single pointer comparison.
//
// Two consumers are provided: WriteChromeTrace emits the Chrome trace-event
// JSON format (load chrome://tracing or https://ui.perfetto.dev), and
// CompareOpts joins the events against a sched.Schedule into a
// predicted-vs-actual divergence Report.
package trace

import (
	"sort"
	"sync"
	"time"

	"github.com/pastix-go/pastix/internal/sched"
)

// Kind classifies events.
type Kind uint8

const (
	// KindTask is the execution interval of one schedule task (kernel time,
	// excluding the wait for its inputs).
	KindTask Kind = iota
	// KindSend is a message leaving a processor (instant; Bytes = payload).
	KindSend
	// KindRecv is a message arriving at a processor (instant; Bytes = payload).
	KindRecv
	// KindSpill is a fan-both AUB spill: an aggregation buffer sent early to
	// free memory (instant; Bytes = buffer size freed).
	KindSpill
	// KindPhase is a named runtime phase interval (assembly, panel scaling,
	// forward/backward solve sweep).
	KindPhase
	// KindFault is a fault-injection or reliability-layer event (instant):
	// an injected drop/duplicate/delay, a worker crash or stall, a resend by
	// the retry machinery, or a supervisor restart. Aux holds the Fault* id.
	KindFault
	// KindPivot is a static-pivot perturbation (instant): the numerical
	// factorization substituted a below-threshold diagonal pivot. Task holds
	// the global column (permuted ordering), Cell the column block.
	KindPivot
)

// Fault identifiers for KindFault events (stored in the Aux field).
const (
	// FaultDrop: a wire transmission was lost by the injector.
	FaultDrop int8 = iota
	// FaultDup: an extra copy of a message was delivered.
	FaultDup
	// FaultDelay: a delivery was held back.
	FaultDelay
	// FaultResend: the reliability layer retransmitted an unacknowledged
	// message (Task = sequence number, Bytes = payload).
	FaultResend
	// FaultCrash: a worker crashed at a task boundary (Task = step).
	FaultCrash
	// FaultStall: a worker entered an injected stall window (Task = step,
	// Bytes = planned stall nanoseconds).
	FaultStall
	// FaultStallBroken: the heartbeat supervisor declared a stalled worker
	// dead and broke its stall.
	FaultStallBroken
	// FaultRestart: the supervisor restarted a crashed/stalled worker, which
	// replays its task vector from its completion log (Task = restart count).
	FaultRestart
)

// faultNames maps Fault* ids to display names.
var faultNames = [...]string{"drop", "dup", "delay", "resend", "crash", "stall", "stall-broken", "restart"}

// Phase identifiers for KindPhase events (stored in the Aux field).
const (
	PhaseAssemble int8 = iota
	PhaseScale
	PhaseForward
	PhaseBackward
	// PhaseBarrier is the time a level-set solve worker spent blocked in a
	// step barrier.
	PhaseBarrier
)

// phaseNames maps Phase* ids to display names.
var phaseNames = [...]string{"assemble", "scale", "solve-forward", "solve-backward", "solve-barrier-wait"}

// Event is one recorded observation. All times are monotonic durations since
// the recorder's epoch.
type Event struct {
	Proc int32 // virtual processor
	Kind Kind
	// Aux is Kind-dependent: the sched.TaskType for KindTask, the runtime
	// message kind for KindSend/KindRecv, the Phase* id for KindPhase.
	Aux        int8
	Task       int32 // schedule task id (or message tag); -1 when not task-bound
	Cell, S, T int32 // symbol coordinates for KindTask; -1 otherwise
	Start, End time.Duration
	Bytes      int64 // payload/buffer bytes for comm and spill events
}

// procBuf is one processor's private event buffer. Buffers are allocated
// separately (behind pointers) so concurrent appends on different processors
// do not false-share.
type procBuf struct {
	ev []Event
}

// Recorder collects events from P virtual processors. Each processor must
// append only to its own index; with that contract all methods except the
// read-side (Events, WriteChromeTrace, CompareOpts) are safe for concurrent use.
// A nil *Recorder is a valid "tracing off" value: callers guard every record
// with a nil check.
type Recorder struct {
	epoch time.Time
	procs []*procBuf

	// aux collects events recorded from goroutines that are not a virtual
	// processor (the fault supervisor, resend timers, delayed-delivery
	// timers). It is mutex-protected — fault events are rare, so the lock is
	// never on a hot path.
	auxMu sync.Mutex
	aux   []Event
}

// New returns a Recorder for p processors with per-processor buffers grown
// to cap events (default 1024 when cap <= 0). The epoch is set at creation;
// all event times are relative to it.
func New(p, cap int) *Recorder {
	if cap <= 0 {
		cap = 1024
	}
	r := &Recorder{epoch: time.Now(), procs: make([]*procBuf, p)}
	for i := range r.procs {
		r.procs[i] = &procBuf{ev: make([]Event, 0, cap)}
	}
	return r
}

// P returns the processor count the recorder was created for.
func (r *Recorder) P() int { return len(r.procs) }

// Now returns the current monotonic offset from the recorder's epoch.
func (r *Recorder) Now() time.Duration { return time.Since(r.epoch) }

// Task records the execution interval of schedule task id on processor p.
func (r *Recorder) Task(p, id int, tt sched.TaskType, cell, s, t int, start, end time.Duration) {
	b := r.procs[p]
	b.ev = append(b.ev, Event{
		Proc: int32(p), Kind: KindTask, Aux: int8(tt),
		Task: int32(id), Cell: int32(cell), S: int32(s), T: int32(t),
		Start: start, End: end,
	})
}

// Comm records a send or receive on processor p. kind is the runtime's
// message taxonomy value, tag its routing key.
func (r *Recorder) Comm(p int, k Kind, msgKind int8, tag int, bytes int64) {
	at := r.Now()
	b := r.procs[p]
	b.ev = append(b.ev, Event{
		Proc: int32(p), Kind: k, Aux: msgKind, Task: int32(tag),
		Cell: -1, S: -1, T: -1, Start: at, End: at, Bytes: bytes,
	})
}

// Spill records a fan-both aggregation-buffer spill on processor p for the
// destination task dt.
func (r *Recorder) Spill(p, dt int, bytes int64) {
	at := r.Now()
	b := r.procs[p]
	b.ev = append(b.ev, Event{
		Proc: int32(p), Kind: KindSpill, Task: int32(dt),
		Cell: -1, S: -1, T: -1, Start: at, End: at, Bytes: bytes,
	})
}

// Pivot records a static-pivot perturbation on processor p: the diagonal
// pivot of global column col (permuted ordering) fell below the threshold
// and was substituted (instant).
func (r *Recorder) Pivot(p, col int) {
	at := r.Now()
	b := r.procs[p]
	b.ev = append(b.ev, Event{
		Proc: int32(p), Kind: KindPivot, Task: int32(col),
		Cell: -1, S: -1, T: -1, Start: at, End: at,
	})
}

// KindCount counts recorded events of kind k across every processor buffer
// and the auxiliary buffer. Call only after the traced run finished.
func (r *Recorder) KindCount(k Kind) int64 {
	var n int64
	for _, b := range r.procs {
		for i := range b.ev {
			if b.ev[i].Kind == k {
				n++
			}
		}
	}
	r.auxMu.Lock()
	for i := range r.aux {
		if r.aux[i].Kind == k {
			n++
		}
	}
	r.auxMu.Unlock()
	return n
}

// Phase records a named runtime phase interval on processor p.
func (r *Recorder) Phase(p int, phase int8, start, end time.Duration) {
	b := r.procs[p]
	b.ev = append(b.ev, Event{
		Proc: int32(p), Kind: KindPhase, Aux: phase, Task: -1,
		Cell: -1, S: -1, T: -1, Start: start, End: end,
	})
}

// Fault records a fault-injection or reliability event attributed to
// processor p. Unlike the other record methods it may be called from any
// goroutine (supervisor, resend and delivery timers), so it goes through the
// locked auxiliary buffer rather than p's single-writer buffer.
func (r *Recorder) Fault(p int, fault int8, tag int, bytes int64) {
	at := r.Now()
	r.auxMu.Lock()
	r.aux = append(r.aux, Event{
		Proc: int32(p), Kind: KindFault, Aux: fault, Task: int32(tag),
		Cell: -1, S: -1, T: -1, Start: at, End: at, Bytes: bytes,
	})
	r.auxMu.Unlock()
}

// FaultCounts tallies the recorded KindFault events by Fault* id.
func (r *Recorder) FaultCounts() map[int8]int64 {
	out := make(map[int8]int64)
	r.auxMu.Lock()
	for i := range r.aux {
		if r.aux[i].Kind == KindFault {
			out[r.aux[i].Aux]++
		}
	}
	r.auxMu.Unlock()
	return out
}

// Events returns every recorded event merged across processors, ordered by
// start time (ties by processor). Call only after the traced run finished.
func (r *Recorder) Events() []Event {
	n := 0
	for _, b := range r.procs {
		n += len(b.ev)
	}
	r.auxMu.Lock()
	out := make([]Event, 0, n+len(r.aux))
	out = append(out, r.aux...)
	r.auxMu.Unlock()
	for _, b := range r.procs {
		out = append(out, b.ev...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}
