// Package mpsim provides the message-passing runtime substituting for MPI on
// the paper's IBM SP2: P virtual processors run as goroutines and exchange
// typed messages through unbounded per-processor mailboxes. Message and byte
// counters give the experiments their communication-volume observables.
//
// Mailboxes are unbounded so the fan-in protocol can never deadlock on
// buffer space (MPI eager-mode semantics); ordering is FIFO per sender and
// receiver like MPI point-to-point.
//
// # Fault injection and the reliability layer
//
// By default the "wire" is perfect. EnableFaults attaches an Injector (see
// internal/faults) that may drop, duplicate or delay any transmission and
// crash or stall workers, and switches the communicator to a reliable
// protocol that restores exactly-once, per-sender-FIFO delivery on top of
// the lossy wire:
//
//   - every (src,dst) channel numbers its messages; the receiver admits them
//     in sequence order, holding early arrivals and discarding duplicates;
//   - each admission is acknowledged (acks ride the same lossy wire);
//   - a supervisor goroutine retransmits unacknowledged messages with
//     exponential backoff until a retry budget is exhausted (ErrFaultBudget),
//     monitors worker heartbeats to break injected stalls, and Run restarts
//     workers that crash (they replay from their completion logs).
//
// The fault-free path pays exactly one nil-injector check in Send and
// nothing in Recv.
package mpsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix/internal/trace"
)

// ErrClosed is returned by Recv when the communicator was shut down while
// waiting — typically because a peer failed. Run reports the peer's original
// error in preference to these secondary ones.
var ErrClosed = errors.New("mpsim: mailbox closed")

// ErrCrashed marks the error a worker returns to simulate a crash (or a
// stall that the heartbeat supervisor declared dead). Run restarts such
// workers instead of tearing the communicator down, up to the restart
// budget. Match with errors.Is.
var ErrCrashed = errors.New("mpsim: virtual processor crashed (injected fault)")

// ErrFaultBudget reports that the reliability layer gave up: a message
// exhausted its resend budget, or a worker its restart budget. The concrete
// error is a *BudgetError. Match with errors.Is.
var ErrFaultBudget = errors.New("mpsim: fault-recovery budget exhausted")

// BudgetError is the concrete error behind ErrFaultBudget.
type BudgetError struct {
	Op       string // "resend" or "restart"
	Proc     int    // sender (resend) or the crashing processor (restart)
	Dst      int    // receiver (resend only)
	Seq      int64  // channel sequence number (resend only)
	Attempts int
}

func (e *BudgetError) Error() string {
	if e.Op == "restart" {
		return fmt.Sprintf("mpsim: processor %d kept crashing: restart budget exhausted after %d restarts", e.Proc, e.Attempts)
	}
	return fmt.Sprintf("mpsim: message %d→%d seq %d still unacknowledged after %d attempts: retry budget exhausted", e.Proc, e.Dst, e.Seq, e.Attempts)
}

// Is makes errors.Is(err, ErrFaultBudget) succeed for BudgetError values.
func (e *BudgetError) Is(target error) bool { return target == ErrFaultBudget }

// Fate is an injector's verdict for one wire transmission.
type Fate struct {
	Drop     bool          // lose this transmission entirely
	Dup      bool          // deliver one extra copy (data messages only)
	Delay    time.Duration // hold the primary copy back before delivery
	DupDelay time.Duration // hold the duplicate copy back
}

// Injector decides the fate of wire transmissions and cooperates with the
// stall supervisor. Implementations must be safe for concurrent use and
// deterministic in FateOf's arguments (so a chaos run is reproducible from
// its seed). The canonical implementation is internal/faults.Injector.
type Injector interface {
	// FateOf judges transmission `attempt` (0 = first send) of the message
	// with channel sequence number seq from src to dst; ack selects the
	// acknowledgment leg (dst→src) of the protocol.
	FateOf(src, dst int, seq int64, attempt int, ack bool) Fate
	// BreakStall forces an injected stall on processor p to end by crashing
	// the stalled worker; it reports whether p was actually stalled (the
	// supervisor calls it on every heartbeat timeout, most of which are
	// workers legitimately blocked in Recv).
	BreakStall(p int) bool
}

// Reliability tunes the retry/timeout/recovery machinery. The zero value
// selects the documented defaults.
type Reliability struct {
	RTO           time.Duration // initial resend timeout (default 300µs)
	MaxRTO        time.Duration // backoff cap (default 5ms)
	RetryLimit    int           // resend attempts per message before ErrFaultBudget (default 30)
	RestartBudget int           // per-processor restarts before ErrFaultBudget (default 8)
	StallTimeout  time.Duration // heartbeat age at which a stalled worker is declared dead (default 10ms)
	Tick          time.Duration // supervisor scan interval (default 200µs)
}

func (r Reliability) withDefaults() Reliability {
	if r.RTO <= 0 {
		r.RTO = 300 * time.Microsecond
	}
	if r.MaxRTO <= 0 {
		r.MaxRTO = 5 * time.Millisecond
	}
	if r.RetryLimit <= 0 {
		r.RetryLimit = 30
	}
	if r.RestartBudget <= 0 {
		r.RestartBudget = 8
	}
	if r.StallTimeout <= 0 {
		r.StallTimeout = 10 * time.Millisecond
	}
	if r.Tick <= 0 {
		r.Tick = 200 * time.Microsecond
	}
	return r
}

// FaultStats reports the reliability layer's recovery activity (all zero on
// the fault-free path).
type FaultStats struct {
	Resends  int64 // retransmissions of unacknowledged messages
	Deduped  int64 // duplicate deliveries suppressed at admission
	Restarts int64 // crashed/stalled workers restarted by Run
}

// Message is the unit of communication.
type Message struct {
	Kind int8 // application-defined taxonomy
	Src  int  // sending processor
	Dst  int  // receiving processor
	Tag  int  // application-defined routing key (e.g. destination task id)
	Data []float64

	// seq is the reliability-layer sequence number on the (Src,Dst) channel;
	// meaningful only under fault injection.
	seq int64
}

// Comm connects P virtual processors.
type Comm struct {
	p        int
	boxes    []mailbox
	nMsgs    atomic.Int64
	nBytes   atomic.Int64
	maxInFly atomic.Int64
	inFlight atomic.Int64
	rec      *trace.Recorder

	// Reliability state; all nil/zero unless EnableFaults was called.
	inj      Injector
	cfg      Reliability
	seqs     []atomic.Int64 // next sequence number per (src,dst), src*p+dst
	outs     []outbox       // unacknowledged messages per (src,dst)
	beats    []atomic.Int64 // per-processor heartbeat (unix nanos)
	resends  atomic.Int64
	deduped  atomic.Int64
	restarts atomic.Int64
	budgetMu sync.Mutex
	budget   error // first budget exhaustion, reported by Run
}

// relSrc is a mailbox's admission state for one sender: next expected
// sequence number and early (out-of-order) arrivals held back.
type relSrc struct {
	next int64
	held map[int64]Message
}

type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool
	rel    []relSrc // per-sender admission state; non-nil only under faults
}

// pendMsg is one unacknowledged message awaiting ack or resend.
type pendMsg struct {
	m        Message
	attempts int
	deadline time.Time
	backoff  time.Duration
}

type outbox struct {
	mu   sync.Mutex
	pend map[int64]*pendMsg
}

// NewComm creates a communicator for p processors.
func NewComm(p int) *Comm {
	if p <= 0 {
		panic("mpsim: non-positive processor count")
	}
	c := &Comm{p: p, boxes: make([]mailbox, p)}
	for i := range c.boxes {
		c.boxes[i].cond = sync.NewCond(&c.boxes[i].mu)
	}
	return c
}

// P returns the number of processors.
func (c *Comm) P() int { return c.p }

// SetTrace attaches an execution-trace recorder: every Send and Recv is
// recorded as an instant event (message kind, tag, payload bytes) on the
// acting processor. Call before Run; a nil recorder disables recording.
func (c *Comm) SetTrace(rec *trace.Recorder) { c.rec = rec }

// EnableFaults attaches a fault injector and switches the communicator to
// the reliable protocol (sequence numbers, dedup, ack+resend, heartbeat
// supervision, worker restart). Call before Run; a nil injector is a no-op.
func (c *Comm) EnableFaults(inj Injector, cfg Reliability) {
	if inj == nil {
		return
	}
	c.inj = inj
	c.cfg = cfg.withDefaults()
	c.seqs = make([]atomic.Int64, c.p*c.p)
	c.outs = make([]outbox, c.p*c.p)
	c.beats = make([]atomic.Int64, c.p)
	for i := range c.boxes {
		c.boxes[i].rel = make([]relSrc, c.p)
	}
}

// Heartbeat stamps processor p alive. Workers call it at task boundaries so
// the supervisor can tell an injected stall from normal progress. No-op
// without fault injection.
func (c *Comm) Heartbeat(p int) {
	if c.beats != nil {
		c.beats[p].Store(time.Now().UnixNano())
	}
}

// Send enqueues m into the destination mailbox. Data is NOT copied: the
// sender must not mutate it afterwards (same contract as MPI_Isend buffers).
func (c *Comm) Send(m Message) {
	if m.Dst < 0 || m.Dst >= c.p {
		panic(fmt.Sprintf("mpsim: send to processor %d of %d", m.Dst, c.p))
	}
	if m.Src == m.Dst {
		panic("mpsim: self-send; local work must not use the network")
	}
	c.nMsgs.Add(1)
	c.nBytes.Add(int64(len(m.Data)) * 8)
	if c.rec != nil {
		c.rec.Comm(m.Src, trace.KindSend, m.Kind, m.Tag, int64(len(m.Data))*8)
	}
	// Peak tracking must CAS: a bare Load+Store pair lets two senders both
	// observe a stale maximum and the larger in-flight count be overwritten,
	// under-reporting the peak.
	f := c.inFlight.Add(1)
	for {
		cur := c.maxInFly.Load()
		if f <= cur || c.maxInFly.CompareAndSwap(cur, f) {
			break
		}
	}
	if c.inj != nil {
		c.sendReliable(m)
		return
	}
	b := &c.boxes[m.Dst]
	b.mu.Lock()
	if b.closed {
		// The communicator is shutting down after a failure elsewhere; drop
		// the message so the sender can unwind and report its own state.
		b.mu.Unlock()
		c.inFlight.Add(-1)
		return
	}
	b.queue = append(b.queue, m)
	b.mu.Unlock()
	b.cond.Signal()
}

// sendReliable registers m in the sender's outbox (for ack tracking and
// resends) and attempts the first wire transmission.
func (c *Comm) sendReliable(m Message) {
	m.seq = c.seqs[m.Src*c.p+m.Dst].Add(1) - 1
	ob := &c.outs[m.Src*c.p+m.Dst]
	ob.mu.Lock()
	if ob.pend == nil {
		ob.pend = make(map[int64]*pendMsg)
	}
	ob.pend[m.seq] = &pendMsg{m: m, deadline: time.Now().Add(c.cfg.RTO), backoff: c.cfg.RTO}
	ob.mu.Unlock()
	c.wire(m, 0)
}

// wire performs one transmission attempt of m over the faulty medium.
func (c *Comm) wire(m Message, attempt int) {
	f := c.inj.FateOf(m.Src, m.Dst, m.seq, attempt, false)
	if f.Dup && !f.Drop {
		dup := m
		if f.DupDelay > 0 {
			time.AfterFunc(f.DupDelay, func() { c.deliver(dup) })
		} else {
			c.deliver(dup)
		}
	}
	if f.Drop {
		return
	}
	if f.Delay > 0 {
		time.AfterFunc(f.Delay, func() { c.deliver(m) })
		return
	}
	c.deliver(m)
}

// deliver runs the receiver-side admission protocol: duplicates (by channel
// sequence number) are suppressed, early arrivals are held until the gap
// fills, in-sequence messages enter the application queue — restoring
// exactly-once, per-sender-FIFO semantics on the lossy wire. Every receipt
// is (re-)acknowledged so lost acks cannot stall the sender forever.
func (c *Comm) deliver(m Message) {
	b := &c.boxes[m.Dst]
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	rs := &b.rel[m.Src]
	admitted := false
	switch {
	case m.seq < rs.next:
		c.deduped.Add(1) // already admitted; the ack below re-covers a lost ack
	case m.seq == rs.next:
		b.queue = append(b.queue, m)
		rs.next++
		for {
			h, ok := rs.held[rs.next]
			if !ok {
				break
			}
			delete(rs.held, rs.next)
			b.queue = append(b.queue, h)
			rs.next++
		}
		admitted = true
	default:
		if rs.held == nil {
			rs.held = make(map[int64]Message)
		}
		if _, dup := rs.held[m.seq]; dup {
			c.deduped.Add(1)
		} else {
			rs.held[m.seq] = m
		}
	}
	b.mu.Unlock()
	if admitted {
		b.cond.Signal()
	}
	c.ackWire(m.Dst, m.Src, m.seq)
}

// ackWire acknowledges seq back to the sender; the ack rides the same faulty
// wire (it may be dropped or delayed, never duplicated — acks are idempotent
// anyway).
func (c *Comm) ackWire(from, to int, seq int64) {
	f := c.inj.FateOf(from, to, seq, 0, true)
	if f.Drop {
		return
	}
	fire := func() {
		ob := &c.outs[to*c.p+from]
		ob.mu.Lock()
		delete(ob.pend, seq)
		ob.mu.Unlock()
	}
	if f.Delay > 0 {
		time.AfterFunc(f.Delay, fire)
		return
	}
	fire()
}

// Recv blocks until a message for processor p arrives and returns it.
func (c *Comm) Recv(p int) (Message, error) {
	b := &c.boxes[p]
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.queue) == 0 {
		if b.closed {
			return Message{}, fmt.Errorf("mpsim: receive on %d: %w", p, ErrClosed)
		}
		b.cond.Wait()
	}
	m := b.queue[0]
	b.queue = b.queue[1:]
	c.inFlight.Add(-1)
	if c.rec != nil {
		c.rec.Comm(p, trace.KindRecv, m.Kind, m.Tag, int64(len(m.Data))*8)
	}
	return m, nil
}

// Close closes every mailbox, waking blocked receivers with an error.
// Call it after all processors have finished to catch protocol leaks.
func (c *Comm) Close() {
	for i := range c.boxes {
		b := &c.boxes[i]
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		b.cond.Broadcast()
	}
}

// Stats reports the total messages and bytes sent, and the peak number of
// in-flight messages. Under fault injection these count application-level
// sends exactly once — retransmissions and duplicates are in FaultStats.
func (c *Comm) Stats() (msgs, bytes, maxInFlight int64) {
	return c.nMsgs.Load(), c.nBytes.Load(), c.maxInFly.Load()
}

// FaultStats reports the reliability layer's recovery activity.
func (c *Comm) FaultStats() FaultStats {
	return FaultStats{Resends: c.resends.Load(), Deduped: c.deduped.Load(), Restarts: c.restarts.Load()}
}

// failBudget records the first budget exhaustion and tears the communicator
// down so every worker unwinds.
func (c *Comm) failBudget(err *BudgetError) {
	c.budgetMu.Lock()
	if c.budget == nil {
		c.budget = err
	}
	c.budgetMu.Unlock()
	c.Close()
}

// supervise is the reliability supervisor: it retransmits unacknowledged
// messages with exponential backoff (enforcing the retry budget) and breaks
// injected stalls whose worker heartbeat has gone stale.
func (c *Comm) supervise(stop <-chan struct{}) {
	t := time.NewTicker(c.cfg.Tick)
	defer t.Stop()
	type resend struct {
		m       Message
		attempt int
	}
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := time.Now()
		var due []resend
		for i := range c.outs {
			ob := &c.outs[i]
			ob.mu.Lock()
			for _, pm := range ob.pend {
				if now.Before(pm.deadline) {
					continue
				}
				pm.attempts++
				if pm.attempts > c.cfg.RetryLimit {
					m, n := pm.m, pm.attempts
					ob.mu.Unlock()
					c.failBudget(&BudgetError{Op: "resend", Proc: m.Src, Dst: m.Dst, Seq: m.seq, Attempts: n})
					return
				}
				pm.backoff *= 2
				if pm.backoff > c.cfg.MaxRTO {
					pm.backoff = c.cfg.MaxRTO
				}
				pm.deadline = now.Add(pm.backoff)
				due = append(due, resend{m: pm.m, attempt: pm.attempts})
			}
			ob.mu.Unlock()
		}
		for _, r := range due {
			c.resends.Add(1)
			if c.rec != nil {
				c.rec.Fault(r.m.Src, trace.FaultResend, int(r.m.seq), int64(len(r.m.Data))*8)
			}
			c.wire(r.m, r.attempt)
		}
		// Stall detection: a stale heartbeat alone is not proof of a stall (a
		// worker may be blocked in Recv waiting for a resend), so BreakStall
		// only acts on workers inside an injected stall window.
		cut := now.Add(-c.cfg.StallTimeout).UnixNano()
		for p := 0; p < c.p; p++ {
			if c.beats[p].Load() < cut && c.inj.BreakStall(p) {
				if c.rec != nil {
					c.rec.Fault(p, trace.FaultStallBroken, 0, 0)
				}
			}
		}
	}
}

// Run launches fn on each of the P processors and waits for completion. The
// first error (or panic, re-raised) is returned.
//
// Under fault injection Run is also the recovery supervisor: a worker
// returning an error matching ErrCrashed is restarted (fn is invoked again
// for the same p, on the same goroutine, so fn must be resumable from its
// own completion log) until its restart budget is exhausted; the resend
// supervisor runs for the duration of the call.
func (c *Comm) Run(fn func(p int) error) error {
	errs := make([]error, c.p)
	panics := make([]any, c.p)
	var stop chan struct{}
	if c.inj != nil {
		now := time.Now().UnixNano()
		for p := range c.beats {
			c.beats[p].Store(now)
		}
		stop = make(chan struct{})
		go c.supervise(stop)
	}
	var wg sync.WaitGroup
	for p := 0; p < c.p; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[p] = r
					c.Close() // unblock peers stuck in Recv
				}
			}()
			restarts := 0
			for {
				err := fn(p)
				if err != nil && c.inj != nil && errors.Is(err, ErrCrashed) {
					if restarts < c.cfg.RestartBudget {
						restarts++
						c.restarts.Add(1)
						c.Heartbeat(p)
						if c.rec != nil {
							c.rec.Fault(p, trace.FaultRestart, restarts, 0)
						}
						continue
					}
					err = &BudgetError{Op: "restart", Proc: p, Attempts: restarts}
				}
				errs[p] = err
				if err != nil {
					c.Close()
				}
				return
			}
		}(p)
	}
	wg.Wait()
	if stop != nil {
		close(stop)
	}
	for p, r := range panics {
		if r != nil {
			panic(fmt.Sprintf("mpsim: processor %d panicked: %v", p, r))
		}
	}
	// Prefer a root-cause error: a worker's own failure first, then a
	// reliability budget exhaustion, then the secondary closed-mailbox
	// errors the shutdown broadcast induces on the other processors.
	c.budgetMu.Lock()
	budgetErr := c.budget
	c.budgetMu.Unlock()
	var closedErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		switch {
		case errors.Is(err, ErrClosed):
			if closedErr == nil {
				closedErr = err
			}
		case errors.Is(err, ErrFaultBudget):
			if budgetErr == nil {
				budgetErr = err
			}
		default:
			return err
		}
	}
	if budgetErr != nil {
		return budgetErr
	}
	return closedErr
}
