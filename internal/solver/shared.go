package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/trace"
)

// This file implements the shared-memory execution of the static schedule:
// the same per-processor K_p task vectors as FactorizePar, but over ONE
// shared Factors storage instead of mpsim message copies. AUBs, solved
// panels and diagonal blocks are never serialized or duplicated — a panel or
// diagonal read is a slice of the shared array.
//
// Contributions are not applied by their producer. Each outer-product update
// is enqueued as a (source cell, s, t) descriptor on its DESTINATION task,
// and the destination applies all of them at activation, sorted into the
// sequential right-looking order (source cell ascending, then t, then s).
// Because the update kernels accumulate into the destination in place, the
// floating-point result depends on application order; replaying the
// sequential order makes the factor BITWISE identical to FactorizeSeq — and
// to every other runtime that executes the same protocol, regardless of how
// tasks interleave (see the dynamic work-stealing runtime in dynamic.go,
// which reuses everything here except the driver loop). The price is that a
// region's updates execute on one processor instead of being spread over the
// producers; the message-passing runtime pays the same shape of cost when it
// adds received AUBs at the destination.
//
// Task ordering is enforced by per-task dependency counters
// (sched.InDegrees) with close-only ready channels. The message-passing
// runtime remains as the paper-faithful ablation baseline; see DESIGN.md for
// the contrast.

// errSharedAborted unblocks gate waiters after a peer failed; the peer's
// root-cause error is reported in preference to it.
var errSharedAborted = errors.New("solver: shared runtime aborted")

// taskGate is the completion signal of one task: remaining counts the
// incoming dependency edges not yet satisfied; ready is closed when the
// count reaches zero.
type taskGate struct {
	remaining atomic.Int32
	ready     chan struct{}
}

// contribRef identifies one deferred outer-product update: the (S,T) block
// pair of source cell Cell. The actual operands are read from the shared
// storage when the destination applies the update — by then the source panel
// holds exactly W = L·D (panel scaling is deferred to the scale phase) and
// sr.invd[Cell] is published, so the kernel computes bit for bit what the
// sequential code computes.
type contribRef struct {
	Cell, S, T int32
}

// pendList collects the contributions enqueued on one destination task. The
// mutex both serializes concurrent producers and hands the consumer a
// happens-before edge over everything each producer wrote before enqueueing
// (its solved panel, its published 1/D).
type pendList struct {
	mu   sync.Mutex
	refs []contribRef
}

// sharedRun is the state shared by all goroutine processors of one
// FactorizeShared (or FactorizeDynamic) execution.
type sharedRun[T blas.Scalar] struct {
	sch   *sched.Schedule
	f     *Storage[T]     // the one shared factor storage (fully allocated)
	gates []taskGate      // per task (static driver only)
	pend  []pendList      // per task: deferred contributions into its region
	invd  [][]T           // per cell: 1/D, published by the FACTOR/COMP1D task
	rec   *trace.Recorder // nil disables tracing
	tau   float64         // static-pivot threshold; 0 disables pivoting

	// Static-pivot substitutions are rare events on the factorization's
	// critical path of never, so a plain mutex-guarded log is fine; the
	// report sorts by column, erasing the nondeterministic arrival order.
	pivotMu sync.Mutex
	perts   []Perturbation

	ctx       context.Context
	ctxDone   <-chan struct{} // ctx.Done(); nil when uncancellable
	abort     chan struct{}   // closed on first error to unblock gate waiters
	abortOnce sync.Once
}

func (sr *sharedRun[T]) fail() { sr.abortOnce.Do(func() { close(sr.abort) }) }

// newSharedRun builds the run state common to the static shared-memory
// driver and the dynamic work-stealing driver.
func newSharedRun[T blas.Scalar](ctx context.Context, sch *sched.Schedule, rec *trace.Recorder, tau float64) *sharedRun[T] {
	sym := sch.Sym()
	return &sharedRun[T]{
		sch:     sch,
		f:       newStorage[T](sym, true),
		pend:    make([]pendList, len(sch.Tasks)),
		invd:    make([][]T, sym.NumCB()),
		rec:     rec,
		tau:     tau,
		ctx:     ctx,
		ctxDone: ctx.Done(),
		abort:   make(chan struct{}),
	}
}

// wait blocks until task id's gate opens (all dependencies satisfied), the
// run aborts, or the context is cancelled. A nil ctxDone channel blocks
// forever in select, so the uncancellable case costs nothing.
func (sr *sharedRun[T]) wait(id int) error {
	if sr.ctxDone != nil {
		select {
		case <-sr.ctxDone:
			return sr.ctx.Err()
		default:
		}
	}
	select {
	case <-sr.gates[id].ready:
		return nil
	default:
	}
	select {
	case <-sr.gates[id].ready:
		return nil
	case <-sr.abort:
		return errSharedAborted
	case <-sr.ctxDone:
		return sr.ctx.Err()
	}
}

// done marks task id complete, decrementing every successor's gate. A
// decrement to zero closes the successor's ready channel; together with the
// sequentially consistent atomics this hands the successor a happens-before
// edge over everything its predecessors wrote.
func (sr *sharedRun[T]) done(id int) {
	for _, e := range sr.sch.Tasks[id].Outs {
		if sr.gates[e.Dst].remaining.Add(-1) == 0 {
			close(sr.gates[e.Dst].ready)
		}
	}
}

// FactorizeShared runs the supernodal LDLᵀ factorization on sch.P goroutine
// processors over ONE shared factor storage: the exact task vectors and
// dependency structure of the static schedule, executed zero-copy. The
// result is bitwise identical to FactorizeSeq and needs no gather step.
func FactorizeShared(a *sparse.SymMatrix, sch *sched.Schedule) (*Factors, error) {
	return FactorizeSharedCtx(context.Background(), a, sch, nil, StaticPivot{})
}

// FactorizeSharedCtx is FactorizeShared under a context, an optional
// execution-trace recorder and an optional static-pivot configuration.
// Cancelling ctx aborts the run: processors blocked on a task gate are woken
// immediately, compute-bound processors observe the cancellation between
// tasks, and ctx.Err() is returned once every worker goroutine has unwound
// (none leak). A nil recorder disables tracing at the cost of one pointer
// comparison per task; the zero StaticPivot disables pivoting.
func FactorizeSharedCtx(ctx context.Context, a *sparse.SymMatrix, sch *sched.Schedule, rec *trace.Recorder, sp StaticPivot) (*Factors, error) {
	tau, normMax := pivotThreshold(sp, a)
	f, perts, err := factorizeShared(ctx, a, sch, rec, tau)
	if err != nil {
		return nil, err
	}
	return realFactors(f, sp, normMax, perts), nil
}

// factorizeShared is the static shared-memory runtime for either scalar
// type, with static-pivot threshold tau (0 disables pivoting).
func factorizeShared[T blas.Scalar](ctx context.Context, a symMatrix[T], sch *sched.Schedule, rec *trace.Recorder, tau float64) (*Storage[T], []Perturbation, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sr := newSharedRun[T](ctx, sch, rec, tau)
	sr.gates = make([]taskGate, len(sch.Tasks))
	for i, d := range sch.InDegrees() {
		sr.gates[i].ready = make(chan struct{})
		sr.gates[i].remaining.Store(d)
		if d == 0 {
			close(sr.gates[i].ready)
		}
	}

	// Phase 1: every processor assembles the regions its tasks own (the same
	// ownership as the distributed runtime). The phase barrier orders all
	// assembly writes before any contribution.
	if err := sr.runPhase(func(p int) error { return sr.assemble(a, p) }); err != nil {
		return nil, nil, err
	}
	// Phase 2: execute the K_p task vectors.
	if err := sr.runPhase(sr.execute); err != nil {
		return nil, nil, err
	}
	// Phase 3: deferred panel scaling (W = L·D until every deferred reader
	// has finished; the phase barrier guarantees that).
	if err := sr.runPhase(sr.scale); err != nil {
		return nil, nil, err
	}
	return sr.f, sr.perts, nil
}

// runPhase runs fn on every processor and waits; the phase boundary is a
// full barrier. The first error wins.
func (sr *sharedRun[T]) runPhase(fn func(p int) error) error {
	P := sr.sch.P
	errs := make([]error, P)
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if err := fn(p); err != nil {
				errs[p] = err
				sr.fail()
			}
		}(p)
	}
	wg.Wait()
	var aborted error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, errSharedAborted) {
			aborted = err
			continue
		}
		return err
	}
	return aborted
}

func (sr *sharedRun[T]) assemble(a symMatrix[T], p int) error {
	var start time.Duration
	if sr.rec != nil {
		start = sr.rec.Now()
	}
	for _, id := range sr.sch.ByProc[p] {
		t := &sr.sch.Tasks[id]
		var err error
		switch t.Type {
		case sched.Comp1D:
			err = sr.f.AssembleCell(a, t.Cell)
		case sched.Factor:
			err = sr.f.AssembleDiagRegion(a, t.Cell)
		case sched.BDiv:
			err = sr.f.AssembleBlockRegion(a, t.Cell, t.S)
		}
		if err != nil {
			return err
		}
	}
	if sr.rec != nil {
		sr.rec.Phase(p, trace.PhaseAssemble, start, sr.rec.Now())
	}
	return nil
}

// execute is the static driver: run this processor's K_p vector in schedule
// order, waiting on each task's gate.
func (sr *sharedRun[T]) execute(p int) error {
	for _, id := range sr.sch.ByProc[p] {
		if err := sr.wait(id); err != nil {
			return err
		}
		if err := sr.execTask(p, id); err != nil {
			return err
		}
		sr.done(id)
	}
	return nil
}

// execTask runs one schedule task on (virtual) processor p: apply the
// deferred contributions targeting its region, then the task's own kernel
// work. It is shared by the static shared-memory driver and the dynamic
// work-stealing driver — the callers differ only in how they decide that the
// task's dependencies are satisfied.
func (sr *sharedRun[T]) execTask(p, id int) error {
	t := &sr.sch.Tasks[id]
	// Interval starts after the dependency wait so it measures execution
	// only; idle time is the gap between consecutive task events.
	var start time.Duration
	if sr.rec != nil {
		start = sr.rec.Now()
	}
	if err := sr.applyPending(id); err != nil {
		return err
	}
	var err error
	switch t.Type {
	case sched.Comp1D:
		err = sr.execComp1D(p, t)
	case sched.Factor:
		err = sr.execFactor(p, t)
	case sched.BDiv:
		err = sr.execBDiv(t)
	case sched.BMod:
		err = sr.execBMod(t)
	}
	if err != nil {
		return err
	}
	if sr.rec != nil {
		sr.rec.Task(p, id, t.Type, t.Cell, t.S, t.T, start, sr.rec.Now())
	}
	return nil
}

// scale is phase 3: convert every panel from W = L·D to L. BDIV panels and
// COMP1D panels alike are deferred here so that deferred contribution
// readers always see W.
func (sr *sharedRun[T]) scale(p int) error {
	var start time.Duration
	if sr.rec != nil {
		start = sr.rec.Now()
	}
	sym := sr.sch.Sym()
	for _, id := range sr.sch.ByProc[p] {
		t := &sr.sch.Tasks[id]
		switch t.Type {
		case sched.Comp1D:
			sr.f.ScalePanel(t.Cell, sr.f.Diag(t.Cell))
		case sched.BDiv:
			cb := &sym.CB[t.Cell]
			blk := cb.Blocks[t.S]
			off := sr.f.BlockOff[t.Cell][t.S]
			blas.ScaleColumns(blk.Rows(), cb.Width(), sr.f.Data[t.Cell][off:], sr.f.LD[t.Cell], sr.f.Diag(t.Cell))
		}
	}
	if sr.rec != nil {
		sr.rec.Phase(p, trace.PhaseScale, start, sr.rec.Now())
	}
	return nil
}

// destTask returns the task whose region the (s,t) contribution of cell k
// lands in — the task the contribution descriptor is enqueued on.
func (sr *sharedRun[T]) destTask(k, s, t int) (int, error) {
	sym := sr.sch.Sym()
	cb := &sym.CB[k]
	bs := &cb.Blocks[s]
	bt := &cb.Blocks[t]
	fcell := bt.Facing
	switch {
	case sr.sch.Comp1DOf[fcell] >= 0:
		return sr.sch.Comp1DOf[fcell], nil
	case bs.Facing == fcell:
		return sr.sch.FactorOf[fcell], nil
	default:
		b := sr.f.BlockContaining(fcell, bs.FirstRow, bs.LastRow)
		if b < 0 {
			return 0, fmt.Errorf("solver: rows [%d,%d) of cb %d not in cb %d", bs.FirstRow, bs.LastRow, k, fcell)
		}
		return sr.sch.BDivOf[fcell][b], nil
	}
}

// enqueue defers the (s,t) outer-product contribution of cell k onto its
// destination task. The source panel and 1/D must already be published; the
// destination reads them when it activates.
func (sr *sharedRun[T]) enqueue(k, s, t int) error {
	dt, err := sr.destTask(k, s, t)
	if err != nil {
		return err
	}
	pl := &sr.pend[dt]
	pl.mu.Lock()
	pl.refs = append(pl.refs, contribRef{Cell: int32(k), S: int32(s), T: int32(t)})
	pl.mu.Unlock()
	return nil
}

// applyPending applies every contribution enqueued on task id, in the
// CANONICAL order — source cell ascending, then t, then s: exactly the order
// the sequential right-looking loop produces them in. Each kernel runs
// straight into the destination region of the shared storage, so the
// accumulated bits equal the sequential ones. By the activation protocol all
// producers have completed, so the list is final and the region is owned
// exclusively by this task — no locks are held during the kernels.
func (sr *sharedRun[T]) applyPending(id int) error {
	pl := &sr.pend[id]
	pl.mu.Lock()
	refs := pl.refs
	pl.refs = nil
	pl.mu.Unlock()
	if len(refs) == 0 {
		return nil
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Cell != refs[j].Cell {
			return refs[i].Cell < refs[j].Cell
		}
		if refs[i].T != refs[j].T {
			return refs[i].T < refs[j].T
		}
		return refs[i].S < refs[j].S
	})
	sym := sr.sch.Sym()
	kern := blas.KernelsOf[T]()
	for _, r := range refs {
		k, s, t := int(r.Cell), int(r.S), int(r.T)
		cb := &sym.CB[k]
		w := cb.Width()
		bs := &cb.Blocks[s]
		bt := &cb.Blocks[t]
		fcell, off, err := targetOffset(sr.f, k, s, t)
		if err != nil {
			return err
		}
		ld := sr.f.LD[k]
		ws := sr.f.Data[k][sr.f.BlockOff[k][s]:]
		wt := sr.f.Data[k][sr.f.BlockOff[k][t]:]
		dst := sr.f.Data[fcell][off:]
		ldc := sr.f.LD[fcell]
		if s == t {
			kern.SyrkLowerNDT(bs.Rows(), w, ws, ld, sr.invd[k], dst, ldc)
		} else {
			kern.GemmNDT(bs.Rows(), bt.Rows(), w, ws, ld, sr.invd[k], wt, ld, dst, ldc)
		}
	}
	return nil
}

// factorDiag runs the (possibly pivoted) diagonal factorization of cell k on
// processor p, logging substitutions into the shared pivot log and the trace.
func (sr *sharedRun[T]) factorDiag(p, k int) error {
	ps, err := sr.f.FactorDiagStatic(k, sr.tau)
	if err != nil {
		return err
	}
	if len(ps) > 0 {
		sr.pivotMu.Lock()
		sr.perts = append(sr.perts, ps...)
		sr.pivotMu.Unlock()
		if sr.rec != nil {
			for _, pe := range ps {
				sr.rec.Pivot(p, pe.Column)
			}
		}
	}
	return nil
}

func (sr *sharedRun[T]) execComp1D(p int, t *sched.Task) error {
	k := t.Cell
	// applyPending subtracted every contribution into this cell; it is ready
	// to factor.
	if err := sr.factorDiag(p, k); err != nil {
		return err
	}
	sr.f.SolvePanel(k)
	// Publish 1/D: the destinations of this cell's contributions read it when
	// they activate. The panel stays W = L·D until the scale phase.
	sr.invd[k] = invert(sr.f.Diag(k))
	cb := &sr.sch.Sym().CB[k]
	for ti := range cb.Blocks {
		for si := ti; si < len(cb.Blocks); si++ {
			if err := sr.enqueue(k, si, ti); err != nil {
				return err
			}
		}
	}
	return nil
}

func (sr *sharedRun[T]) execFactor(p int, t *sched.Task) error {
	k := t.Cell
	if err := sr.factorDiag(p, k); err != nil {
		return err
	}
	// Publish 1/D for the BMOD tasks of this cell (they observe it through
	// the FACTOR → BDIV → BMOD activation chain). The diagonal block itself
	// is read in place by BDIV — no copy is ever taken.
	sr.invd[k] = invert(sr.f.Diag(k))
	return nil
}

func (sr *sharedRun[T]) execBDiv(t *sched.Task) error {
	k := t.Cell
	cb := &sr.sch.Sym().CB[k]
	w := cb.Width()
	off := sr.f.BlockOff[k][t.S]
	// TRSM against the shared diagonal block, in place on the shared panel.
	blas.KernelsOf[T]().TrsmRightLTransUnit(cb.Blocks[t.S].Rows(), w, sr.f.Data[k], sr.f.LD[k], sr.f.Data[k][off:], sr.f.LD[k])
	return nil
}

func (sr *sharedRun[T]) execBMod(t *sched.Task) error {
	return sr.enqueue(t.Cell, t.S, t.T)
}
