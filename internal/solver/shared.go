package solver

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/dynsched"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/trace"
)

// This file is the shared-memory factorization: the schedule's tasks over
// ONE shared Factors storage instead of mpsim message copies. AUBs, solved
// panels and diagonal blocks are never serialized or duplicated — a panel or
// diagonal read is a slice of the shared array. internal/dynsched.Run drives
// the tasks, pinned to the static schedule's K_p vectors (RuntimeShared) or
// work stealing (RuntimeDynamic).
//
// Contributions are not applied by their producer. Each outer-product update
// is enqueued as a (source cell, s, t) descriptor on its DESTINATION task,
// and the destination applies all of them at activation, sorted into the
// sequential right-looking order (source cell ascending, then t, then s).
// Because the update kernels accumulate into the destination in place, the
// floating-point result depends on application order; replaying the
// sequential order makes the factor BITWISE identical to FactorizeSeq under
// both policies, regardless of how tasks interleave. The price is that a
// region's updates execute on one processor instead of being spread over the
// producers; the message-passing runtime pays the same shape of cost when it
// adds received AUBs at the destination.

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

// sharedRun is the state shared by all workers of one factorizeShared run.
type sharedRun[T blas.Scalar] struct {
	sch  *sched.Schedule
	f    *Storage[T]     // the one shared factor storage (fully allocated)
	pend []pendList      // per task: deferred contributions into its region
	invd [][]T           // per cell: 1/D, published by the FACTOR/COMP1D task
	rec  *trace.Recorder // nil disables tracing
	tau  float64         // static-pivot threshold; 0 disables pivoting

	// Static-pivot substitutions are rare events on the factorization's
	// critical path of never, so a plain mutex-guarded log is fine; the
	// report sorts by column, erasing the nondeterministic arrival order.
	pivotMu sync.Mutex
	perts   []Perturbation
}

// factorizeShared runs the supernodal LDLᵀ factorization on sch.P workers
// over one shared factor storage, for either scalar type, with static-pivot
// threshold tau (0 disables pivoting). pinned selects the placement policy:
// the static schedule's K_p vectors, or work stealing. The result is bitwise
// identical to factorizeSeq. rec is an optional execution-trace recorder
// (task events carry the worker index as the processor). Cancelling ctx
// aborts the run between tasks; every worker goroutine unwinds before the
// call returns.
func factorizeShared[T blas.Scalar](ctx context.Context, a symMatrix[T], sch *sched.Schedule, rec *trace.Recorder, tau float64, pinned bool) (*Storage[T], []Perturbation, dynsched.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, dynsched.Stats{}, err
	}
	sym := sch.Sym()
	sr := &sharedRun[T]{
		sch:  sch,
		f:    newStorage[T](sym, true),
		pend: make([]pendList, len(sch.Tasks)),
		invd: make([][]T, sym.NumCB()),
		rec:  rec,
		tau:  tau,
	}
	// Phase 1: every processor assembles the regions its tasks own (the same
	// ownership as the distributed runtime; assembly is embarrassingly
	// parallel, so there is nothing for stealing to improve). The phase
	// barrier orders all assembly writes before any contribution.
	if err := sr.runPhase(func(p int) error { return sr.assemble(a, p) }); err != nil {
		return nil, nil, dynsched.Stats{}, err
	}
	// Phase 2: execute the task graph.
	var order [][]int
	if pinned {
		order = sch.ByProc
	}
	st, err := dynsched.Run(ctx, sch.DAG(), sch.P, order, sr.execTask)
	if err != nil {
		return nil, nil, st, err
	}
	// Phase 3: deferred panel scaling (W = L·D until every deferred reader
	// has finished; the phase barrier guarantees that).
	if err := sr.runPhase(sr.scale); err != nil {
		return nil, nil, st, err
	}
	return sr.f, sr.perts, st, nil
}

// runPhase runs fn on every processor and waits; the phase boundary is a
// full barrier. The first error wins.
func (sr *sharedRun[T]) runPhase(fn func(p int) error) error {
	errs := make([]error, sr.sch.P)
	var wg sync.WaitGroup
	for p := range errs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = fn(p)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// execTask runs one schedule task on worker p, once the executor has seen
// its dependencies satisfied: apply the deferred contributions targeting its
// region, then the task's own kernel work.
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
