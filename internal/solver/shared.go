package solver

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/dynsched"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
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
	log  pivotLog        // static-pivot substitutions of every worker
}

// factorizeShared runs the supernodal LDLᵀ factorization on sch.P workers
// over one shared factor storage, for either scalar type, with static-pivot
// threshold tau (0 disables pivoting). dag is sch's task graph
// (Analysis.factorDAG builds it once per analysis). pinned selects the
// placement policy: the static schedule's K_p vectors, or work stealing. The
// result is bitwise identical to factorizeSeq. rec is an optional
// execution-trace recorder (task events carry the worker index as the
// processor). Cancelling ctx aborts the run between tasks; every worker
// goroutine unwinds before the call returns.
func factorizeShared[T blas.Scalar](ctx context.Context, a *sparse.Sym[T], sch *sched.Schedule, dag *sched.DAG, rec *trace.Recorder, tau float64, pinned bool) (*Storage[T], []Perturbation, dynsched.Stats, error) {
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
	if err := sr.runPhase(func(p int) error { return assembleOwned(sr.f, a, sch, p, rec) }); err != nil {
		return nil, nil, dynsched.Stats{}, err
	}
	// Phase 2: execute the task graph.
	var order [][]int
	if pinned {
		order = sch.ByProc
	}
	st, err := dynsched.Run(ctx, dag, sch.P, order, sr.execTask)
	if err != nil {
		return nil, nil, st, err
	}
	// Phase 3: deferred panel scaling (W = L·D until every deferred reader
	// has finished; the phase barrier guarantees that).
	sr.runPhase(func(p int) error {
		scaleOwned(sr.f, sch, p, sr.f.Diag, rec)
		return nil
	})
	return sr.f, sr.log.perts, st, nil
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
		// TRSM against the shared diagonal block, in place on the shared panel.
		solveBlock(sr.f, t.Cell, t.S, sr.f.Data[t.Cell], sr.f.LD[t.Cell])
	case sched.BMod:
		sr.enqueue(t.Cell, t.S, t.T)
	}
	if err != nil {
		return err
	}
	if sr.rec != nil {
		sr.rec.Task(p, id, t.Type, t.Cell, t.S, t.T, start, sr.rec.Now())
	}
	return nil
}

// enqueue defers the (s,t) outer-product contribution of cell k onto its
// destination task. The source panel and 1/D must already be published; the
// destination reads them when it activates.
func (sr *sharedRun[T]) enqueue(k, s, t int) {
	pl := &sr.pend[sr.sch.UpdateTask(k, s, t)]
	pl.mu.Lock()
	pl.refs = append(pl.refs, contribRef{Cell: int32(k), S: int32(s), T: int32(t)})
	pl.mu.Unlock()
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
	for _, r := range refs {
		k := int(r.Cell)
		if err := updateFromPanel(sr.f, k, int(r.S), int(r.T), sr.f.Data[k], sr.invd[k]); err != nil {
			return err
		}
	}
	return nil
}

func (sr *sharedRun[T]) execComp1D(p int, t *sched.Task) error {
	k := t.Cell
	// applyPending subtracted every contribution into this cell; it is ready
	// to factor.
	if err := factorDiag(sr.f, k, sr.tau, &sr.log, sr.rec, p); err != nil {
		return err
	}
	sr.f.SolvePanel(k)
	// Publish 1/D: the destinations of this cell's contributions read it when
	// they activate. The panel stays W = L·D until the scale phase.
	sr.invd[k] = invert(sr.f.Diag(k))
	cb := &sr.sch.Sym().CB[k]
	for ti := range cb.Blocks {
		for si := ti; si < len(cb.Blocks); si++ {
			sr.enqueue(k, si, ti)
		}
	}
	return nil
}

func (sr *sharedRun[T]) execFactor(p int, t *sched.Task) error {
	k := t.Cell
	if err := factorDiag(sr.f, k, sr.tau, &sr.log, sr.rec, p); err != nil {
		return err
	}
	// Publish 1/D for the BMOD tasks of this cell (they observe it through
	// the FACTOR → BDIV → BMOD activation chain). The diagonal block itself
	// is read in place by BDIV — no copy is ever taken.
	sr.invd[k] = invert(sr.f.Diag(k))
	return nil
}
