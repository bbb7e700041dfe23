package solver

import (
	"context"
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
// No producer applies its contributions. Each task, when it activates,
// pulls the updates into its region from its static list
// (sched.Schedule.Pulls), in the sequential right-looking order: source
// cell ascending, then t, then s. The update kernels accumulate in place,
// so replaying that order makes the factor BITWISE identical to
// FactorizeSeq under both policies, however the tasks interleave. Every
// producer (the source's COMP1D, or its BMOD) is a predecessor of the
// puller, so the activation countdown orders the source's solved panel and
// 1/D before the pull; a BMOD task computes nothing and stays in the graph
// for its edges. The price is that a region's updates execute on one
// processor, as the message-passing runtime adds received AUBs at the
// destination.

// sharedRun is the state shared by all workers of one factorizeShared run.
type sharedRun[T blas.Scalar] struct {
	sch   *sched.Schedule
	pulls *sched.Pulls    // per task: the updates into its region
	f     *Storage[T]     // the one shared factor storage (fully allocated)
	invd  [][]T           // per cell: 1/D, published by the FACTOR/COMP1D task
	rec   *trace.Recorder // nil disables tracing
	tau   float64         // static-pivot threshold; 0 disables pivoting
	log   pivotLog        // static-pivot substitutions of every worker
}

// factorizeShared runs the supernodal LDLᵀ factorization of a, on the
// analysis's schedule with one worker per processor, over one shared factor
// storage, for either scalar type, with static-pivot threshold tau (0
// disables pivoting). The task graph and the tasks' incoming updates are
// the analysis's, built once (factorDAG, taskPulls). pinned selects the
// placement policy: the static schedule's K_p vectors, or work stealing. The
// result is bitwise identical to factorizeSeq. rec is an optional
// execution-trace recorder (task events carry the worker index as the
// processor). Cancelling ctx aborts the run between tasks; every worker
// goroutine unwinds before the call returns.
func factorizeShared[T blas.Scalar](ctx context.Context, a *sparse.Sym[T], an *Analysis, rec *trace.Recorder, tau float64, pinned bool) (*Storage[T], []Perturbation, dynsched.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, dynsched.Stats{}, err
	}
	sch, sym := an.Sched, an.Sym
	sr := &sharedRun[T]{
		sch:   sch,
		pulls: an.taskPulls(),
		f:     newStorage[T](sym, true),
		invd:  make([][]T, sym.NumCB()),
		rec:   rec,
		tau:   tau,
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
	st, err := dynsched.Run(ctx, an.factorDAG(), sch.P, order, sr.execTask)
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
// its dependencies satisfied: pull the updates into its region, then the
// task's own kernel work.
func (sr *sharedRun[T]) execTask(p, id int) error {
	t := &sr.sch.Tasks[id]
	// Interval starts after the dependency wait so it measures execution
	// only; idle time is the gap between consecutive task events.
	var start time.Duration
	if sr.rec != nil {
		start = sr.rec.Now()
	}
	// Every producer has completed, so each source panel holds exactly
	// W = L·D (panel scaling is deferred to the scale phase) and its 1/D is
	// published; the region is this task's alone, so no lock is held.
	for _, r := range sr.pulls.Of(id) {
		if err := applyRun(sr.f, r, sr.f.Data[r.Src], sr.invd[r.Src]); err != nil {
			return err
		}
	}
	k := t.Cell
	switch t.Type {
	case sched.Comp1D, sched.Factor:
		if err := factorDiag(sr.f, k, sr.tau, &sr.log, sr.rec, p); err != nil {
			return err
		}
		if t.Type == sched.Comp1D {
			sr.f.SolvePanel(k)
		}
		// Publish 1/D for the tasks that pull this cell's updates (of a 2D
		// cell, through the FACTOR → BDIV → BMOD chain; BDIV reads the
		// diagonal block in place). The panel stays W = L·D until the scale
		// phase.
		sr.invd[k] = invert(sr.f.Diag(k))
	case sched.BDiv:
		// TRSM against the shared diagonal block, in place on the shared panel.
		solveBlock(sr.f, k, t.S, sr.f.Data[k], sr.f.LD[k])
	}
	if sr.rec != nil {
		sr.rec.Task(p, id, t.Type, t.Cell, t.S, t.T, start, sr.rec.Now())
	}
	return nil
}
