package solver

import (
	"context"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/dynsched"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/trace"
)

// This file is the dynamic work-stealing execution of the task graph: the
// same shared-memory data layout, kernels and canonical contribution
// protocol as FactorizeShared (shared.go), but the static schedule's
// task→processor mapping and K_p orders are DISCARDED. Tasks activate when
// their last dependency completes (atomic in-degree countdown), land on the
// completing worker's deque ordered by the cost model's priority, and idle
// workers steal from the tail of their peers' deques (internal/dynsched).
//
// Because every contribution is applied by its destination task in the
// canonical source order, the factor — and the perturbation report — is
// bitwise identical to FactorizeSeq and FactorizeShared no matter how the
// steal lottery interleaves the tasks. Only the trace differs: tasks run on
// whichever worker got them, so divergence reports must be computed with
// trace.CompareOptions.FreeMapping.

// FactorizeDynamicStatsCtx runs the supernodal LDLᵀ factorization with
// data-driven task activation and work stealing on sch.P workers over one
// shared factor storage, and reports the executor's stats (steal and park
// counts) for benchmarks and stress tests. The result is bitwise identical
// to FactorizeSeq. rec is an optional execution-trace recorder (task events
// carry the WORKER index as the processor — compare with FreeMapping);
// sp is the static-pivot configuration. Cancelling ctx aborts the run
// between tasks; every worker goroutine unwinds before the call returns.
func FactorizeDynamicStatsCtx(ctx context.Context, a *sparse.SymMatrix, sch *sched.Schedule, rec *trace.Recorder, sp StaticPivot) (*Factors, dynsched.Stats, error) {
	tau, normMax := pivotThreshold(sp, a)
	f, perts, st, err := factorizeDynamic(ctx, a, sch, rec, tau)
	if err != nil {
		return nil, st, err
	}
	return realFactors(f, sp, normMax, perts), st, nil
}

// factorizeDynamic is the work-stealing runtime for either scalar type, with
// static-pivot threshold tau (0 disables pivoting).
func factorizeDynamic[T blas.Scalar](ctx context.Context, a symMatrix[T], sch *sched.Schedule, rec *trace.Recorder, tau float64) (*Storage[T], []Perturbation, dynsched.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, dynsched.Stats{}, err
	}
	sr := newSharedRun[T](ctx, sch, rec, tau)
	// Assembly reuses the static ownership partition — it is embarrassingly
	// parallel, so there is nothing for stealing to improve.
	if err := sr.runPhase(func(p int) error { return sr.assemble(a, p) }); err != nil {
		return nil, nil, dynsched.Stats{}, err
	}
	st, err := dynsched.Run(ctx, sch.DAG(), sch.P, sr.execTask)
	if err != nil {
		return nil, nil, st, err
	}
	if err := sr.runPhase(sr.scale); err != nil {
		return nil, nil, st, err
	}
	return sr.f, sr.perts, st, nil
}
