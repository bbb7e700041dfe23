package pastix

import (
	"context"
	"fmt"

	"github.com/pastix-go/pastix/internal/solver"
	"github.com/pastix-go/pastix/internal/trace"
)

// RefineOptions configures adaptive iterative refinement of a solve
// (SolveOptions.Refine). The zero value selects the analysis defaults.
type RefineOptions struct {
	// Tol is the componentwise backward-error target
	// ‖Ax−b‖∞/(‖A‖∞‖x‖∞+‖b‖∞). 0 selects Options.RefineTol (default 1e-10).
	Tol float64
	// MaxIter caps the correction sweeps; 0 selects the adaptive default.
	MaxIter int
}

// SolveOptions configures SolveOpts, the unified solve entry point that Solve
// and SolveParallelTraced wrap.
type SolveOptions struct {
	// NRHS is the number of right-hand sides: b is an n×NRHS column-major
	// panel in the original ordering. 0 means 1.
	NRHS int
	// Runtime selects the solve engine. RuntimeAuto (the default) takes the
	// analysis runtime, and when that is also Auto picks sequential on one
	// processor (untraced) and the level-set engine otherwise.
	//
	//   - RuntimeSequential: the reference kernel (Factors.Solve) for one
	//     right-hand side; a panel (NRHS > 1) runs the level-set engine on
	//     one worker.
	//   - RuntimeShared, RuntimeDynamic and RuntimeMPSim: the level-set
	//     engine with the static cost-balanced partition of each level.
	//
	// The solve exchanges no messages, so an active FaultPlan does not act
	// on it. Every engine returns, for each column of the panel, the bits the
	// single-RHS sequential solve returns for that column (contributions are
	// pulled in the canonical sequential order), on dense and BLR-compressed
	// factors alike.
	Runtime Runtime
	// Refine, when non-nil, applies adaptive iterative refinement to every
	// solution column and reports the aggregated RefineStats in the result.
	Refine *RefineOptions
	// Trace, when non-nil, records the solve's phase events into a fresh
	// Trace returned in the result. A standalone solve trace holds no
	// factorization tasks, so it supports WriteChromeTrace but not the
	// schedule-divergence Summary/WriteReport. Tracing needs a parallel
	// engine: combining it with a (resolved) sequential runtime fails with
	// ErrBadOptions.
	Trace *TraceOptions
}

// PlanStats summarises the solve schedule the level-set engine ran: the
// workers it ran on (one when the cost model predicts the others do not pay),
// cell and level counts, how many levels ran as parallel steps vs were
// collapsed into chains by the hybrid cutoff, how many chain cells were
// split across the workers, and the widest level.
type PlanStats = solver.PlanStats

// SolveResult is the outcome of SolveOpts.
type SolveResult struct {
	// X is the solution panel, n×NRHS column-major in the original ordering.
	X []float64
	// Refine reports the refinement sweeps when SolveOptions.Refine was set:
	// worst-column iteration count and backward error, conjunction of
	// per-column convergence, and (single RHS only) the error trajectory.
	Refine *RefineStats
	// Trace is the recorded execution when SolveOptions.Trace was set.
	Trace *Trace
	// Plan describes the level-set solve schedule when that engine ran
	// (zero value for the sequential engine).
	Plan PlanStats
}

// SolveOpts solves A·X = B under explicit options — the unified solve entry
// point. b is an n×NRHS column-major panel in the original ordering (a plain
// right-hand side at NRHS ≤ 1); the solution panel comes back in the same
// layout. See SolveOptions for engine selection and determinism guarantees.
func (an *Analysis) SolveOpts(ctx context.Context, f *Factor, b []float64, opts SolveOptions) (*SolveResult, error) {
	return an.solveOpts(ctx, f, b, opts, nil)
}

// solveOpts is the core every Solve* entry point funnels through; rec is the
// caller-owned recorder SolveParallelTraced appends into (nil otherwise,
// mutually exclusive with opts.Trace).
func (an *Analysis) solveOpts(ctx context.Context, f *Factor, b []float64, opts SolveOptions, rec *trace.Recorder) (*SolveResult, error) {
	n := an.inner.A.N
	if f == nil || f.an != an.inner {
		return nil, ErrFactorMismatch
	}
	nrhs := opts.NRHS
	if nrhs == 0 {
		nrhs = 1
	}
	if nrhs == 1 && len(b) != n {
		return nil, fmt.Errorf("pastix: rhs length %d, matrix order %d: %w", len(b), n, ErrShape)
	}
	if nrhs != 1 && (nrhs < 0 || len(b) != n*nrhs) {
		return nil, fmt.Errorf("pastix: rhs panel must be n×nrhs = %d×%d: %w", n, nrhs, ErrShape)
	}
	if !opts.Runtime.Valid() {
		return nil, fmt.Errorf("%w: unknown runtime %d", ErrBadOptions, opts.Runtime)
	}
	if opts.Refine != nil {
		if opts.Refine.Tol < 0 {
			return nil, fmt.Errorf("%w: Refine.Tol %g is negative", ErrBadOptions, opts.Refine.Tol)
		}
		if opts.Refine.MaxIter < 0 {
			return nil, fmt.Errorf("%w: Refine.MaxIter %d is negative", ErrBadOptions, opts.Refine.MaxIter)
		}
	}
	if opts.Trace != nil && rec != nil {
		return nil, fmt.Errorf("%w: SolveOptions.Trace inside an already-traced solve", ErrBadOptions)
	}
	tracing := opts.Trace != nil || rec != nil

	// Resolve the engine: an explicit request wins, then the analysis
	// runtime, then the historical heuristic.
	rt := opts.Runtime
	if rt == RuntimeAuto {
		rt = an.runtime
	}
	if rt == RuntimeAuto {
		if an.inner.Sched.P == 1 && !tracing {
			rt = RuntimeSequential
		} else {
			rt = RuntimeShared
		}
	}
	if rt == RuntimeSequential && tracing {
		return nil, fmt.Errorf("%w: tracing requires a parallel solve engine, not %v", ErrBadOptions, rt)
	}

	res := &SolveResult{}
	sch := an.inner.Sched
	if opts.Trace != nil {
		cap := opts.Trace.Buffer
		if cap <= 0 {
			cap = 4*len(sch.Tasks)/sch.P + 64
		}
		rec = trace.New(sch.P, cap)
		res.Trace = &Trace{rec: rec, sch: sch}
	}

	pb := make([]float64, len(b))
	for r := 0; r < nrhs; r++ {
		for newI, old := range an.inner.Perm {
			pb[newI+r*n] = b[old+r*n]
		}
	}

	// The level-set engine solves in place; refinement needs pb kept as the
	// right-hand side.
	px := pb
	if opts.Refine != nil {
		px = append([]float64(nil), pb...)
	}
	var err error
	switch rt {
	case RuntimeSequential:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if nrhs == 1 {
			px = f.inner.Solve(pb)
		} else {
			// A panel runs on the level-set engine at one worker, which is
			// per-column bitwise equal to the single-RHS reference.
			err = solver.SolveLevelInPlace(ctx, an.inner.SolvePlanFor(1), f.inner, px,
				solver.LevelOptions{NRHS: nrhs})
		}
	default:
		pl := an.inner.SolvePlan()
		err = solver.SolveLevelInPlace(ctx, pl, f.inner, px,
			solver.LevelOptions{NRHS: nrhs, Trace: rec})
		res.Plan = pl.Stats()
	}
	if err != nil {
		return nil, err
	}

	if opts.Refine != nil {
		tol := opts.Refine.Tol
		if tol == 0 {
			tol = an.refineTol
		}
		pa := f.pa
		if pa == nil {
			pa = an.inner.A
		}
		agg := RefineStats{Converged: true}
		for r := 0; r < nrhs; r++ {
			xr, st := f.inner.RefineAdaptive(pa, pb[r*n:(r+1)*n], px[r*n:(r+1)*n], tol, opts.Refine.MaxIter)
			copy(px[r*n:(r+1)*n], xr)
			if st.Iterations > agg.Iterations {
				agg.Iterations = st.Iterations
			}
			if st.BackwardError > agg.BackwardError {
				agg.BackwardError = st.BackwardError
			}
			agg.Converged = agg.Converged && st.Converged
			if nrhs == 1 {
				agg.Trajectory = st.Trajectory
			}
		}
		res.Refine = &agg
	}

	x := make([]float64, len(b))
	for r := 0; r < nrhs; r++ {
		for newI, old := range an.inner.Perm {
			x[old+r*n] = px[newI+r*n]
		}
	}
	res.X = x
	return res, nil
}

// PrepareSolve warms the solve-path caches of the analysis for factor f: the
// solve DAG and the level-set plan for the schedule's processor count. Both
// are built lazily on first use anyway; a serving layer calls this right
// after factorization so the first request does not pay the one-time cost.
// The factor itself needs nothing: every solve engine reads the cells
// factorization wrote. Safe concurrently with solves.
func (an *Analysis) PrepareSolve(f *Factor) (PlanStats, error) {
	if f == nil || f.an != an.inner {
		return PlanStats{}, ErrFactorMismatch
	}
	return an.inner.PrepareSolve(f.inner), nil
}
