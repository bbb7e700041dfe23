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
	// Runtime selects the solve engine; Options.Runtime, which picks the
	// factorization engine, has no say in it.
	//
	//   - RuntimeSequential: the reference kernel (Factors.Solve) for one
	//     right-hand side; a panel (NRHS > 1) runs the level-set engine on
	//     one worker.
	//   - every other value, RuntimeAuto included: the level-set engine on
	//     the worker count its cost model picks (one when the schedule has
	//     one processor), each worker owning whole elimination subtrees
	//     below the shared top cells.
	//
	// The solve exchanges no messages, so an active FaultPlan does not act
	// on it. Every engine returns, for each column of the panel, the bits the
	// single-RHS sequential solve returns for that column (every entry takes
	// its contributions in the canonical sequential order), on dense and
	// BLR-compressed factors alike.
	Runtime Runtime
	// Refine, when non-nil, applies adaptive iterative refinement to every
	// solution column and reports the aggregated RefineStats in the result.
	Refine *RefineOptions
	// Trace, when non-nil, records the solve's phase events into a fresh
	// Trace returned in the result. A standalone solve trace holds no
	// factorization tasks, so it supports WriteChromeTrace but not the
	// schedule-divergence Summary/WriteReport. Tracing needs a parallel
	// engine: combining it with RuntimeSequential fails with ErrBadOptions.
	Trace *TraceOptions
}

// PlanStats summarises the solve schedule the level-set engine ran: Workers
// it ran on (one when the cost model predicts the others do not pay); Cells,
// the column blocks; Levels, the cells on the longest leaf-to-root path of
// the elimination tree, and MaxLevelWidth, the most cells of one height
// (the level sets of the solve's dependencies); ParallelSteps 1 when
// several workers ran their owned elimination subtrees at once, else 0;
// ChainCells the shared top cells and SplitCells those split across the
// workers.
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
	if opts.Runtime == RuntimeSequential && (opts.Trace != nil || rec != nil) {
		return nil, fmt.Errorf("%w: tracing requires a parallel solve engine, not %v", ErrBadOptions, opts.Runtime)
	}

	res := &SolveResult{}
	sch := an.inner.Sched
	if opts.Trace != nil {
		rec = trace.New(sch.P, opts.Trace.Buffer)
		res.Trace = &Trace{rec: rec, sch: sch}
	}

	// The permuted right-hand side lives only until res.X is built, so it
	// is a buffer of the analysis: a solve allocates just the solution it
	// returns.
	pb := permuteVec(an.inner.Perm, an.inner.RHSBuffer(len(b)), b, false)
	defer an.inner.ReleaseRHS(pb)

	// The level-set engine solves in place; refinement needs pb kept as the
	// right-hand side.
	px := pb
	if opts.Refine != nil {
		px = append([]float64(nil), pb...)
	}
	var err error
	switch opts.Runtime {
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

	res.X = permuteVec(an.inner.Perm, nil, px, true)
	return res, nil
}

// PrepareSolve warms the solve-path cache of the analysis for factor f: the
// level-set plan for the schedule's processor count. Analyze builds it, and
// it is built lazily on first use anyway; a serving layer calls this right
// after factorization so the first request never pays the one-time cost.
// The factor itself needs nothing: every solve engine reads the cells
// factorization wrote. Safe concurrently with solves.
func (an *Analysis) PrepareSolve(f *Factor) (PlanStats, error) {
	if f == nil || f.an != an.inner {
		return PlanStats{}, ErrFactorMismatch
	}
	return an.inner.PrepareSolve(f.inner), nil
}
