package solver

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/graph"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// Options configures the analysis (pre-processing) pipeline.
type Options struct {
	// P is the number of (virtual) processors the schedule targets (≥1;
	// default 1).
	P int
	// Ordering configures the fill-reducing ordering (default: ScotchLike
	// nested dissection + Halo-AMD).
	Ordering order.Options
	// Amalgamation controls relaxed supernode amalgamation.
	Amalgamation etree.AmalgamateOptions
	// Part controls supernode splitting and the 1D/2D switch.
	Part part.Options
	// Machine supplies the cost models; nil selects the deterministic
	// SP2-like analytic profile.
	Machine *cost.Machine
	// Sched tunes the static scheduler (ablation switches).
	Sched sched.Options
}

// Analysis is the result of the pre-processing phases: the permuted matrix,
// the composed permutation, the block symbolic structure, and the static
// schedule. It is immutable once built and may be reused for several
// numerical factorizations (e.g. different values, same pattern).
type Analysis struct {
	A       *sparse.SymMatrix // permuted matrix P·A·Pᵀ
	Perm    []int             // Perm[new] = old (composed ordering ∘ postorder)
	IPerm   []int             // IPerm[old] = new
	Snodes  *etree.Supernodes
	Sym     *symbolic.Symbol
	Mapping *part.Mapping
	Sched   *sched.Schedule
	Machine *cost.Machine

	// Scalar metrics from the column counts of the permuted matrix (these
	// are the paper's Table 1 numbers — scalar, not block, fill).
	ScalarNNZL int64
	ScalarOPC  float64

	// Phase durations of this analysis (ordering, elimination-tree +
	// supernode work, block symbolic factorization, mapping + scheduling).
	OrderTime, TreeTime, SymbolicTime, SchedTime time.Duration

	// Solve-scheduling caches (levelsolve.go): the solve DAG is projected
	// once per analysis and one SolvePlan is cached per worker count. Both
	// are internally synchronized, so the Analysis remains safe for
	// concurrent use.
	solveDAGOnce sync.Once
	solveDAG     *sched.SolveDAG
	solvePlans   sync.Map // workers (int) -> *SolvePlan
}

// Analyze runs ordering, symbolic factorization, repartitioning, candidate
// mapping and static scheduling for matrix a.
func Analyze(a *sparse.SymMatrix, opts Options) (*Analysis, error) {
	return AnalyzeCtx(context.Background(), a, opts)
}

// AnalyzeCtx is Analyze under a context. The analysis phases are sequential
// CPU-bound passes, so cancellation is observed at the phase boundaries
// (ordering → tree/supernodes → symbolic → mapping/scheduling) — ctx.Err()
// is returned at the first boundary after cancellation.
func AnalyzeCtx(ctx context.Context, a *sparse.SymMatrix, opts Options) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("solver: invalid matrix: %w", err)
	}
	if opts.P <= 0 {
		opts.P = 1
	}
	mach := opts.Machine
	if mach == nil {
		mach = cost.SP2()
	}

	// Ordering phase.
	tStart := time.Now()
	ptr, adj := a.AdjacencyCSR()
	g := graph.FromCSR(a.N, ptr, adj)
	o := order.Compute(g, opts.Ordering)
	if err := o.Validate(a.N); err != nil {
		return nil, err
	}
	pa := a.Permute(o.Perm)
	tOrder := time.Since(tStart)
	tStart = time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Elimination tree, postorder (composed into the permutation), column
	// counts, supernodes.
	parent := etree.Build(pa)
	post := etree.Postorder(parent)
	pa = pa.Permute(post)
	perm := make([]int, a.N)
	for r, v := range post {
		perm[r] = o.Perm[v]
	}
	iperm := make([]int, a.N)
	for newI, old := range perm {
		iperm[old] = newI
	}
	parent = etree.Build(pa)
	cc := etree.ColCounts(pa, parent)
	sn := etree.Fundamental(parent, cc)
	sn = etree.Amalgamate(sn, parent, cc, opts.Amalgamation)
	tTree := time.Since(tStart)
	tStart = time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Block repartitioning: split by blocking size, then the block symbolic
	// factorization on the final partition.
	sn = part.SplitRanges(sn, opts.Part)
	if err := sn.Validate(a.N); err != nil {
		return nil, err
	}
	sym := symbolic.Factor(pa, sn)
	tSymbolic := time.Since(tStart)
	tStart = time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Candidate mapping and static scheduling.
	mapping := part.Map(sym, mach, opts.P, opts.Part)
	if err := mapping.Validate(sym.NumCB()); err != nil {
		return nil, err
	}
	schedule, err := sched.Build(sym, mapping, mach, opts.Sched)
	if err != nil {
		return nil, err
	}
	tSched := time.Since(tStart)

	return &Analysis{
		A:          pa,
		Perm:       perm,
		IPerm:      iperm,
		Snodes:     sn,
		Sym:        sym,
		Mapping:    mapping,
		Sched:      schedule,
		Machine:    mach,
		ScalarNNZL: etree.NNZL(cc),
		ScalarOPC:  etree.OPC(cc),
		OrderTime:  tOrder, TreeTime: tTree, SymbolicTime: tSymbolic, SchedTime: tSched,
	}, nil
}

// Factorize computes the numerical factorization: sequentially for P == 1,
// otherwise with the schedule-driven parallel fan-in solver on P goroutine
// processors.
func (an *Analysis) Factorize() (*Factors, error) {
	return an.FactorizeOpts(ParOptions{})
}

// FactorizeOpts is Factorize with an explicit runtime selection
// (popts.Runtime): by default the message-passing fan-in/fan-both runtime,
// sequential for P == 1.
func (an *Analysis) FactorizeOpts(popts ParOptions) (*Factors, error) {
	return an.FactorizeOptsCtx(context.Background(), popts)
}

// FactorizeOptsCtx is FactorizeOpts under a context: cancelling ctx aborts
// the parallel runtimes (all worker goroutines unwind before the call
// returns) and is checked up front on the sequential path.
func (an *Analysis) FactorizeOptsCtx(ctx context.Context, popts ParOptions) (*Factors, error) {
	return an.FactorizeMatrixOptsCtx(ctx, an.A, popts)
}

// FactorizeMatrixOptsCtx factorizes pa — a matrix with the analysed sparsity
// pattern, already permuted into the analysis ordering — under this
// analysis's symbolic structure and schedule. This is the amortization the
// analysis/factorization split exists for: one ordering/symbolic/scheduling
// pass serves every matrix sharing the pattern. The caller is responsible
// for pa actually having the analysed pattern.
func (an *Analysis) FactorizeMatrixOptsCtx(ctx context.Context, pa *sparse.SymMatrix, popts ParOptions) (*Factors, error) {
	rt := popts.Runtime
	if rt == RuntimeAuto {
		switch {
		// Fault injection forces the message-passing runtime even at P == 1
		// so crash/stall schedules have a worker to act on; tracing forces it
		// so every schedule task gets an event.
		case an.Sched.P == 1 && popts.Trace == nil && !popts.Faults.Active():
			rt = RuntimeSequential
		default:
			rt = RuntimeMPSim
		}
	}
	if rt != RuntimeMPSim && popts.Faults.Active() {
		return nil, fmt.Errorf("solver: fault injection requires the message-passing runtime, not %v", rt)
	}
	switch rt {
	case RuntimeSequential:
		if popts.Trace != nil {
			return nil, fmt.Errorf("solver: tracing requires a parallel runtime, not %v", rt)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return FactorizeSeqPivot(pa, an.Sym, popts.Pivot)
	case RuntimeShared:
		return FactorizeSharedCtx(ctx, pa, an.Sched, popts.Trace, popts.Pivot)
	case RuntimeDynamic:
		return FactorizeDynamicCtx(ctx, pa, an.Sched, popts.Trace, popts.Pivot)
	case RuntimeMPSim:
		f, _, err := FactorizeParStatsCtx(ctx, pa, an.Sched, popts)
		return f, err
	}
	return nil, fmt.Errorf("solver: unknown runtime %v", popts.Runtime)
}

// SolveOriginal solves A·x = b in the ORIGINAL ordering: b is permuted in,
// the block triangular solves run on the factor, and the solution is
// permuted back.
func (an *Analysis) SolveOriginal(f *Factors, b []float64) []float64 {
	pb := make([]float64, len(b))
	for newI, old := range an.Perm {
		pb[newI] = b[old]
	}
	px := f.Solve(pb)
	x := make([]float64, len(b))
	for newI, old := range an.Perm {
		x[old] = px[newI]
	}
	return x
}

// PredictedTime returns the modelled parallel factorization time (the static
// schedule's replayed makespan) in seconds on the analysis machine profile.
func (an *Analysis) PredictedTime() float64 { return an.Sched.Replay() }
