package solver

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/pastix-go/pastix/internal/blas"
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
	// ScalarNNZL counts strictly-lower entries.
	ScalarNNZL int64
	ScalarOPC  float64
	// Block metrics of the partition — what the kernels store and execute:
	// BlockNNZL counts the stored lower entries, each diagonal block as a
	// triangle with its diagonal, explicit zeros included (symbolic.Symbol
	// NNZL and OPC). BlockNNZL − ScalarNNZL − n is the number of stored
	// zeros.
	BlockNNZL int64
	BlockOPC  float64

	// Phase durations of this analysis (ordering, elimination-tree +
	// supernode work, block symbolic factorization, mapping + scheduling).
	OrderTime, TreeTime, SymbolicTime, SchedTime time.Duration

	// Solve-scheduling caches (levelsolve.go): the worker-independent row
	// index is built once per analysis and one SolvePlan is cached per
	// worker count (Analyze builds both eagerly). Both are internally
	// synchronized, so the Analysis remains safe for concurrent use.
	indexOnce  sync.Once
	index      *solveIndex
	solvePlans sync.Map // workers (int) -> *SolvePlan

	// The factorization task graph the shared-memory executor runs, and
	// every task's incoming updates, which it and the test-side fan-out
	// driver pull: each built on the first factorization that needs it and
	// reused by every later one.
	dagOnce     sync.Once
	dag         *sched.DAG
	updatesOnce sync.Once
	updates     *sched.Pulls
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
	return analyze(ctx, a, opts, computeOrdering(opts.Ordering), 0, func(parent, cc []int) (*etree.Supernodes, error) {
		sn := etree.Amalgamate(etree.Fundamental(parent, cc), cc, opts.Amalgamation)
		return part.SplitRanges(sn, opts.Part), nil
	})
}

// orderer computes the fill-reducing ordering of the matrix's adjacency
// graph.
type orderer func(g *graph.Graph) *order.Ordering

// computeOrdering is the orderer of opts: order.Compute on the whole graph.
func computeOrdering(opts order.Options) orderer {
	return func(g *graph.Graph) *order.Ordering { return order.Compute(g, opts) }
}

// partitioner picks the column-block partition of the postordered matrix
// from its elimination tree and scalar column counts.
type partitioner func(parent, cc []int) (*etree.Supernodes, error)

// analyze runs the analysis pipeline with the ordering chosen by ord and
// the column-block partition chosen by partition. The last terminal
// positions of the ordering stay last through the postorder (see
// postordered); a terminal analysis is not solved with, so it gets no
// solve structure. It is the one place an Analysis is built.
func analyze(ctx context.Context, a *sparse.SymMatrix, opts Options, ord orderer, terminal int, partition partitioner) (*Analysis, error) {
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
	o := ord(g)
	if err := o.Validate(a.N); err != nil {
		return nil, err
	}
	tOrder := time.Since(tStart)
	tStart = time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Elimination tree, postorder (composed into the permutation), column
	// counts, and the column-block partition.
	pa, perm, iperm, parent, cc := postordered(a, ptr, adj, o.Perm, o.IPerm, terminal)
	sn, err := partition(parent, cc)
	if err != nil {
		return nil, err
	}
	if err := sn.Validate(a.N); err != nil {
		return nil, err
	}
	tTree := time.Since(tStart)
	tStart = time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The block symbolic factorization on the final partition.
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

	an := &Analysis{
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
		BlockNNZL:  sym.NNZL(),
		BlockOPC:   sym.OPC(),
		OrderTime:  tOrder, TreeTime: tTree, SymbolicTime: tSymbolic, SchedTime: tSched,
	}
	// The solve plan, and its first buffer, are part of the analysis, not
	// of preparing a factor for solves.
	if terminal == 0 {
		an.SolvePlan()
	}
	return an, nil
}

// postordered composes the fill-reducing ordering perm (perm[new] = old,
// iperm its inverse) of a — whose adjacency structure is ptr/adj — with a
// postorder of its elimination tree. The tree and the scalar column counts
// are read off the adjacency graph, and the postorder relabels both: it is
// an equivalent ordering, with the same tree and the same counts. The
// matrix is permuted once, into the composed ordering; the tree and counts
// are returned in its labels.
//
// The last terminal positions of perm are first chained in the tree, each
// the parent of the one before. Their true parents lie among them, so every
// ancestor stays an ancestor and the interior column counts do not move;
// and since the postorder visits children in ascending order, it keeps
// them last and in order even when they sit in separate subtrees.
func postordered(a *sparse.SymMatrix, ptr, adj, perm, iperm []int, terminal int) (pa *sparse.SymMatrix, composed, icomposed, parent, cc []int) {
	parent = etree.BuildPermuted(ptr, adj, perm, iperm)
	for k := a.N - terminal; k < a.N-1; k++ {
		parent[k] = k + 1
	}
	post := etree.Postorder(parent)
	cc = etree.ColCountsPermuted(ptr, adj, perm, iperm, parent, post)
	parent, cc = etree.ApplyPostorder(parent, cc, post)
	composed = make([]int, a.N)
	icomposed = make([]int, a.N)
	for r, v := range post {
		composed[r] = perm[v]
		icomposed[composed[r]] = r
	}
	return a.Permute(composed), composed, icomposed, parent, cc
}

// Partition returns the analysis's column-block boundaries: entry k is the
// first column of column block k and the last entry is the matrix order.
func (an *Analysis) Partition() []int {
	return an.Sym.Partition()
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
	tau, normMax := pivotThreshold(popts.Pivot, pa)
	f, perts, err := factorizeOn(ctx, an, pa, popts, tau)
	if err != nil {
		return nil, err
	}
	return realFactors(f, popts.Pivot, normMax, perts), nil
}

// FactorizeComplexCtx is FactorizeMatrixOptsCtx for a complex symmetric
// matrix paz: the same runtimes, dispatch, tracing and fault injection on
// complex128 storage. Static pivoting has no complex path and is rejected.
func (an *Analysis) FactorizeComplexCtx(ctx context.Context, paz *sparse.ZSymMatrix, popts ParOptions) (*ZFactors, error) {
	if popts.Pivot.Enabled() {
		return nil, fmt.Errorf("solver: static pivoting has no complex path")
	}
	f, _, err := factorizeOn(ctx, an, paz, popts, 0)
	return f, err
}

// factorizeOn runs the runtime popts selects for either scalar type, with
// static-pivot threshold tau (0 disables pivoting).
func factorizeOn[T blas.Scalar](ctx context.Context, an *Analysis, a *sparse.Sym[T], popts ParOptions, tau float64) (*Storage[T], []Perturbation, error) {
	rt := popts.Runtime
	if rt == RuntimeAuto {
		switch {
		// Fault injection forces the message-passing runtime even at P == 1
		// so crash/stall schedules have a worker to act on. Tracing picks it
		// only because the historical dispatch did (the shared executor
		// traces every task too); ROADMAP item 4 revisits this choice.
		case an.Sched.P == 1 && popts.Trace == nil && !popts.Faults.Active():
			rt = RuntimeSequential
		default:
			rt = RuntimeMPSim
		}
	}
	if rt != RuntimeMPSim && popts.Faults.Active() {
		return nil, nil, fmt.Errorf("solver: fault injection requires the message-passing runtime, not %v", rt)
	}
	switch rt {
	case RuntimeSequential:
		if popts.Trace != nil {
			return nil, nil, fmt.Errorf("solver: tracing requires a parallel runtime, not %v", rt)
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return factorizeSeq(a, an.Sym, tau, an.Sym.NumCB())
	case RuntimeShared, RuntimeDynamic:
		f, perts, _, err := factorizeShared(ctx, a, an, popts.Trace, tau, rt == RuntimeShared)
		return f, perts, err
	case RuntimeMPSim:
		f, perts, _, err := factorizePar(ctx, a, an.Sched, popts, tau)
		return f, perts, err
	}
	return nil, nil, fmt.Errorf("solver: unknown runtime %v", popts.Runtime)
}

// factorDAG returns the schedule's task graph (sched.Schedule.DAG), built
// once per analysis; safe for concurrent use.
func (an *Analysis) factorDAG() *sched.DAG {
	an.dagOnce.Do(func() { an.dag = an.Sched.DAG() })
	return an.dag
}

// taskPulls returns every schedule task's incoming updates
// (sched.Schedule.Pulls), built once per analysis; safe for concurrent use.
func (an *Analysis) taskPulls() *sched.Pulls {
	an.updatesOnce.Do(func() { an.updates = an.Sched.Pulls() })
	return an.updates
}

// PredictedTime returns the modelled parallel factorization time (the static
// schedule's replayed makespan) in seconds on the analysis machine profile.
func (an *Analysis) PredictedTime() float64 { return an.Sched.Replay() }
