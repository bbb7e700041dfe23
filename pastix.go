// Package pastix is a pure-Go parallel sparse direct solver for symmetric
// positive definite (and symmetric strongly diagonally dominant) systems
// A·x = b, reproducing the solver of
//
//	P. Hénon, P. Ramet, J. Roman. "PaStiX: A Parallel Sparse Direct Solver
//	Based on a Static Scheduling for Mixed 1D/2D Block Distributions."
//	IPPS/SPDP Workshops (Irregular 2000).
//
// The pipeline is the paper's: nested-dissection/Halo-AMD ordering, block
// symbolic factorization, supernode splitting with candidate-processor
// proportional mapping and a per-supernode 1D/2D distribution switch, a
// simulation-driven static schedule, and a supernodal fan-in LDLᵀ numerical
// factorization with total local aggregation, fully driven by the schedule.
//
// # Quick start
//
//	m := pastix.NewBuilder(n)        // assemble the lower triangle
//	m.Add(i, j, v)                   // (both triangles accepted, duplicates sum)
//	A := m.Build()
//	ctx, err := pastix.Analyze(A, pastix.Options{Processors: 4})
//	f, err := ctx.Factorize()
//	x, err := ctx.Solve(f, b)
//
// An Analysis is reusable across factorizations of matrices with the same
// pattern; Factorize runs the schedule on goroutine "processors" exchanging
// messages exactly as the distributed-memory algorithm prescribes.
package pastix

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/solver"
	"github.com/pastix-go/pastix/internal/sparse"
)

// Matrix is a symmetric sparse matrix (lower triangle stored, CSC).
type Matrix = sparse.SymMatrix

// Builder assembles a Matrix from triplets.
type Builder = sparse.Builder

// NewBuilder returns a Builder for an n×n symmetric matrix.
func NewBuilder(n int) *Builder { return sparse.NewBuilder(n) }

// ElementBuilder assembles a matrix element-by-element (finite-element
// stiffness assembly).
type ElementBuilder = sparse.ElementBuilder

// NewElementBuilder returns an ElementBuilder for an n×n system.
func NewElementBuilder(n int) *ElementBuilder { return sparse.NewElementBuilder(n) }

// ReadRSA parses a Harwell-Boeing RSA/PSA file (the format of the paper's
// test problems) and returns the matrix and the file's title.
func ReadRSA(r io.Reader) (*Matrix, string, error) { return sparse.ReadHB(r) }

// WriteRSA writes the matrix in Harwell-Boeing RSA format.
func WriteRSA(w io.Writer, a *Matrix, title string) error { return sparse.WriteHB(w, a, title) }

// ReadMatrixMarket parses a symmetric coordinate Matrix Market stream (the
// SuiteSparse exchange format).
func ReadMatrixMarket(r io.Reader) (*Matrix, error) { return sparse.ReadMatrixMarket(r) }

// WriteMatrixMarket writes the matrix in symmetric coordinate Matrix Market
// format.
func WriteMatrixMarket(w io.Writer, a *Matrix, comment string) error {
	return sparse.WriteMatrixMarket(w, a, comment)
}

// OrderingMethod selects the fill-reducing ordering configuration.
type OrderingMethod int

const (
	// OrderScotchLike is the paper's ordering: nested dissection tightly
	// coupled with Halo Approximate Minimum Degree (default).
	OrderScotchLike OrderingMethod = iota
	// OrderMetisLike is the alternative ND+AMD configuration (PSPASES's
	// default ordering family).
	OrderMetisLike
	// OrderAMD runs approximate minimum degree on the whole graph.
	OrderAMD
	// OrderNatural keeps the given order (testing/diagnostics only).
	OrderNatural
)

// Runtime selects the engine executing the numerical factorization (and,
// through SolveOptions.Runtime, the solve). All runtimes consume the same
// analysis and static schedule. RuntimeSequential, RuntimeShared and
// RuntimeDynamic produce BITWISE identical factors and perturbation reports
// (contributions are applied in the canonical sequential order);
// RuntimeMPSim aggregates contributions into AUBs — the paper's central
// mechanism — so its factor matches the others to rounding (~1e-11) and is
// deterministic run to run, but not bit-equal. Every solve runtime returns
// the sequential solve's bits on a given factor.
type Runtime = solver.Runtime

const (
	// RuntimeAuto (the default) preserves the historical dispatch:
	// sequential at Processors == 1 without tracing or faults,
	// message-passing otherwise; the solve runs sequentially at
	// Processors == 1 without tracing and on the level-set engine otherwise.
	RuntimeAuto = solver.RuntimeAuto
	// RuntimeSequential is the right-looking sequential reference.
	RuntimeSequential = solver.RuntimeSequential
	// RuntimeMPSim is the paper-faithful message-passing fan-in/fan-both
	// runtime (goroutine processors exchanging explicit messages).
	RuntimeMPSim = solver.RuntimeMPSim
	// RuntimeShared is the zero-copy shared-memory runtime driven by the
	// static schedule's per-processor task vectors.
	RuntimeShared = solver.RuntimeShared
	// RuntimeDynamic is the work-stealing runtime: the shared-memory data
	// layout with data-driven task activation instead of the fixed
	// task→processor mapping — per-worker ready deques, atomic in-degree
	// countdown, lock-free stealing. Best when the cost model misprices an
	// irregular matrix or the host is contended.
	RuntimeDynamic = solver.RuntimeDynamic
)

// ParseRuntime maps a CLI spelling ("auto", "seq", "mpsim", "shared",
// "dynamic") to its Runtime; errors match ErrBadOptions.
func ParseRuntime(s string) (Runtime, error) {
	rt, err := solver.ParseRuntime(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	return rt, nil
}

// Options configures Analyze.
type Options struct {
	// Processors is the number of virtual processors the static schedule
	// targets and Factorize runs on (default 1).
	Processors int
	// Ordering selects the ordering configuration (default OrderScotchLike).
	Ordering OrderingMethod
	// LeafSize bounds the nested-dissection leaf subgraphs (default 120).
	LeafSize int
	// BlockSize is the BLAS blocking size used to split wide supernodes
	// (default 64, the paper's setting).
	BlockSize int
	// Ratio2D is the minimum candidate-processor count for a supernode to be
	// distributed 2D (default 4).
	Ratio2D int
	// NoAmalgamation disables relaxed supernode amalgamation.
	NoAmalgamation bool
	// CompressGraph groups indistinguishable vertices before ordering
	// (recommended for multi-DOF finite element problems).
	CompressGraph bool
	// MultilevelND computes separators by multilevel coarsening instead of a
	// single level-set cut (better on irregular graphs).
	MultilevelND bool
	// CalibrateMachine measures this host's kernels to build the scheduling
	// cost model instead of using the deterministic SP2-like profile. Use it
	// when wall-clock parallel speed matters more than reproducibility.
	CalibrateMachine bool
	// Runtime selects the factorization engine: RuntimeAuto (default),
	// RuntimeSequential, RuntimeMPSim, RuntimeShared or RuntimeDynamic, and
	// the default solve engine (see SolveOptions.Runtime). An active fault
	// plan requires the message-passing factorization (RuntimeAuto or
	// RuntimeMPSim); any other combination fails Validate with
	// ErrBadOptions.
	Runtime Runtime
	// Faults injects deterministic message and worker faults into the
	// message-passing factorization and arms its reliability layer (see
	// FaultPlan). Nil or an inactive plan leaves the fault-free fast path
	// untouched. An active plan requires the message-passing runtime (see
	// Runtime); solves ignore it.
	Faults *FaultPlan
	// StaticPivot enables static pivoting in the numerical factorization:
	// a diagonal pivot with |d| < Epsilon·‖A‖_max is replaced by
	// sign(d)·Epsilon·‖A‖_max and recorded in the factor's
	// PerturbationReport instead of aborting with ErrNotSPD. Epsilon 0 (the
	// default) keeps the historical unpivoted kernels bit for bit; MaxRetries
	// bounds FactorizeRobust's escalation (0 = default 3). The report is
	// identical across the sequential, shared-memory and message-passing
	// runtimes.
	StaticPivot StaticPivotOptions
	// RefineTol is the componentwise backward-error target
	// ‖Ax−b‖∞/(‖A‖∞‖x‖∞+‖b‖∞) of adaptive iterative refinement
	// (SolveOptions.Refine, RefineSolution, FactorizeRobust). 0 selects the
	// default 1e-10.
	RefineTol float64
	// BLR enables block low-rank factor compression: every factor the
	// analysis produces is compressed in a post-factorization pass at
	// BLR.Tol (see BLROptions), trading ~Tol solve accuracy — recoverable
	// with SolveOptions.Refine — for factor memory. The zero value (Tol 0)
	// disables compression and keeps every factor bitwise-identical to the
	// dense path. Compression combines with every Runtime and with fault
	// injection: it runs after factorization, and every solve engine reads
	// compressed factors.
	BLR BLROptions
}

// StaticPivotOptions configures static pivoting (Options.StaticPivot):
// Epsilon is ε_piv in τ = ε_piv·‖A‖_max, MaxRetries bounds FactorizeRobust's
// ε escalation.
type StaticPivotOptions = solver.StaticPivot

// Perturbation records one static-pivot substitution (column in the permuted
// system, original pivot, substituted value).
type Perturbation = solver.Perturbation

// PerturbationReport summarizes the static pivoting of one factorization:
// threshold, substituted columns, and the pivot-growth diagnostic. Identical
// across runtimes for the same matrix and ε_piv.
type PerturbationReport = solver.PerturbationReport

// RefineStats reports an adaptive refinement run: sweeps executed, backward
// error reached, and its full (non-increasing) trajectory.
type RefineStats = solver.RefineStats

// RobustStats reports a FactorizeRobust escalation: attempts, the accepted
// ε_piv, and the probe backward error after refinement.
type RobustStats = solver.RobustStats

// Validate checks the options for consistency. The zero value is always
// valid (every field has a documented default: Processors 1, BlockSize 64,
// Ratio2D 4, LeafSize 120, ordering OrderScotchLike); negative counts and
// unknown ordering methods fail with an error matching ErrBadOptions.
// Analyze calls it, so explicit calls are needed only to validate early.
func (o Options) Validate() error {
	if o.Processors < 0 {
		return fmt.Errorf("%w: Processors %d is negative", ErrBadOptions, o.Processors)
	}
	if o.BlockSize < 0 {
		return fmt.Errorf("%w: BlockSize %d is negative", ErrBadOptions, o.BlockSize)
	}
	if o.Ratio2D < 0 {
		return fmt.Errorf("%w: Ratio2D %d is negative", ErrBadOptions, o.Ratio2D)
	}
	if o.LeafSize < 0 {
		return fmt.Errorf("%w: LeafSize %d is negative", ErrBadOptions, o.LeafSize)
	}
	switch o.Ordering {
	case OrderScotchLike, OrderMetisLike, OrderAMD, OrderNatural:
	default:
		return fmt.Errorf("%w: unknown ordering method %d", ErrBadOptions, o.Ordering)
	}
	if !o.Runtime.Valid() {
		return fmt.Errorf("%w: unknown runtime %d", ErrBadOptions, o.Runtime)
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadOptions, err)
		}
		if o.Faults.Active() && o.Runtime != RuntimeAuto && o.Runtime != RuntimeMPSim {
			return fmt.Errorf("%w: fault injection requires the message-passing runtime, not %v", ErrBadOptions, o.Runtime)
		}
	}
	if o.StaticPivot.Epsilon < 0 || o.StaticPivot.Epsilon >= 1 {
		return fmt.Errorf("%w: StaticPivot.Epsilon %g outside [0,1)", ErrBadOptions, o.StaticPivot.Epsilon)
	}
	if o.StaticPivot.MaxRetries < 0 {
		return fmt.Errorf("%w: StaticPivot.MaxRetries %d is negative", ErrBadOptions, o.StaticPivot.MaxRetries)
	}
	if o.RefineTol < 0 {
		return fmt.Errorf("%w: RefineTol %g is negative", ErrBadOptions, o.RefineTol)
	}
	if err := o.BLR.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	return nil
}

// Analysis is the reusable result of the pre-processing phases. All methods
// are safe for concurrent use once constructed.
type Analysis struct {
	inner     *solver.Analysis
	runtime   Runtime            // engine for the numerical phases
	faults    *FaultPlan         // fault injection for the numerical phases (nil = off)
	pivot     StaticPivotOptions // static pivoting for the numerical phases
	refineTol float64            // adaptive-refinement target; 0 = default
	blr       BLROptions         // factor compression; zero Tol = disabled
}

// parOpts builds the runtime options every numerical phase of this analysis
// shares.
func (an *Analysis) parOpts() solver.ParOptions {
	return solver.ParOptions{Runtime: an.runtime, Faults: an.faults, Pivot: an.pivot}
}

// Factor holds the numerical factorization L·D·Lᵀ.
type Factor struct {
	inner *solver.Factors
	an    *solver.Analysis
	// pa is the permuted matrix this factor was actually computed from —
	// an.A for Factorize, the request's values for FactorizeValues — so
	// refinement always iterates against the right system.
	pa *sparse.SymMatrix
}

// newFactor wraps a freshly factorized solver.Factors, applying the
// analysis's BLR compression pass when configured. Every Factorize* entry
// point funnels through here so compression is uniform across the plain,
// traced, values and robust paths.
func (an *Analysis) newFactor(f *solver.Factors, pa *sparse.SymMatrix) *Factor {
	if an.blr.Enabled() {
		f.Compress(an.blr)
	}
	return &Factor{inner: f, an: an.inner, pa: pa}
}

// Perturbations returns the static-pivoting report of this factorization:
// nil when pivoting was disabled, otherwise the (possibly empty) sorted list
// of substituted columns with threshold and pivot-growth diagnostics.
func (f *Factor) Perturbations() *PerturbationReport {
	if f == nil || f.inner == nil {
		return nil
	}
	return f.inner.Pivots
}

// Analyze orders the matrix, computes the block symbolic factorization, and
// builds the static schedule for opts.Processors virtual processors.
func Analyze(a *Matrix, opts Options) (*Analysis, error) {
	return AnalyzeContext(context.Background(), a, opts)
}

// AnalyzeContext is Analyze under a context: the analysis phases are
// sequential CPU-bound passes, so cancellation is observed at phase
// boundaries and ctx.Err() is returned at the first boundary after it.
func AnalyzeContext(ctx context.Context, a *Matrix, opts Options) (*Analysis, error) {
	return analyzeWith(a, opts, func(sopts solver.Options) (*solver.Analysis, error) {
		return solver.AnalyzeCtx(ctx, a, sopts)
	})
}

// analyzeWith validates opts, maps them to the solver's options and wraps
// the analysis run builds from them.
func analyzeWith(a *Matrix, opts Options, run func(solver.Options) (*solver.Analysis, error)) (*Analysis, error) {
	if a == nil {
		return nil, fmt.Errorf("pastix: nil matrix")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var m order.Method
	switch opts.Ordering {
	case OrderScotchLike:
		m = order.ScotchLike
	case OrderMetisLike:
		m = order.MetisLike
	case OrderAMD:
		m = order.PureAMD
	case OrderNatural:
		m = order.Natural
	}
	var mach *cost.Machine
	if opts.CalibrateMachine {
		var err error
		mach, err = cost.CalibrateLocal(false)
		if err != nil {
			return nil, err
		}
	}
	inner, err := run(solver.Options{
		P: opts.Processors,
		Ordering: order.Options{
			Method:     m,
			LeafSize:   opts.LeafSize,
			Compress:   opts.CompressGraph,
			Multilevel: opts.MultilevelND,
		},
		Amalgamation: etree.AmalgamateOptions{Disable: opts.NoAmalgamation},
		Part:         part.Options{BlockSize: opts.BlockSize, Ratio2D: opts.Ratio2D},
		Machine:      mach,
	})
	if err != nil {
		return nil, err
	}
	an := &Analysis{inner: inner, runtime: opts.Runtime, pivot: opts.StaticPivot, refineTol: opts.RefineTol, blr: opts.BLR}
	if opts.Faults.Active() {
		an.faults = opts.Faults
	}
	return an, nil
}

// SchurComplement eliminates every unknown outside schurVars and returns the
// dense Schur complement S = A_ss − A_si·A_ii⁻¹·A_is (ns×ns column-major,
// full symmetric storage) together with the order of its rows/columns in
// terms of the original indices. This is the building block hybrid
// direct/iterative methods consume (the PaStiX-family Schur API).
func SchurComplement(a *Matrix, schurVars []int, opts Options) ([]float64, []int, error) {
	san, err := solver.AnalyzeSchur(a, schurVars, solver.Options{
		P:        1,
		Ordering: order.Options{LeafSize: opts.LeafSize, Compress: opts.CompressGraph, Multilevel: opts.MultilevelND},
		Part:     part.Options{BlockSize: opts.BlockSize},
	})
	if err != nil {
		return nil, nil, err
	}
	_, s, err := san.FactorizeSchur()
	if err != nil {
		return nil, nil, err
	}
	return s, san.SchurVars, nil
}

// Factorize computes the numerical LDLᵀ factorization on the engine
// Options.Runtime selects: by default sequentially on one processor and
// with the message-passing fan-in runtime otherwise.
func (an *Analysis) Factorize() (*Factor, error) {
	return an.FactorizeContext(context.Background())
}

// FactorizeContext is Factorize under a context: cancelling ctx aborts the
// parallel runtimes — every worker goroutine unwinds before the call
// returns — and ctx.Err() (context.Canceled or context.DeadlineExceeded)
// is reported.
func (an *Analysis) FactorizeContext(ctx context.Context) (*Factor, error) {
	f, err := an.inner.FactorizeOptsCtx(ctx, an.parOpts())
	if err != nil {
		return nil, err
	}
	return an.newFactor(f, an.inner.A), nil
}

// Solve returns x with A·x = b (original ordering; b is not modified). It is
// SolveOpts with Runtime: RuntimeSequential — the bitwise reference every
// parallel solve engine is measured against.
func (an *Analysis) Solve(f *Factor, b []float64) ([]float64, error) {
	res, err := an.SolveOpts(context.Background(), f, b, SolveOptions{Runtime: RuntimeSequential})
	if err != nil {
		return nil, err
	}
	return res.X, nil
}

// PatternFingerprint returns a 128-bit hex fingerprint of the sparsity
// pattern of a: the order plus the compressed column pointers and row
// indices (values ignored). Matrices sharing a pattern share a fingerprint,
// so it is the key under which a serving layer can reuse one Analysis —
// the expensive ordering/symbolic/scheduling pass — across many
// factorizations (see internal/service). Stable across runs and platforms.
func PatternFingerprint(a *Matrix) string {
	if a == nil {
		return ""
	}
	return a.PatternFingerprint()
}

// FactorizeValues computes the LDLᵀ factorization of a matrix with the SAME
// sparsity pattern as the analysed one but (possibly) different numerical
// values, reusing this analysis — the amortization the PaStiX
// analysis/factorization split exists for. The pattern is verified (in the
// analysis ordering) and ErrPatternMismatch reported on any difference.
func (an *Analysis) FactorizeValues(ctx context.Context, a *Matrix) (*Factor, error) {
	pa, err := an.permuteSamePattern(a)
	if err != nil {
		return nil, err
	}
	f, err := an.inner.FactorizeMatrixOptsCtx(ctx, pa, an.parOpts())
	if err != nil {
		return nil, err
	}
	return an.newFactor(f, pa), nil
}

// permuteSamePattern permutes a into the analysis ordering after verifying
// it carries exactly the analysed sparsity pattern.
func (an *Analysis) permuteSamePattern(a *Matrix) (*sparse.SymMatrix, error) {
	if a == nil {
		return nil, fmt.Errorf("pastix: nil matrix")
	}
	if a.N != an.inner.A.N || a.NNZ() != an.inner.A.NNZ() {
		return nil, fmt.Errorf("pastix: order %d nnz %d vs analysed %d/%d: %w",
			a.N, a.NNZ(), an.inner.A.N, an.inner.A.NNZ(), ErrPatternMismatch)
	}
	pa := a.Permute(an.inner.Perm)
	if !pa.SamePattern(an.inner.A) {
		return nil, ErrPatternMismatch
	}
	return pa, nil
}

// RefineSolution applies adaptive iterative refinement to an existing
// solution x of A·x = b (both in the original ordering), improving it in
// place of a fresh solve — the repair step degraded-mode serving runs on
// solutions of perturbed factors. Semantics match SolveOptions.Refine with
// its default tolerance and sweep cap.
func (an *Analysis) RefineSolution(f *Factor, b, x []float64) ([]float64, RefineStats, error) {
	if f == nil || f.an != an.inner {
		return nil, RefineStats{}, ErrFactorMismatch
	}
	n := an.inner.A.N
	if len(b) != n || len(x) != n {
		return nil, RefineStats{}, fmt.Errorf("pastix: rhs/solution length %d/%d, matrix order %d: %w", len(b), len(x), n, ErrShape)
	}
	return an.refineOriginal(f, b, x, 0)
}

// refineOriginal runs adaptive refinement in the permuted system against the
// matrix f was actually factored from, permuting b/x in and the improved
// solution back out. maxIter <= 0 uses the adaptive default.
func (an *Analysis) refineOriginal(f *Factor, b, x []float64, maxIter int) ([]float64, RefineStats, error) {
	pa := f.pa
	if pa == nil {
		pa = an.inner.A
	}
	pb := make([]float64, len(b))
	px := make([]float64, len(x))
	for newI, old := range an.inner.Perm {
		pb[newI] = b[old]
		px[newI] = x[old]
	}
	px, stats := f.inner.RefineAdaptive(pa, pb, px, an.refineTol, maxIter)
	out := make([]float64, len(x))
	for newI, old := range an.inner.Perm {
		out[old] = px[newI]
	}
	return out, stats, nil
}

// FactorizeRobust is Factorize with escalating static pivoting: the first
// attempt runs with Options.StaticPivot as configured (unpivoted when
// Epsilon is 0); if factorization breaks down (ErrNotSPD) or a probe solve
// cannot be refined to Options.RefineTol, it retries with ε_piv escalated
// ×100 (starting from 1e-12), up to StaticPivot.MaxRetries times (0 =
// default 3). On exhaustion the error matches ErrPivotExhausted and carries
// the final state.
func (an *Analysis) FactorizeRobust(ctx context.Context) (*Factor, RobustStats, error) {
	f, rs, err := an.inner.FactorizeRobust(ctx, an.inner.A, an.parOpts(), an.refineTol)
	if err != nil {
		return nil, rs, err
	}
	return an.newFactor(f, an.inner.A), rs, nil
}

// FactorizeValuesRobust is FactorizeRobust for a matrix sharing the analysed
// sparsity pattern (see FactorizeValues): the escalation runs against the
// request's values, not the analysed ones.
func (an *Analysis) FactorizeValuesRobust(ctx context.Context, a *Matrix) (*Factor, RobustStats, error) {
	pa, err := an.permuteSamePattern(a)
	if err != nil {
		return nil, RobustStats{}, err
	}
	f, rs, err := an.inner.FactorizeRobust(ctx, pa, an.parOpts(), an.refineTol)
	if err != nil {
		return nil, rs, err
	}
	return an.newFactor(f, pa), rs, nil
}

// Stats summarises the analysis for reporting.
type Stats struct {
	N            int     // matrix order
	NNZA         int     // off-diagonal entries of the triangular part of A
	ScalarNNZL   int64   // strictly-lower nonzeros of L (scalar count)
	ScalarOPC    float64 // scalar factorization operation count
	BlockNNZL    int64   // stored lower factor entries, diagonal and explicit zeros included (block model)
	BlockOPC     float64 // operations the block kernels execute (block model)
	ColumnBlocks int     // supernodes after splitting
	Tasks        int     // static-schedule tasks
	Cells2D      int     // supernodes with a 2D distribution
	Processors   int
	// PredictedTime is the modelled parallel factorization time (seconds) on
	// the analysis machine profile.
	PredictedTime float64
	// LoadImbalance is max/mean modelled busy time across processors.
	LoadImbalance float64
	// CommVolume is the modelled cross-processor traffic in bytes.
	CommVolume int64
	// MaxMemoryPerProc is the largest per-processor factor storage in bytes
	// under the schedule's data distribution.
	MaxMemoryPerProc int64
}

// Stats reports the analysis metrics (the quantities of the paper's tables).
func (an *Analysis) Stats() Stats {
	st := an.inner.Sched.ComputeStats()
	var maxMem int64
	for _, m := range an.inner.Sched.MemoryPerProc() {
		if m > maxMem {
			maxMem = m
		}
	}
	return Stats{
		N:                an.inner.A.N,
		NNZA:             an.inner.A.NNZOffDiag(),
		ScalarNNZL:       an.inner.ScalarNNZL,
		ScalarOPC:        an.inner.ScalarOPC,
		BlockNNZL:        an.inner.BlockNNZL,
		BlockOPC:         an.inner.BlockOPC,
		ColumnBlocks:     an.inner.Sym.NumCB(),
		Tasks:            st.NTasks,
		Cells2D:          st.N2DCells,
		Processors:       an.inner.Sched.P,
		PredictedTime:    an.inner.PredictedTime(),
		LoadImbalance:    st.LoadImbalance,
		CommVolume:       st.CommVolume,
		MaxMemoryPerProc: maxMem,
	}
}

// Residual returns the scaled residual ‖Ax−b‖∞/(‖A‖₁‖x‖∞+‖b‖∞).
func Residual(a *Matrix, x, b []float64) float64 { return sparse.Residual(a, x, b) }

// --- Complex symmetric systems (the paper's motivating class) ---

// ZMatrix is a complex SYMMETRIC (A = Aᵀ, not Hermitian) sparse matrix.
type ZMatrix = sparse.ZSymMatrix

// ZBuilder assembles a ZMatrix from triplets.
type ZBuilder = sparse.ZBuilder

// NewZBuilder returns a builder for an n×n complex symmetric matrix.
func NewZBuilder(n int) *ZBuilder { return sparse.NewZBuilder(n) }

// ZFactor holds a complex LDLᵀ factorization.
type ZFactor struct {
	inner *solver.ZFactors
	an    *solver.Analysis
}

// AnalyzeComplex runs the analysis on the sparsity pattern of az (ordering,
// symbolic factorization and scheduling are value-type independent).
func AnalyzeComplex(az *ZMatrix, opts Options) (*Analysis, error) {
	if az == nil {
		return nil, fmt.Errorf("pastix: nil matrix")
	}
	if err := az.Validate(); err != nil {
		return nil, err
	}
	return Analyze(az.Pattern(), opts)
}

// FactorizeComplex computes the complex symmetric LDLᵀ factorization of az,
// whose pattern must match the analysed matrix, on the engine
// Options.Runtime selects with the same dispatch as Factorize: by default
// sequentially on one processor and with the message-passing fan-in runtime
// otherwise. Options.Faults applies as for Factorize. Static pivoting and
// BLR compression have no complex path: an analysis configured with either
// fails with ErrBadOptions.
func (an *Analysis) FactorizeComplex(az *ZMatrix) (*ZFactor, error) {
	if az == nil || az.N != an.inner.A.N {
		return nil, fmt.Errorf("pastix: complex matrix shape mismatch: %w", ErrShape)
	}
	if an.pivot.Enabled() {
		return nil, fmt.Errorf("%w: static pivoting has no complex path", ErrBadOptions)
	}
	if an.blr.Enabled() {
		return nil, fmt.Errorf("%w: BLR compression has no complex path", ErrBadOptions)
	}
	zf, err := an.inner.FactorizeComplexCtx(context.Background(), az.Permute(an.inner.Perm), an.parOpts())
	if err != nil {
		return nil, err
	}
	return &ZFactor{inner: zf, an: an.inner}, nil
}

// SolveComplex solves A·x = b for the complex system (original ordering).
func (an *Analysis) SolveComplex(f *ZFactor, b []complex128) ([]complex128, error) {
	if f == nil || f.an != an.inner {
		return nil, ErrFactorMismatch
	}
	if len(b) != an.inner.A.N {
		return nil, fmt.Errorf("pastix: rhs length %d, matrix order %d: %w", len(b), an.inner.A.N, ErrShape)
	}
	pb := make([]complex128, len(b))
	for newI, old := range an.inner.Perm {
		pb[newI] = b[old]
	}
	px := f.inner.Solve(pb)
	x := make([]complex128, len(b))
	for newI, old := range an.inner.Perm {
		x[old] = px[newI]
	}
	return x, nil
}

// ReadMatrixMarketComplex parses a complex symmetric coordinate Matrix
// Market stream.
func ReadMatrixMarketComplex(r io.Reader) (*ZMatrix, error) {
	return sparse.ReadMatrixMarketComplex(r)
}

// WriteMatrixMarketComplex writes a complex symmetric matrix in coordinate
// Matrix Market format.
func WriteMatrixMarketComplex(w io.Writer, a *ZMatrix, comment string) error {
	return sparse.WriteMatrixMarketComplex(w, a, comment)
}

// ZResidual returns the scaled residual of a complex system.
func ZResidual(a *ZMatrix, x, b []complex128) float64 { return sparse.ZResidual(a, x, b) }

// WriteScheduleGantt renders a textual Gantt chart of the static schedule
// (one row per processor, time binned into width columns).
func (an *Analysis) WriteScheduleGantt(w io.Writer, width int) error {
	return an.inner.Sched.WriteGantt(w, width)
}

// WriteScheduleCSV dumps the static schedule as CSV (one row per task:
// rank, processor, type, cell, block indices, modelled start/end times).
func (an *Analysis) WriteScheduleCSV(w io.Writer) error {
	return an.inner.Sched.WriteCSV(w)
}

// PhaseTimes returns the analysis phase durations: ordering,
// elimination-tree/supernode work, block symbolic factorization, and
// mapping+scheduling.
func (an *Analysis) PhaseTimes() [4]time.Duration {
	return [4]time.Duration{
		an.inner.OrderTime, an.inner.TreeTime, an.inner.SymbolicTime, an.inner.SchedTime,
	}
}

// WriteScheduleSummary prints a human-readable account of the schedule:
// task mix, load/memory balance, communication volume and the critical-path
// composition.
func (an *Analysis) WriteScheduleSummary(w io.Writer) error {
	return an.inner.Sched.WriteSummary(w)
}
