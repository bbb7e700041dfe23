// Package bench regenerates the paper's evaluation: Table 1 (problem and
// ordering metrics), Table 2 (parallel factorization time and Gflop/s,
// PaStiX vs the PSPASES-like baseline, 1–64 processors on the SP2 profile),
// the §3 dense kernel comparison (LLᵀ vs LDLᵀ), and the scheduling ablations
// discussed in §2. It is shared by cmd/pastix-bench and the root package's
// testing.B benchmarks.
package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/multifrontal"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/solver"
)

// DefaultScale sizes the synthetic problem suite: 1.0 targets ≈1/8 of the
// paper's degrees of freedom per problem (see internal/gen); the default
// keeps the full Table 2 sweep under a few minutes of analysis time.
const DefaultScale = 0.25

// PastixAnalysis runs the paper's PaStiX configuration (Scotch-like
// ordering, blocking 64, mixed 1D/2D) for the named problem.
func PastixAnalysis(name string, scale float64, p int) (*solver.Analysis, error) {
	prob, err := gen.Generate(name, scale)
	if err != nil {
		return nil, err
	}
	return solver.Analyze(prob.A, solver.Options{
		P:        p,
		Ordering: order.Options{Method: order.ScotchLike},
		Part:     part.Options{BlockSize: 64, Ratio2D: 4},
	})
}

// PspasesAnalysis runs the baseline configuration (MeTiS-like ordering,
// whole-supernode fronts, subcube mapping).
func PspasesAnalysis(name string, scale float64, p int) (*solver.Analysis, error) {
	prob, err := gen.Generate(name, scale)
	if err != nil {
		return nil, err
	}
	return solver.Analyze(prob.A, solver.Options{
		P:        p,
		Ordering: order.Options{Method: order.MetisLike},
		Part:     part.Options{BlockSize: 1 << 20, Ratio2D: 1 << 30},
	})
}

// Table1Row mirrors one line of the paper's Table 1.
type Table1Row struct {
	Name       string
	Columns    int
	NNZA       int
	NNZLScotch int64
	OPCScotch  float64
	NNZLMetis  int64
	OPCMetis   float64
	// BlockNNZL and BlockOPC are the block metrics of the PaStiX (Scotch)
	// analysis: the entries the block structure stores, diagonal and
	// explicit zeros included, and the operations its kernels execute.
	BlockNNZL int64
	BlockOPC  float64
}

// Table1 computes the problem-description metrics for every test problem
// under both ordering configurations (scalar column symbolic factorization,
// exactly as the paper states).
func Table1(scale float64) ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range gen.Names() {
		s, err := PastixAnalysis(name, scale, 1)
		if err != nil {
			return nil, err
		}
		m, err := PspasesAnalysis(name, scale, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Name:       name,
			Columns:    s.A.N,
			NNZA:       s.A.NNZOffDiag(),
			NNZLScotch: s.ScalarNNZL,
			OPCScotch:  s.ScalarOPC,
			NNZLMetis:  m.ScalarNNZL,
			OPCMetis:   m.ScalarOPC,
			BlockNNZL:  s.BlockNNZL,
			BlockOPC:   s.BlockOPC,
		})
	}
	return rows, nil
}

// FormatTable1 renders the rows in the paper's layout, followed by the
// block metrics of the PaStiX analysis.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %9s %10s %14s %12s %14s %12s %14s %12s\n",
		"Name", "Columns", "NNZ_A", "NNZ_L(Scotch)", "OPC(Scotch)", "NNZ_L(MeTiS)", "OPC(MeTiS)",
		"NNZ_L(block)", "OPC(block)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %9d %10d %14d %12.3e %14d %12.3e %14d %12.3e\n",
			r.Name, r.Columns, r.NNZA, r.NNZLScotch, r.OPCScotch, r.NNZLMetis, r.OPCMetis,
			r.BlockNNZL, r.BlockOPC)
	}
	return b.String()
}

// Table2Cell is one (problem, processor-count) measurement.
type Table2Cell struct {
	Time   float64 // modelled seconds on the SP2 profile
	GFlops float64 // scalar OPC / time / 1e9 (the paper's performance figure)
}

// Table2Row mirrors one pair of lines of the paper's Table 2: the PaStiX
// results and the PSPASES results across the processor axis.
type Table2Row struct {
	Name    string
	Procs   []int
	Pastix  []Table2Cell
	Pspases []Table2Cell
}

// Table2 regenerates the factorization-performance table on the SP2-like
// machine model: PaStiX times are the replayed static-schedule makespans of
// the fan-in LDLᵀ solver; PSPASES times come from the multifrontal subcube
// simulation (LLᵀ kernel rates).
func Table2(scale float64, procs []int) ([]Table2Row, error) {
	mach := cost.SP2()
	var rows []Table2Row
	for _, name := range gen.Names() {
		row := Table2Row{Name: name, Procs: procs}
		for _, p := range procs {
			pa, err := PastixAnalysis(name, scale, p)
			if err != nil {
				return nil, err
			}
			t := pa.Sched.Replay()
			row.Pastix = append(row.Pastix, Table2Cell{Time: t, GFlops: pa.ScalarOPC / t / 1e9})

			ps, err := PspasesAnalysis(name, scale, p)
			if err != nil {
				return nil, err
			}
			bt := multifrontal.SimulateTime(ps, mach)
			row.Pspases = append(row.Pspases, Table2Cell{Time: bt, GFlops: ps.ScalarOPC / bt / 1e9})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders Table 2 in the paper's layout: per problem, the first
// line is PaStiX, the second PSPASES; each cell is "time (GFlops)".
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	if len(rows) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "%-10s %-8s", "Name", "Solver")
	for _, p := range rows[0].Procs {
		fmt.Fprintf(&b, " %14s", fmt.Sprintf("P=%d", p))
	}
	fmt.Fprintln(&b)
	line := func(name, solverName string, cells []Table2Cell) {
		fmt.Fprintf(&b, "%-10s %-8s", name, solverName)
		for _, c := range cells {
			fmt.Fprintf(&b, " %8.3f(%4.2f)", c.Time, c.GFlops)
		}
		fmt.Fprintln(&b)
	}
	for _, r := range rows {
		line(r.Name, "PaStiX", r.Pastix)
		line("", "PSPASES", r.Pspases)
	}
	return b.String()
}

// DenseKernelResult reproduces the paper's §3 micro-comparison: the time of
// a dense n×n LLᵀ vs LDLᵀ factorization (measured on this host, plus the
// SP2-modelled times for reference), with the rate of the LDLᵀ update
// kernel the factorization spends most of its time in.
type DenseKernelResult struct {
	N                   int
	LLT, LDLT           float64 // measured seconds on this host
	SP2LLT, SP2LDLT     float64 // modelled seconds on the Power2SC profile
	RatioHost, RatioSP2 float64
	Kernels             string  // blas.KernelPath(): "avx2" or "scalar"
	GemmNDTGflops       float64 // blas.GemmNDT at n×n×n on this host
}

// denseReps is how many times DenseKernels times each factorization.
const denseReps = 7

// DenseKernels measures the dense kernel comparison at order n: each
// factorization's time is its fastest of denseReps runs, the two
// alternating.
func DenseKernels(n int) DenseKernelResult {
	src := make([]float64, n*n)
	for j := 0; j < n; j++ {
		src[j+j*n] = float64(n) + 1
		for i := j + 1; i < n; i++ {
			src[i+j*n] = -0.5 / float64(n)
		}
	}
	a := make([]float64, n*n)
	once := func(f func()) float64 {
		copy(a, src)
		start := time.Now()
		f()
		return time.Since(start).Seconds()
	}
	// The two factorizations alternate and each keeps its fastest run, so
	// a burst of host load slows both instead of skewing their ratio.
	res := DenseKernelResult{N: n, LLT: math.Inf(1), LDLT: math.Inf(1)}
	for r := 0; r < denseReps; r++ {
		res.LLT = min(res.LLT, once(func() { _ = blas.Cholesky(n, a, n) }))
		res.LDLT = min(res.LDLT, once(func() { _ = blas.LDLT(n, a, n) }))
	}
	mach := cost.SP2()
	res.SP2LDLT = mach.FactorTime(n)
	res.SP2LLT = res.SP2LDLT / mach.CholRatio()
	res.RatioHost = res.LDLT / res.LLT
	res.RatioSP2 = res.SP2LDLT / res.SP2LLT
	res.Kernels = blas.KernelPath()
	b, c, d := make([]float64, n*n), make([]float64, n*n), make([]float64, n)
	for i := range b {
		b[i] = 1 / float64(1+i%7)
	}
	for i := range d {
		d[i] = 1
	}
	gemm := math.Inf(1)
	for r := 0; r < 3; r++ {
		gemm = min(gemm, once(func() { blas.GemmNDT(n, n, n, a, n, d, b, n, c, n) }))
	}
	res.GemmNDTGflops = 2 * float64(n) * float64(n) * float64(n) / gemm / 1e9
	return res
}

// AblationRow compares the mixed 1D/2D distribution against 1D-only
// scheduling on one problem (the design choice §2 argues for), and the
// greedy simulation mapper against the naive variant that always maps onto
// the first candidate.
type AblationRow struct {
	Name      string
	P         int
	Mixed1D2D float64 // replayed makespan, paper configuration
	Only1D    float64 // Ratio2D = ∞
	FirstCand float64 // mixed distribution, first-candidate mapping
}

// Ablate runs the scheduling ablations for one problem at one processor
// count.
func Ablate(name string, scale float64, p int) (AblationRow, error) {
	row := AblationRow{Name: name, P: p}
	prob, err := gen.Generate(name, scale)
	if err != nil {
		return row, err
	}
	mixed, err := solver.Analyze(prob.A, solver.Options{
		P:        p,
		Ordering: order.Options{Method: order.ScotchLike},
		Part:     part.Options{BlockSize: 64, Ratio2D: 4},
	})
	if err != nil {
		return row, err
	}
	row.Mixed1D2D = mixed.Sched.Replay()

	only1d, err := solver.Analyze(prob.A, solver.Options{
		P:        p,
		Ordering: order.Options{Method: order.ScotchLike},
		Part:     part.Options{BlockSize: 64, Ratio2D: 1 << 30},
	})
	if err != nil {
		return row, err
	}
	row.Only1D = only1d.Sched.Replay()

	firstCand, err := solver.Analyze(prob.A, solver.Options{
		P:        p,
		Ordering: order.Options{Method: order.ScotchLike},
		Part:     part.Options{BlockSize: 64, Ratio2D: 4},
		Sched:    sched.Options{FirstCandidate: true},
	})
	if err != nil {
		return row, err
	}
	row.FirstCand = firstCand.Sched.Replay()
	return row, nil
}

// FormatSpeedupPlot renders Table 2 as an ASCII figure: one speedup curve
// per solver for the given problem, over the processor axis — "who wins and
// where the curves bend" at a glance.
func FormatSpeedupPlot(row Table2Row, height int) string {
	if height <= 0 {
		height = 16
	}
	var b strings.Builder
	np := len(row.Procs)
	su := func(cells []Table2Cell, i int) float64 { return cells[0].Time / cells[i].Time }
	maxS := 1.0
	for i := range row.Procs {
		if s := su(row.Pastix, i); s > maxS {
			maxS = s
		}
		if s := su(row.Pspases, i); s > maxS {
			maxS = s
		}
	}
	const colW = 7
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", np*colW))
	}
	put := func(i int, s float64, ch byte) {
		r := height - 1 - int(s/maxS*float64(height-1)+0.5)
		if r < 0 {
			r = 0
		}
		c := i*colW + colW/2
		if grid[r][c] == ' ' {
			grid[r][c] = ch
		} else {
			grid[r][c] = '*' // overlap
		}
	}
	for i := range row.Procs {
		put(i, su(row.Pastix, i), 'X')
		put(i, su(row.Pspases, i), 'o')
	}
	fmt.Fprintf(&b, "%s — speedup vs P=1 (X = PaStiX, o = PSPASES, * = overlap), ceiling %.1f\n",
		row.Name, maxS)
	for r := range grid {
		fmt.Fprintf(&b, "  |%s\n", grid[r])
	}
	fmt.Fprintf(&b, "  +%s\n   ", strings.Repeat("-", np*colW))
	for _, p := range row.Procs {
		fmt.Fprintf(&b, "%-*s", colW, fmt.Sprintf("P=%d", p))
	}
	fmt.Fprintln(&b)
	return b.String()
}

// BlockSweepRow records the blocking-size trade-off the paper resolves at 64:
// small blocks mean little amalgamation overhead but poor BLAS shape and huge
// task counts; large blocks the reverse.
type BlockSweepRow struct {
	BlockSize int
	BlockNNZL int64 // stored entries incl. explicit zeros
	Tasks     int
	ModelTime float64 // replayed makespan, SP2 profile
}

// BlockSweep evaluates a problem at several blocking sizes and fixed P.
func BlockSweep(name string, scale float64, p int, sizes []int) ([]BlockSweepRow, error) {
	prob, err := gen.Generate(name, scale)
	if err != nil {
		return nil, err
	}
	var rows []BlockSweepRow
	for _, bs := range sizes {
		an, err := solver.Analyze(prob.A, solver.Options{
			P:        p,
			Ordering: order.Options{Method: order.ScotchLike},
			Part:     part.Options{BlockSize: bs, Ratio2D: 4},
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, BlockSweepRow{
			BlockSize: bs,
			BlockNNZL: an.Sym.NNZL(),
			Tasks:     len(an.Sched.Tasks),
			ModelTime: an.Sched.Replay(),
		})
	}
	return rows, nil
}
