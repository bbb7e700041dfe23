// Package cost provides the execution-time models that drive the static
// scheduler: a BLAS kernel time model built by multi-variable polynomial
// regression (exactly the paper's approach: "a multi-variable polynomial
// regression has been used to build an analytical model of these routines"),
// a communication model (startup latency + bandwidth), and an aggregation
// model for the fan-in AUB additions.
//
// Two machine profiles matter: a profile calibrated on the host running the
// benchmarks (CalibrateLocal), and an analytic profile of the paper's IBM
// SP2 with 120 MHz Power2SC nodes (SP2) used to regenerate Table 2's scaling
// shape on up to 64 simulated processors.
package cost

import (
	"fmt"
	"math"
	"time"

	"github.com/pastix-go/pastix/internal/blas"
)

// KernelModel predicts a kernel's execution time (seconds) for problem
// dimensions (m,n,k) as a degree-≤3 polynomial with the cross terms that
// matter for dense kernels:
//
//	t = c0 + c1·m + c2·n + c3·k + c4·m·n + c5·m·k + c6·n·k + c7·m·n·k
type KernelModel struct {
	Coef [8]float64
}

// Time evaluates the model; negative predictions are clamped to zero.
func (km *KernelModel) Time(m, n, k float64) float64 {
	c := &km.Coef
	t := c[0] + c[1]*m + c[2]*n + c[3]*k + c[4]*m*n + c[5]*m*k + c[6]*n*k + c[7]*m*n*k
	if t < 0 {
		return 0
	}
	return t
}

func basisRow(m, n, k float64) []float64 {
	return []float64{1, m, n, k, m * n, m * k, n * k, m * n * k}
}

// Machine bundles the kernel and network models of one target architecture.
type Machine struct {
	Name string
	// Gemm models GemmNDT(m rows, n cols, k inner); Trsm models the
	// triangular solve of an r×w panel against a w×w diagonal block
	// (m=r, n=w, k unused); Factor models the dense LDLᵀ of a w×w block
	// (m=w); Add models the element-wise AUB aggregation of m elements.
	Gemm, Trsm, Factor, Add KernelModel
	// Latency is the per-message startup time in seconds; Bandwidth the
	// sustained transfer rate in bytes/second.
	Latency   float64
	Bandwidth float64
	// PeakFlops is the nominal per-node peak, used only for reporting.
	PeakFlops float64
	// CholSpeedup is how much faster the LLᵀ kernels run than the LDLᵀ ones
	// (≥1; the paper measures 1.27s/1.07s ≈ 1.19 on ESSL for a dense 1024²
	// factor). The multifrontal baseline divides its kernel times by it.
	CholSpeedup float64
	// SMP topology: processors come in nodes of NodeSize (0 or 1 = flat
	// network); messages within a node use the intra-node model.
	NodeSize       int
	IntraLatency   float64
	IntraBandwidth float64
	// factorCube / trsmSquare: the Factor and Trsm kernels are cubic in a
	// single dimension, which the 8-term cross-polynomial cannot express
	// exactly; analytic profiles use these extra exact terms, while
	// calibrated profiles capture cubic behaviour through the regression
	// over the sampled size range (where k=n or k=m make c7 effective).
	factorCube float64 // t += factorCube · w³
	trsmSquare float64 // t += trsmSquare · r · w²
}

// GemmTime returns the modelled time of an (m×k)·(k×n) block update.
func (mc *Machine) GemmTime(m, n, k int) float64 {
	return mc.Gemm.Time(float64(m), float64(n), float64(k))
}

// TrsmTime returns the modelled time of solving an r×w panel against a w×w
// triangular diagonal block.
func (mc *Machine) TrsmTime(r, w int) float64 {
	fr, fw := float64(r), float64(w)
	return mc.Trsm.Time(fr, fw, fw) + mc.trsmSquare*fr*fw*fw
}

// FactorTime returns the modelled time of a dense w×w LDLᵀ factorization.
func (mc *Machine) FactorTime(w int) float64 {
	fw := float64(w)
	return mc.Factor.Time(fw, fw, fw) + mc.factorCube*fw*fw*fw
}

// AddTime returns the modelled time of aggregating elems float64s into a
// local AUB (the fan-in extra workload).
func (mc *Machine) AddTime(elems int) float64 {
	return mc.Add.Time(float64(elems), 0, 0)
}

// SendTime returns the modelled time to transfer bytes between two nodes.
func (mc *Machine) SendTime(bytes int) float64 {
	return mc.Latency + float64(bytes)/mc.Bandwidth
}

// NodeOf returns the SMP node hosting processor p (identity for NodeSize<=1).
func (mc *Machine) NodeOf(p int) int {
	if mc.NodeSize <= 1 {
		return p
	}
	return p / mc.NodeSize
}

// SendTimeBetween returns the modelled transfer time from processor p to
// processor q: the intra-node model when both live on the same SMP node,
// the network model otherwise.
func (mc *Machine) SendTimeBetween(p, q, bytes int) float64 {
	if mc.NodeSize > 1 && mc.NodeOf(p) == mc.NodeOf(q) {
		return mc.IntraLatency + float64(bytes)/mc.IntraBandwidth
	}
	return mc.SendTime(bytes)
}

// WithSMPNodes returns a copy of the machine grouped into SMP nodes of the
// given size, with shared-memory-like intra-node communication — the
// architecture the paper's conclusion targets ("a modified version of our
// strategy to take into account architectures based on SMP nodes").
func (mc *Machine) WithSMPNodes(nodeSize int) *Machine {
	m := *mc
	m.Name = fmt.Sprintf("%s-smp%d", mc.Name, nodeSize)
	m.NodeSize = nodeSize
	m.IntraLatency = 2e-6
	m.IntraBandwidth = 300e6
	return &m
}

// CholRatio returns the LLᵀ-over-LDLᵀ kernel speed ratio (1 when unset).
func (mc *Machine) CholRatio() float64 {
	if mc.CholSpeedup > 1 {
		return mc.CholSpeedup
	}
	return 1
}

// SP2 returns an analytic profile of the paper's target: IBM SP2 thin nodes
// with 120 MHz Power2SC processors (480 MFlops peak), ESSL-like sustained
// rates (~300 MFlops on large DGEMM, cf. the paper's 1024² LLᵀ in 1.07 s),
// and the SP2 high-performance switch (~40 µs MPI latency, ~35 MB/s
// sustained).
func SP2() *Machine {
	const (
		gemmRate   = 300e6 // flops/s sustained on BLAS3
		factorRate = 260e6 // dense LDLᵀ is less cache-friendly (paper §3)
		trsmRate   = 280e6
		addRate    = 60e6 // element-wise adds are memory bound
		overhead   = 3e-6 // per-kernel-call overhead
	)
	m := &Machine{
		Name:        "ibm-sp2-power2sc",
		Latency:     40e-6,
		Bandwidth:   35e6,
		PeakFlops:   480e6,
		CholSpeedup: 1.27 / 1.07, // paper §3: ESSL LLᵀ vs LDLᵀ on 1024²
	}
	m.Gemm.Coef = [8]float64{overhead, 0, 0, 0, 1e-9, 0, 0, 2 / gemmRate}
	m.Trsm.Coef = [8]float64{overhead, 0, 0, 0, 0, 0, 0, 0}
	m.trsmSquare = 2.0 / trsmRate // Trsm(r,w): 2·r·w² flop-time
	m.Factor.Coef = [8]float64{overhead, 0, 0, 0, 0, 0, 0, 0}
	m.factorCube = 2.0 / 3.0 / factorRate // Factor(w): 2·w³/3 flop-time
	m.Add.Coef = [8]float64{1e-6, 1 / addRate, 0, 0, 0, 0, 0, 0}
	return m
}

// FitLS solves the least-squares problem min ‖X·c − y‖₂ by normal equations
// with a Cholesky solve (adding a tiny ridge for rank safety). rows of x are
// basis evaluations.
func FitLS(x [][]float64, y []float64) ([]float64, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("cost: bad least-squares input")
	}
	p := len(x[0])
	// Column equilibration: the basis spans ~7 orders of magnitude between
	// the constant term and m·n·k, which would square into a hopeless
	// condition number for the normal matrix.
	colScale := make([]float64, p)
	for _, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("cost: ragged design matrix")
		}
		for i, v := range row {
			colScale[i] += v * v
		}
	}
	for i := range colScale {
		if colScale[i] > 0 {
			colScale[i] = 1 / math.Sqrt(colScale[i])
		} else {
			colScale[i] = 1
		}
	}
	// Normal matrix (column-major p×p) and rhs, in scaled coordinates.
	ata := make([]float64, p*p)
	aty := make([]float64, p)
	for r, row := range x {
		for i := 0; i < p; i++ {
			si := row[i] * colScale[i]
			aty[i] += si * y[r]
			for j := 0; j <= i; j++ {
				ata[i+j*p] += si * row[j] * colScale[j]
			}
		}
	}
	// Ridge: keeps the normal matrix SPD when a basis column is degenerate
	// over the sampled sizes.
	scale := 0.0
	for i := 0; i < p; i++ {
		if ata[i+i*p] > scale {
			scale = ata[i+i*p]
		}
	}
	ridge := math.Max(scale*1e-12, 1e-30)
	for i := 0; i < p; i++ {
		ata[i+i*p] += ridge
	}
	if err := blas.Cholesky(p, ata, p); err != nil {
		return nil, fmt.Errorf("cost: normal equations not SPD: %w", err)
	}
	blas.TrsvLower(p, ata, p, aty)
	blas.TrsvLowerTrans(p, ata, p, aty)
	for i := range aty {
		aty[i] *= colScale[i]
	}
	return aty, nil
}

// CalibrateLocal measures this host's pure-Go kernels over a grid of sizes
// and fits the polynomial models, returning a Machine profile for running
// real (goroutine-backed) parallel factorizations. quick shrinks the grid
// for use in tests.
func CalibrateLocal(quick bool) (*Machine, error) {
	sizes := []int{8, 16, 32, 64, 96, 128}
	reps := 3
	if quick {
		sizes = []int{8, 16, 32, 48}
		reps = 1
	}
	m := &Machine{
		Name: "local-go",
		// In-process channel "network": high bandwidth, low latency. These
		// constants shape the scheduler's view of goroutine message passing.
		Latency:   2e-6,
		Bandwidth: 4e9,
		PeakFlops: 0,
	}

	var gx [][]float64
	var gy []float64
	for _, mm := range sizes {
		for _, kk := range sizes {
			nn := kk
			a := make([]float64, mm*kk)
			b := make([]float64, nn*kk)
			c := make([]float64, mm*nn)
			d := make([]float64, kk)
			fill(a)
			fill(b)
			fill(c)
			fill(d)
			t := timeIt(reps, func() { blas.GemmNDT(mm, nn, kk, a, mm, d, b, nn, c, mm) })
			gx = append(gx, basisRow(float64(mm), float64(nn), float64(kk)))
			gy = append(gy, t)
		}
	}
	coef, err := FitLS(gx, gy)
	if err != nil {
		return nil, err
	}
	copy(m.Gemm.Coef[:], coef)

	var tx [][]float64
	var ty []float64
	for _, r := range sizes {
		for _, w := range sizes {
			l := make([]float64, w*w)
			b := make([]float64, r*w)
			fill(l)
			fill(b)
			for j := 0; j < w; j++ {
				l[j+j*w] = 1
			}
			t := timeIt(reps, func() { blas.TrsmRightLTransUnit(r, w, l, w, b, r) })
			tx = append(tx, basisRow(float64(r), float64(w), float64(w)))
			ty = append(ty, t)
		}
	}
	if coef, err = FitLS(tx, ty); err != nil {
		return nil, err
	}
	copy(m.Trsm.Coef[:], coef)

	var fx [][]float64
	var fy []float64
	for _, w := range sizes {
		src := make([]float64, w*w)
		for j := 0; j < w; j++ {
			src[j+j*w] = float64(w) + 1
			for i := j + 1; i < w; i++ {
				src[i+j*w] = -0.5 / float64(w)
			}
		}
		a := make([]float64, w*w)
		t := timeIt(reps, func() {
			copy(a, src)
			_ = blas.LDLT(w, a, w)
		})
		fx = append(fx, basisRow(float64(w), float64(w), float64(w)))
		fy = append(fy, t)
	}
	if coef, err = FitLS(fx, fy); err != nil {
		return nil, err
	}
	copy(m.Factor.Coef[:], coef)

	var ax [][]float64
	var ay []float64
	for _, sz := range []int{64, 512, 4096, 16384} {
		src := make([]float64, sz)
		dst := make([]float64, sz)
		fill(src)
		t := timeIt(reps, func() {
			for i, v := range src {
				dst[i] += v
			}
		})
		ax = append(ax, basisRow(float64(sz), 0, 0))
		ay = append(ay, t)
	}
	if coef, err = FitLS(ax, ay); err != nil {
		return nil, err
	}
	copy(m.Add.Coef[:], coef)
	return m, nil
}

func fill(x []float64) {
	for i := range x {
		x[i] = 1 + float64(i%7)*0.125
	}
}

func timeIt(reps int, f func()) float64 {
	f() // warm up
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		f()
		if t := time.Since(start).Seconds(); t < best {
			best = t
		}
	}
	return best
}
