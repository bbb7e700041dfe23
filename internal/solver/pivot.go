package solver

import (
	"math"
	"sort"

	"github.com/pastix-go/pastix/internal/sparse"
)

// Numerical-robustness defaults shared by the solver and the public API.
const (
	// DefaultPivotEpsilon is the ε_piv used when static pivoting is requested
	// without an explicit threshold (and the first escalation step of
	// FactorizeRobust). 1e-12 sits above the cancellation noise floor of
	// double-precision supernodal updates but low enough that the induced
	// backward error ≈ ε_piv is recoverable by refinement.
	DefaultPivotEpsilon = 1e-12
	// DefaultRefineTol is the componentwise backward-error target of adaptive
	// refinement when none is configured.
	DefaultRefineTol = 1e-10
	// defaultPivotRetries bounds FactorizeRobust's escalation attempts when
	// StaticPivot.MaxRetries is unset.
	defaultPivotRetries = 3
	// pivotEscalation multiplies ε_piv between FactorizeRobust attempts.
	pivotEscalation = 100
	// defaultMaxRefine bounds adaptive refinement sweeps; the loop normally
	// exits far earlier on convergence or stagnation.
	defaultMaxRefine = 40
)

// StaticPivot configures static pivoting in the numerical factorization: a
// diagonal pivot with |d| < τ = Epsilon·‖A‖_max is replaced by sign(d)·τ and
// recorded, instead of aborting with ErrNotSPD. The zero value disables
// pivoting (bit-identical to the historical kernels).
type StaticPivot struct {
	// Epsilon is ε_piv, the threshold relative to ‖A‖_max. 0 disables
	// pivoting.
	Epsilon float64
	// MaxRetries bounds FactorizeRobust's escalation attempts (each retry
	// multiplies ε_piv by 100); 0 selects the default of 3. It has no effect
	// on plain factorization.
	MaxRetries int
}

// Enabled reports whether static pivoting is active.
func (sp StaticPivot) Enabled() bool { return sp.Epsilon > 0 }

// Perturbation records one static-pivot substitution: the global column
// (original matrix ordering is not applied — Column is in the permuted
// system, identical across runtimes), the pivot found there and the value
// written in its place.
type Perturbation struct {
	Column   int     `json:"column"`
	Original float64 `json:"original"`
	Used     float64 `json:"used"`
}

// PerturbationReport summarizes the static pivoting of one factorization.
// All three runtimes produce bitwise-identical reports for the same matrix
// and ε_piv: the threshold is a pure function of (ε, ‖A‖_max), substitution
// happens inside the same dense kernel, and the perturbation list is sorted
// by column before the report is published.
type PerturbationReport struct {
	// Epsilon is the ε_piv the factorization ran with.
	Epsilon float64 `json:"epsilon"`
	// NormMax is ‖A‖_max of the factorized matrix.
	NormMax float64 `json:"norm_max"`
	// Threshold is τ = Epsilon·NormMax.
	Threshold float64 `json:"threshold"`
	// Perturbed lists every substitution, sorted by column; empty when the
	// factorization needed none.
	Perturbed []Perturbation `json:"perturbed,omitempty"`
	// PivotGrowth is max_k |D_k| / ‖A‖_max over the computed factor, the
	// classical growth-factor diagnostic: values far above 1 flag element
	// growth that degrades the factorization's backward stability.
	PivotGrowth float64 `json:"pivot_growth"`
}

// Columns returns the perturbed column indices in ascending order.
func (r *PerturbationReport) Columns() []int {
	if r == nil || len(r.Perturbed) == 0 {
		return nil
	}
	cols := make([]int, len(r.Perturbed))
	for i, p := range r.Perturbed {
		cols[i] = p.Column
	}
	return cols
}

// pivotThreshold returns (τ, ‖A‖_max) for factorizing a under sp.
func pivotThreshold(sp StaticPivot, a *sparse.SymMatrix) (tau, normMax float64) {
	if !sp.Enabled() {
		return 0, 0
	}
	normMax = a.NormMax()
	return sp.Epsilon * normMax, normMax
}

// buildReport assembles the published report from the collected
// perturbations and the finished factor (for the growth diagnostic). The
// perturbation slice is sorted in place by column so per-processor
// collection order never leaks into the report.
func buildReport(sp StaticPivot, normMax float64, perts []Perturbation, f *Storage[float64]) *PerturbationReport {
	sort.Slice(perts, func(i, j int) bool { return perts[i].Column < perts[j].Column })
	maxD := 0.0
	for k := range f.Sym.CB {
		w := f.Sym.CB[k].Width()
		ld := f.LD[k]
		data := f.Data[k]
		if data == nil {
			continue
		}
		for j := 0; j < w; j++ {
			if d := math.Abs(data[j+j*ld]); d > maxD {
				maxD = d
			}
		}
	}
	growth := 0.0
	if normMax > 0 {
		growth = maxD / normMax
	}
	return &PerturbationReport{
		Epsilon:     sp.Epsilon,
		NormMax:     normMax,
		Threshold:   sp.Epsilon * normMax,
		Perturbed:   perts,
		PivotGrowth: growth,
	}
}
