package solver

import (
	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// FactorizeSeq runs the right-looking sequential supernodal LDLᵀ
// factorization: the reference whose bits the shared, dynamic and fan-out
// drivers reproduce, and which mpsim matches to aggregation rounding.
func FactorizeSeq(a *sparse.SymMatrix, sym *symbolic.Symbol) (*Factors, error) {
	return FactorizeSeqPivot(a, sym, StaticPivot{})
}

// FactorizeSeqPivot is FactorizeSeq with static pivoting: pivots below
// τ = sp.Epsilon·‖A‖_max are substituted instead of aborting, and the
// resulting report is attached to the factor (Factors.Pivots). The zero
// StaticPivot reproduces FactorizeSeq bit for bit.
func FactorizeSeqPivot(a *sparse.SymMatrix, sym *symbolic.Symbol, sp StaticPivot) (*Factors, error) {
	tau, normMax := pivotThreshold(sp, a)
	f, perts, err := factorizeSeq(a, sym, tau, sym.NumCB())
	if err != nil {
		return nil, err
	}
	return realFactors(f, sp, normMax, perts), nil
}

// factorizeSeq is the sequential reference for either scalar type, with
// static-pivot threshold tau (0 disables pivoting). It eliminates the first
// cells column blocks, right-looking: each one's updates go to their
// targets in the canonical order as soon as it is factored. The cells left
// hold the assembled matrix with every update of the eliminated ones.
func factorizeSeq[T blas.Scalar](a *sparse.Sym[T], sym *symbolic.Symbol, tau float64, cells int) (*Storage[T], []Perturbation, error) {
	f := newStorage[T](sym, true)
	for k := range sym.CB {
		if err := f.AssembleCell(a, k, 0, a.N); err != nil {
			return nil, nil, err
		}
	}
	var log pivotLog
	for k := range cells {
		if err := factorDiag(f, k, tau, &log, nil, 0); err != nil {
			return nil, nil, err
		}
		f.SolvePanel(k)
		d := f.Diag(k)
		if err := applyUpdates(f, k, f.Data[k], invert(d)); err != nil {
			return nil, nil, err
		}
		f.ScalePanel(k, d)
	}
	return f, log.perts, nil
}

// realFactors wraps a finished float64 factorization, attaching the
// perturbation report when pivoting was enabled.
func realFactors(s *Storage[float64], sp StaticPivot, normMax float64, perts []Perturbation) *Factors {
	f := &Factors{Storage: *s}
	if sp.Enabled() {
		f.Pivots = buildReport(sp, normMax, perts, s)
	}
	return f
}

// Solve solves A·x = b given the factor (L, D), reading each column block
// as its panel form (see panels): the strided cells of a dense factor, or
// the dense and U·Vᵀ blocks of a compressed one. This is the reference the
// solve engines are measured against. b is not modified; the solution is
// returned.
func (f *Factors) Solve(b []float64) []float64 {
	x := append([]float64(nil), b...)
	solvePanels(f.Sym, f.panels(), x)
	return x
}

// Solve solves A·x = b with the strided factor: the same panel-form
// reference as Factors.Solve, for either scalar type.
func (f *Storage[T]) Solve(b []T) []T {
	x := append([]T(nil), b...)
	solvePanels(f.Sym, panels[T](f), x)
	return x
}

// solvePanels overwrites x, holding b, with the solution of A·x = b, one
// column block k at a time through the cell routines of panels. Forward:
// L_kk y_k = x_k, then one product of the whole off-diagonal panel, t =
// −P_k·y_k, whose rows are added to the entries they face (x_i + t_i).
// Diagonal and backward: x_k = D_k⁻¹ y_k, one product x_k −= P_kᵀ·x_R over
// the entries the panel rows face, then L_kkᵀ x_k = x_k. Every element thus
// takes its contributions one source cell at a time in ascending order, and
// each backward column one sum over its whole panel: the sequence the
// level-set engine repeats, whatever the schedule.
func solvePanels[T blas.Scalar](sym *symbolic.Symbol, p panels[T], x []T) {
	rows := sym.PanelRows()
	rbMax := 0
	for k := range sym.CB {
		rbMax = max(rbMax, sym.CB[k].RowsBelow())
	}
	t := make([]T, rbMax)
	off := 0
	for k := range sym.CB {
		cb := &sym.CB[k]
		rb := cb.RowsBelow()
		p.forward(k, true, 0, rb, x[cb.Cols[0]:cb.Cols[1]], t)
		for r, i := range rows[off : off+rb] {
			x[i] += t[r]
		}
		off += rb
	}
	for k := len(sym.CB) - 1; k >= 0; k-- {
		cb := &sym.CB[k]
		off -= cb.RowsBelow()
		p.backward(k, true, 0, cb.Width(), x, t, rows[off:off+cb.RowsBelow()])
	}
}

// addTo adds the first len(y) entries of t into y: y_i + t_i.
func addTo[T blas.Scalar](y, t []T) {
	t = t[:len(y)]
	for i := range y {
		y[i] += t[i]
	}
}

// Refine performs one step of iterative refinement of x for A·x = b and
// returns the refined solution (a is the same permuted matrix the factor was
// built from).
func (f *Factors) Refine(a *sparse.SymMatrix, b, x []float64) []float64 {
	r := make([]float64, a.N)
	a.MatVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	dx := f.Solve(r)
	out := make([]float64, a.N)
	for i := range out {
		out[i] = x[i] + dx[i]
	}
	return out
}
