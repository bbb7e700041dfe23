package solver

import (
	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// factorizeSeq is the right-looking sequential supernodal LDLᵀ
// factorization (RuntimeSequential): the reference whose bits the shared
// and dynamic drivers reproduce, and which mpsim matches to aggregation
// rounding. It runs for either scalar type, with static-pivot threshold tau
// (0 disables pivoting), and eliminates the first cells column blocks: each
// one's updates go to their targets in the canonical order as soon as it is
// factored. The cells left hold the assembled matrix with every update of
// the eliminated ones.
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
// column block at a time through cellSweep: forward in ascending order,
// then diagonal and backward in descending order. Every element thus takes
// its contributions one source cell at a time in ascending order, and each
// backward column one sum over its whole panel: the sequence the level-set
// engine repeats, whatever the schedule.
func solvePanels[T blas.Scalar](sym *symbolic.Symbol, p panels[T], x []T) {
	tOff, rbMax := panelOffsets(sym)
	s := cellSweep[T]{p: p, rows: sym.PanelRows(), tOff: tOff, slot: make([]int32, len(tOff)),
		x: x, t: make([]T, rbMax), n: len(x), nrhs: 1}
	for k := range sym.CB {
		s.forward(k)
	}
	for k := len(sym.CB) - 1; k >= 0; k-- {
		s.backward(k, true, 0, sym.CB[k].Width())
	}
}

// panelOffsets returns where each cell's rows start in the panel row index
// and the longest panel.
func panelOffsets(sym *symbolic.Symbol) (tOff []int32, rbMax int) {
	tOff = make([]int32, sym.NumCB()+1)
	for k := range sym.CB {
		rb := sym.CB[k].RowsBelow()
		tOff[k+1] = tOff[k] + int32(rb)
		rbMax = max(rbMax, rb)
	}
	return tOff, rbMax
}

// cellSweep runs cells on one worker, on each column of the n×nrhs panel x:
// every cell of the reference, and each level-set worker's owned cells and
// part of the shared cells' backward sweep. Cell k's panel faces x at
// rows[tOff[k]:tOff[k+1]]; the last slot[k+1]−slot[k] of them go to rows
// [slot[k], slot[k+1]) of each nt-row column of the contribution buffer
// out. t is scratch of the longest panel.
type cellSweep[T blas.Scalar] struct {
	p                panels[T]
	rows, tOff, slot []int32
	x, out, t        []T
	n, nt, nrhs      int
}

// forward runs cell k's whole forward solve on each column of x, pushing
// its product t = −P_k·y_k straight into x, but for the rows with a slot.
func (s *cellSweep[T]) forward(k int) {
	o0, o1 := int(s.slot[k]), int(s.slot[k+1])
	push := s.rows[s.tOff[k] : int(s.tOff[k+1])-(o1-o0)]
	for c := 0; c < s.nrhs; c++ {
		s.p.push(k, s.x[c*s.n:(c+1)*s.n], push, s.t, s.out[c*s.nt+o0:c*s.nt+o1])
	}
}

// backward runs columns [lo, hi) of cell k's backward solve on each column
// of x, then with tri its transposed triangle.
func (s *cellSweep[T]) backward(k int, tri bool, lo, hi int) {
	rows := s.rows[s.tOff[k]:s.tOff[k+1]]
	for c := 0; c < s.nrhs; c++ {
		s.p.backward(k, tri, lo, hi, s.x[c*s.n:(c+1)*s.n], s.t, rows)
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
