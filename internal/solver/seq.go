package solver

import (
	"fmt"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// targetOffset computes where the (s,t) contribution of cell k lands: the
// destination cell, the linear offset of the region's top-left corner in
// that cell's array, and whether the target is the (triangular) diagonal
// region with s == t.
func targetOffset[T blas.Scalar](f *Storage[T], k, s, t int) (cell, offset int, err error) {
	cb := &f.Sym.CB[k]
	bt := cb.Blocks[t]
	bs := cb.Blocks[s]
	fcell := bt.Facing
	fcb := &f.Sym.CB[fcell]
	lc := bt.FirstRow - fcb.Cols[0]
	var lr int
	if bs.Facing == fcell {
		lr = bs.FirstRow - fcb.Cols[0]
	} else {
		b := f.BlockContaining(fcell, bs.FirstRow, bs.LastRow)
		if b < 0 {
			return 0, 0, fmt.Errorf("solver: contribution rows [%d,%d) of cb %d not in cb %d",
				bs.FirstRow, bs.LastRow, k, fcell)
		}
		lr = f.BlockOff[fcell][b] + bs.FirstRow - f.Sym.CB[fcell].Blocks[b].FirstRow
	}
	return fcell, lr + lc*f.LD[fcell], nil
}

// applyCellUpdates computes all outer-product contributions of cell k
// (whose panel currently holds W = L·D) and subtracts them from the target
// cells' arrays in f. invd is 1/D of cell k.
func applyCellUpdates[T blas.Scalar](f *Storage[T], k int, invd []T) error {
	kern := blas.KernelsOf[T]()
	cb := &f.Sym.CB[k]
	w := cb.Width()
	ld := f.LD[k]
	data := f.Data[k]
	for t := range cb.Blocks {
		bt := &cb.Blocks[t]
		rt := bt.Rows()
		wt := data[f.BlockOff[k][t]:]
		for s := t; s < len(cb.Blocks); s++ {
			bs := &cb.Blocks[s]
			rs := bs.Rows()
			fcell, off, err := targetOffset(f, k, s, t)
			if err != nil {
				return err
			}
			f.EnsureCell(fcell)
			dst := f.Data[fcell][off:]
			ldf := f.LD[fcell]
			ws := data[f.BlockOff[k][s]:]
			if s == t {
				kern.SyrkLowerNDT(rs, w, ws, ld, invd, dst, ldf)
			} else {
				kern.GemmNDT(rs, rt, w, ws, ld, invd, wt, ld, dst, ldf)
			}
		}
	}
	return nil
}

// FactorizeSeq runs the right-looking sequential supernodal LDLᵀ
// factorization — the reference the parallel solver must match bit-for-bit
// in structure and to rounding in values.
func FactorizeSeq(a *sparse.SymMatrix, sym *symbolic.Symbol) (*Factors, error) {
	return FactorizeSeqPivot(a, sym, StaticPivot{})
}

// FactorizeSeqPivot is FactorizeSeq with static pivoting: pivots below
// τ = sp.Epsilon·‖A‖_max are substituted instead of aborting, and the
// resulting report is attached to the factor (Factors.Pivots). The zero
// StaticPivot reproduces FactorizeSeq bit for bit.
func FactorizeSeqPivot(a *sparse.SymMatrix, sym *symbolic.Symbol, sp StaticPivot) (*Factors, error) {
	tau, normMax := pivotThreshold(sp, a)
	f, perts, err := factorizeSeq(a, sym, tau)
	if err != nil {
		return nil, err
	}
	return realFactors(f, sp, normMax, perts), nil
}

// factorizeSeq is the sequential reference for either scalar type, with
// static-pivot threshold tau (0 disables pivoting).
func factorizeSeq[T blas.Scalar](a symMatrix[T], sym *symbolic.Symbol, tau float64) (*Storage[T], []Perturbation, error) {
	f := newStorage[T](sym, true)
	for k := range sym.CB {
		if err := f.AssembleCell(a, k); err != nil {
			return nil, nil, err
		}
	}
	var perts []Perturbation
	for k := range sym.CB {
		ps, err := f.FactorDiagStatic(k, tau)
		if err != nil {
			return nil, nil, err
		}
		perts = append(perts, ps...)
		f.SolvePanel(k)
		d := f.Diag(k)
		if err := applyCellUpdates(f, k, invert(d)); err != nil {
			return nil, nil, err
		}
		f.ScalePanel(k, d)
	}
	return f, perts, nil
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

// Solve solves A·x = b given the factor (L, D): forward substitution with
// the unit-lower block L, diagonal scaling, then backward substitution with
// Lᵀ. b is not modified; the solution is returned.
func (f *Factors) Solve(b []float64) []float64 {
	if f.lrCells != nil {
		return f.solveCompressed(b)
	}
	return f.Storage.Solve(b)
}

// Solve solves A·x = b with the dense factor: the reference the solve
// engines are measured against.
func (f *Storage[T]) Solve(b []T) []T {
	kern := blas.KernelsOf[T]()
	sym := f.Sym
	x := append([]T(nil), b...)
	// Forward: L y = b.
	for k := range sym.CB {
		cb := &sym.CB[k]
		w := cb.Width()
		ld := f.LD[k]
		xk := x[cb.Cols[0]:cb.Cols[1]]
		kern.TrsvLowerUnit(w, f.Data[k], ld, xk)
		for bi := range cb.Blocks {
			blk := &cb.Blocks[bi]
			kern.GemvN(blk.Rows(), w, f.Data[k][f.BlockOff[k][bi]:], ld,
				xk, x[blk.FirstRow:blk.LastRow])
		}
	}
	// Diagonal: z = D⁻¹ y.
	for k := range sym.CB {
		cb := &sym.CB[k]
		ld := f.LD[k]
		for j := 0; j < cb.Width(); j++ {
			x[cb.Cols[0]+j] /= f.Data[k][j+j*ld]
		}
	}
	// Backward: Lᵀ x = z.
	for k := len(sym.CB) - 1; k >= 0; k-- {
		cb := &sym.CB[k]
		w := cb.Width()
		ld := f.LD[k]
		xk := x[cb.Cols[0]:cb.Cols[1]]
		for bi := range cb.Blocks {
			blk := &cb.Blocks[bi]
			kern.GemvT(blk.Rows(), w, f.Data[k][f.BlockOff[k][bi]:], ld,
				x[blk.FirstRow:blk.LastRow], xk)
		}
		blas.TrsvLowerTransUnit(w, f.Data[k], ld, xk)
	}
	return x
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
