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
func targetOffset(f *Factors, k, s, t int) (cell, offset int, err error) {
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
func applyCellUpdates(f *Factors, k int, invd []float64) error {
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
				blas.SyrkLowerNDT(rs, w, ws, ld, invd, dst, ldf)
			} else {
				blas.GemmNDT(rs, rt, w, ws, ld, invd, wt, ld, dst, ldf)
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
	f := NewFactors(sym)
	for k := range sym.CB {
		if err := f.AssembleCell(a, k); err != nil {
			return nil, err
		}
	}
	var perts []Perturbation
	for k := range sym.CB {
		ps, err := f.FactorDiagStatic(k, tau)
		if err != nil {
			return nil, err
		}
		perts = append(perts, ps...)
		f.SolvePanel(k)
		d := f.Diag(k)
		invd := make([]float64, len(d))
		for i, v := range d {
			invd[i] = 1 / v
		}
		if err := applyCellUpdates(f, k, invd); err != nil {
			return nil, err
		}
		f.ScalePanel(k, d)
	}
	if sp.Enabled() {
		f.Pivots = buildReport(sp, normMax, perts, f)
	}
	return f, nil
}

// Solve solves A·x = b given the factor (L, D): forward substitution with
// the unit-lower block L, diagonal scaling, then backward substitution with
// Lᵀ. b is not modified; the solution is returned.
func (f *Factors) Solve(b []float64) []float64 {
	if f.lrCells != nil {
		return f.solveCompressed(b)
	}
	sym := f.Sym
	x := append([]float64(nil), b...)
	// Forward: L y = b.
	for k := range sym.CB {
		cb := &sym.CB[k]
		w := cb.Width()
		ld := f.LD[k]
		xk := x[cb.Cols[0]:cb.Cols[1]]
		blas.TrsvLowerUnit(w, f.Data[k], ld, xk)
		for bi := range cb.Blocks {
			blk := &cb.Blocks[bi]
			blas.GemvN(blk.Rows(), w, f.Data[k][f.BlockOff[k][bi]:], ld,
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
			blas.GemvT(blk.Rows(), w, f.Data[k][f.BlockOff[k][bi]:], ld,
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
