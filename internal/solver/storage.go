// Package solver is the PaStiX core: it assembles the block factor storage,
// runs the LDLᵀ factorization — sequentially as a reference, or in parallel
// with the paper's supernodal fan-in algorithm driven entirely by the static
// schedule (Fig. 1) — and performs the triangular solves.
package solver

import (
	"fmt"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// Storage is the block factor L and diagonal D of one scalar type. Each
// column block k is a column-major dense array of LD[k] rows × Width(k)
// columns: rows [0,w) are the diagonal block (strictly-lower part =
// unit-lower L, diagonal = D), and each off-diagonal block b occupies rows
// [BlockOff[k][b], BlockOff[k][b]+rows(b)). The shape tables depend on the
// symbolic structure alone, so one analysis serves both scalar types.
type Storage[T blas.Scalar] struct {
	Sym      *symbolic.Symbol
	Data     [][]T
	LD       []int
	BlockOff [][]int
}

// Factors is the real (float64) factor: its Storage plus the pivoting
// report and the block low-rank accounting.
type Factors struct {
	Storage[float64]
	// Pivots is the static-pivoting report of the factorization that produced
	// this factor; nil when pivoting was disabled. Present (with an empty
	// Perturbed list) whenever pivoting was enabled, even if no pivot needed
	// substitution.
	Pivots *PerturbationReport

	// lrCells is the block low-rank form Compress builds from the strided
	// cells, which it releases (Data is nil then); nil for a dense factor.
	// comp carries the byte accounting of a compression pass and is nil for
	// a dense factor.
	lrCells []lrCell
	comp    *CompressionStats
}

// ZFactors is the complex symmetric factor (unit-lower complex L, complex
// diagonal D) in the same block layout.
type ZFactors = Storage[complex128]

// NewFactors allocates zeroed storage for every column block of sym.
func NewFactors(sym *symbolic.Symbol) *Factors {
	return &Factors{Storage: *newStorage[float64](sym, true)}
}

// NewFactorsLazy prepares the shape tables without allocating cell data;
// parallel processors allocate only the cells they own parts of.
func NewFactorsLazy(sym *symbolic.Symbol) *Factors {
	return &Factors{Storage: *newStorage[float64](sym, false)}
}

// newStorage builds the shape tables of sym and, when alloc is set, zeroed
// arrays for every cell.
func newStorage[T blas.Scalar](sym *symbolic.Symbol, alloc bool) *Storage[T] {
	ncb := sym.NumCB()
	f := &Storage[T]{
		Sym:      sym,
		Data:     make([][]T, ncb),
		LD:       make([]int, ncb),
		BlockOff: make([][]int, ncb),
	}
	for k := range sym.CB {
		cb := &sym.CB[k]
		w := cb.Width()
		off := make([]int, len(cb.Blocks))
		pos := w
		for b := range cb.Blocks {
			off[b] = pos
			pos += cb.Blocks[b].Rows()
		}
		f.LD[k] = pos
		f.BlockOff[k] = off
		if alloc {
			f.EnsureCell(k)
		}
	}
	return f
}

// EnsureCell allocates cell k's array if absent.
func (f *Storage[T]) EnsureCell(k int) {
	if f.Data[k] == nil {
		f.Data[k] = make([]T, f.LD[k]*f.Sym.CB[k].Width())
	}
}

// LocateRow maps a global row index to the local row offset inside cell k's
// array, or -1 when the row is not in k's structure.
func (f *Storage[T]) LocateRow(k, row int) int {
	cb := &f.Sym.CB[k]
	if row >= cb.Cols[0] && row < cb.Cols[1] {
		return row - cb.Cols[0]
	}
	if b := cb.BlockContaining(row, row+1); b >= 0 {
		return f.BlockOff[k][b] + row - cb.Blocks[b].FirstRow
	}
	return -1
}

// AssembleCell scatters into cell k's array the entries of the permuted
// matrix a in k's columns whose row lies in [lo, hi): [0, a.N) for the whole
// cell, [Cols[0], Cols[1]) for its diagonal block (the FACTOR(k) owner's
// region in a 2D distribution), a block's [FirstRow, LastRow) for that
// block (the BDIV owner's). A row in the range but outside the symbolic
// structure is an error (the structure must cover the matrix).
func (f *Storage[T]) AssembleCell(a *sparse.Sym[T], k, lo, hi int) error {
	f.EnsureCell(k)
	cb := &f.Sym.CB[k]
	ld, data := f.LD[k], f.Data[k]
	for j := cb.Cols[0]; j < cb.Cols[1]; j++ {
		lc := j - cb.Cols[0]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if i < lo || i >= hi {
				continue
			}
			lr := f.LocateRow(k, i)
			if lr < 0 {
				return fmt.Errorf("solver: entry (%d,%d) outside symbolic structure of cb %d", i, j, k)
			}
			data[lr+lc*ld] = a.Val[p]
		}
	}
	return nil
}

// Diag returns a copy of the diagonal vector D of cell k.
func (f *Storage[T]) Diag(k int) []T {
	w := f.Sym.CB[k].Width()
	d := make([]T, w)
	ld := f.LD[k]
	for j := 0; j < w; j++ {
		d[j] = f.Data[k][j+j*ld]
	}
	return d
}

// panels is how the triangular solves read a factor, one column block k at
// a time (the paper's COMP1D unit): its w×w diagonal block (unit-lower L
// and D) and the panel P_k of its RowsBelow off-diagonal rows, in block
// order. A dense factor serves both in place from its strided cells; a
// compressed one block by block (blrPanels). Both sweeps of every solve
// engine run each cell through these routines, so a split shared cell
// takes its row or column range and its triangle in separate calls.
type panels[T blas.Scalar] interface {
	// forward runs cell k's forward solve on its segment xk, which holds
	// b_k plus every incoming contribution: with tri, the unit-lower
	// triangle L_kk·y_k = xk in place; then t[i] = −(P_k·y_k)_i, summed from
	// +0, for the panel rows i in [lo, hi).
	forward(k int, tri bool, lo, hi int, xk, t []T)
	// push runs cell k's whole forward solve on x and adds the first
	// len(rows) rows of t = −P_k·y_k straight into x at rows, x_i + t_r, the
	// others to out. t is scratch of the panel's length.
	push(k int, x []T, rows []int32, t, out []T)
	// backward runs cell k's backward solve on the solution x: for the
	// columns j in [lo, hi), x_j/d_j − (P_kᵀ·x_R)_j, with x_R the entries
	// the panel rows face (rows holds their indices, g is scratch of as
	// many entries); then with tri the transposed unit triangle
	// L_kkᵀ·x_k = x_k in place.
	backward(k int, tri bool, lo, hi int, x, g []T, rows []int32)
}

// forward is one CellForward.
func (f *Storage[T]) forward(k int, tri bool, lo, hi int, xk, t []T) {
	blas.KernelsOf[T]().CellForward(len(xk), lo, hi, tri, f.Data[k], f.LD[k], xk, t)
}

// push is forward into t, then pushRows. A one-column cell without a slot
// fuses the two in CellForward's sequence: x_i + ((p_r·(−x_0)) + 0), and
// x_i + 0 when x_0 == 0.
func (f *Storage[T]) push(k int, x []T, rows []int32, t, out []T) {
	c0, w := f.Sym.CB[k].Cols[0], f.Sym.CB[k].Width()
	if w > 1 || len(out) > 0 {
		f.forward(k, true, 0, len(rows)+len(out), x[c0:c0+w], t)
		pushRows(x, rows, t, out)
	} else if nx := -x[c0]; nx == 0 {
		for _, i := range rows {
			x[i] += 0
		}
	} else {
		p := f.Data[k][1 : 1+len(rows)]
		for r, i := range rows {
			x[i] += T(p[r]*nx) + 0
		}
	}
}

// pushRows adds the first len(rows) entries of t into the entries of x
// that rows names, x_i + t_r, and copies the next len(out) into out.
func pushRows[T blas.Scalar](x []T, rows []int32, t, out []T) {
	for r, i := range rows {
		x[i] += t[r]
	}
	copy(out, t[len(rows):])
}

// backward reads the facing x through rows: one-column cells inline, wider
// ones gather it into g for one CellBackward.
func (f *Storage[T]) backward(k int, tri bool, lo, hi int, x, g []T, rows []int32) {
	a := f.Data[k]
	c0, w := f.Sym.CB[k].Cols[0], f.Sym.CB[k].Width()
	if w > 1 {
		if lo < hi {
			g = g[:len(rows)]
			for r, i := range rows {
				g[r] = x[i]
			}
		}
		blas.KernelsOf[T]().CellBackward(w, len(rows), lo, hi, tri, a, f.LD[k], g, x[c0:c0+w])
		return
	}
	// CellBackward's sequence on one column: the division, then one sum
	// from +0 in ascending panel row order, subtracted once.
	if lo < hi {
		xj := x[c0] / a[0]
		if len(rows) > 0 {
			var s T
			p := a[1 : 1+len(rows)]
			for r, i := range rows {
				s += T(p[r] * x[i])
			}
			xj -= s
		}
		x[c0] = xj
	}
}

// panels returns the factor's panel form: the strided cells, or the
// compressed ones after Compress.
func (f *Factors) panels() panels[float64] {
	if f.lrCells != nil {
		return blrPanels{f}
	}
	return &f.Storage
}

// invert returns the elementwise reciprocals 1/d.
func invert[T blas.Scalar](d []T) []T {
	inv := make([]T, len(d))
	for i, v := range d {
		inv[i] = 1 / v
	}
	return inv
}

// NNZ returns the resident factor entries (block model; compressed cells
// count their U/V values, not the dense blocks they replaced).
func (f *Factors) NNZ() int64 {
	if f.lrCells != nil {
		return nnzOf(f.lrCells)
	}
	var t int64
	for k := range f.Data {
		t += int64(len(f.Data[k]))
	}
	return t
}

// FactorDiagStatic factors cell k's diagonal block in place (dense LDLᵀ)
// with a static-pivot threshold: pivots with |d| < tau are substituted by
// sign(d)·tau and returned as Perturbations carrying global
// (permuted-system) column indices; tau <= 0 disables the substitution. A
// pivot breakdown is reported as a *ZeroPivotError (matching ErrNotSPD)
// with the global column.
func (f *Storage[T]) FactorDiagStatic(k int, tau float64) ([]Perturbation, error) {
	cb := &f.Sym.CB[k]
	ps, err := blas.KernelsOf[T]().LDLT(cb.Width(), f.Data[k], f.LD[k], tau)
	if err != nil {
		return nil, wrapPivot(cb.Cols[0], k, err)
	}
	if len(ps) == 0 {
		return nil, nil
	}
	perts := make([]Perturbation, len(ps))
	for i, p := range ps {
		perts[i] = Perturbation{Column: cb.Cols[0] + p.Index, Original: p.Original, Used: p.Used}
	}
	return perts, nil
}

// SolvePanel computes W = A_panel · L_kk^{-ᵀ} in place over the whole
// off-diagonal panel of cell k (the result is W = L·D, not yet scaled).
func (f *Storage[T]) SolvePanel(k int) {
	cb := &f.Sym.CB[k]
	w := cb.Width()
	r := cb.RowsBelow()
	if r == 0 {
		return
	}
	ld := f.LD[k]
	blas.KernelsOf[T]().TrsmRightLTransUnit(r, w, f.Data[k], ld, f.Data[k][w:], ld)
}

// ScalePanel divides the panel columns by D, turning W into L.
func (f *Storage[T]) ScalePanel(k int, d []T) {
	cb := &f.Sym.CB[k]
	w := cb.Width()
	r := cb.RowsBelow()
	if r == 0 {
		return
	}
	ld := f.LD[k]
	blas.ScaleColumns(r, w, f.Data[k][w:], ld, d)
}
