// Package solver is the PaStiX core: it assembles the block factor storage,
// runs the LDLᵀ factorization — sequentially as a reference, or in parallel
// with the paper's supernodal fan-in algorithm driven entirely by the static
// schedule (Fig. 1) — and performs the triangular solves.
package solver

import (
	"fmt"
	"sort"

	"github.com/pastix-go/pastix/internal/blas"
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

	// lrCells is the factor's one resident form once factorization returns:
	// every strided cell repacked in place (repack), or the block low-rank
	// form Compress builds from those. Data is released either way, and
	// every solve path reads the cells. comp carries the byte accounting of
	// a compression pass and is nil for a dense factor.
	lrCells []lrCell
	comp    *CompressionStats
}

// ZFactors is the complex symmetric factor (unit-lower complex L, complex
// diagonal D) in the same block layout.
type ZFactors = Storage[complex128]

// symMatrix is the sparse symmetric input of a factorization:
// *sparse.SymMatrix or *sparse.ZSymMatrix.
type symMatrix[T blas.Scalar] interface {
	CSC() (colPtr, rowIdx []int, val []T)
}

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
	blocks := cb.Blocks
	i := sort.Search(len(blocks), func(b int) bool { return blocks[b].LastRow > row })
	if i < len(blocks) && blocks[i].FirstRow <= row {
		return f.BlockOff[k][i] + row - blocks[i].FirstRow
	}
	return -1
}

// BlockContaining returns the index of the off-diagonal block of cell k
// containing rows [lo,hi), or -1.
func (f *Storage[T]) BlockContaining(k, lo, hi int) int {
	blocks := f.Sym.CB[k].Blocks
	i := sort.Search(len(blocks), func(b int) bool { return blocks[b].LastRow > lo })
	if i < len(blocks) && blocks[i].FirstRow <= lo && blocks[i].LastRow >= hi {
		return i
	}
	return -1
}

// AssembleCell scatters the entries of the permuted matrix a belonging to
// cell k into the cell's array. Rows outside the symbolic structure are an
// error (the structure must cover the matrix).
func (f *Storage[T]) AssembleCell(a symMatrix[T], k int) error {
	f.EnsureCell(k)
	colPtr, rowIdx, val := a.CSC()
	cb := &f.Sym.CB[k]
	ld := f.LD[k]
	data := f.Data[k]
	for j := cb.Cols[0]; j < cb.Cols[1]; j++ {
		lc := j - cb.Cols[0]
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			i := rowIdx[p]
			lr := f.LocateRow(k, i)
			if lr < 0 {
				return fmt.Errorf("solver: entry (%d,%d) outside symbolic structure of cb %d", i, j, k)
			}
			data[lr+lc*ld] = val[p]
		}
	}
	return nil
}

// AssembleDiagRegion scatters only the diagonal-block entries of cell k
// (used by the processor owning FACTOR(k) in 2D distribution).
func (f *Storage[T]) AssembleDiagRegion(a symMatrix[T], k int) error {
	f.EnsureCell(k)
	colPtr, rowIdx, val := a.CSC()
	cb := &f.Sym.CB[k]
	ld := f.LD[k]
	data := f.Data[k]
	for j := cb.Cols[0]; j < cb.Cols[1]; j++ {
		lc := j - cb.Cols[0]
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			i := rowIdx[p]
			if i >= cb.Cols[1] {
				break
			}
			data[(i-cb.Cols[0])+lc*ld] = val[p]
		}
	}
	return nil
}

// AssembleBlockRegion scatters only block b's entries of cell k (used by the
// processor owning BDIV(b,k)).
func (f *Storage[T]) AssembleBlockRegion(a symMatrix[T], k, b int) error {
	f.EnsureCell(k)
	colPtr, rowIdx, val := a.CSC()
	cb := &f.Sym.CB[k]
	blk := cb.Blocks[b]
	ld := f.LD[k]
	data := f.Data[k]
	off := f.BlockOff[k][b]
	for j := cb.Cols[0]; j < cb.Cols[1]; j++ {
		lc := j - cb.Cols[0]
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			i := rowIdx[p]
			if i < blk.FirstRow {
				continue
			}
			if i >= blk.LastRow {
				break
			}
			data[off+(i-blk.FirstRow)+lc*ld] = val[p]
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

// Diag returns a copy of the diagonal vector D of cell k, read from the
// packed cells once the factorization has finished.
func (f *Factors) Diag(k int) []float64 {
	if f.lrCells == nil {
		return f.Storage.Diag(k)
	}
	w := f.Sym.CB[k].Width()
	d := make([]float64, w)
	diag := f.lrCells[k].diag
	for j := 0; j < w; j++ {
		d[j] = diag[j+j*w]
	}
	return d
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

// FactorDiag factors cell k's diagonal block in place (dense LDLᵀ). A pivot
// breakdown is reported as a *ZeroPivotError (matching ErrNotSPD) with the
// global column.
func (f *Storage[T]) FactorDiag(k int) error {
	_, err := f.FactorDiagStatic(k, 0)
	return err
}

// FactorDiagStatic is FactorDiag with a static-pivot threshold: pivots with
// |d| < tau are substituted by sign(d)·tau and returned as Perturbations
// carrying global (permuted-system) column indices. tau <= 0 reproduces
// FactorDiag exactly.
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
