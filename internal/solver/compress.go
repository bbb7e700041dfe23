package solver

import (
	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/lowrank"
)

// This file is the block low-rank (BLR) compression pass: after a
// factorization finishes, Compress walks every column block, keeps the
// diagonal block dense (it carries the unit-lower triangle and D, and its
// triangular solves do not profit from a low-rank form), and offers each
// off-diagonal block to the lowrank admission rule. Admitted blocks that
// compress profitably are stored as U·Vᵀ; everything else is re-packed
// dense (leading dimension = block rows, no panel padding), and the
// original strided cell arrays are released. Compression is lossy at the
// configured tolerance — solves on a compressed factor approximate the
// dense solve to ~Tol and are paired with iterative refinement to recover
// accuracy — and is a solve-only format: the message-passing (mpsim)
// runtime and the schedule-driven shared solve read the dense arrays
// directly and refuse compressed factors (ErrCompressed).

// lrCell is the compressed storage of one column block: the packed w×w
// diagonal block, the concatenated packed dense off-diagonal blocks, and
// per off-diagonal block either an offset into dense (off[bi] >= 0) or the
// low-rank form (off[bi] < 0, lr[bi] != nil).
type lrCell struct {
	diag  []float64
	dense []float64
	off   []int32
	lr    []*lowrank.LRBlock
}

// CompressionStats is the byte accounting of one compression pass. Bytes
// count factor values only (8 bytes per float64; index arrays and slice
// headers are negligible and identical either way). DenseBytes is what the
// factor occupied before the pass; CompressedBytes is what it occupies
// after — re-packed dense blocks count at their packed size, so the ratio
// reflects only genuine low-rank wins.
type CompressionStats struct {
	DenseBytes       int64   `json:"dense_bytes"`
	CompressedBytes  int64   `json:"compressed_bytes"`
	Ratio            float64 `json:"ratio"`
	BlocksCompressed int     `json:"blocks_compressed"`
	BlocksTotal      int     `json:"blocks_total"`
}

// Compressed reports whether the factor is in BLR-compressed form.
func (f *Factors) Compressed() bool { return f.lrCells != nil }

// Compression returns the stats of the compression pass, or nil for a dense
// factor.
func (f *Factors) Compression() *CompressionStats {
	if f.comp == nil {
		return nil
	}
	s := *f.comp
	return &s
}

// Compress converts the factor to block low-rank form in place and returns
// the byte accounting. Disabled options (zero Tol) are a no-op; calling
// Compress on an already-compressed factor returns the existing stats. The
// pass must not run concurrently with solves on the same factor: it
// releases the dense arrays and invalidates the packed solve panels.
func (f *Factors) Compress(opts lowrank.Options) CompressionStats {
	if !opts.Enabled() {
		return CompressionStats{}
	}
	if f.lrCells != nil {
		return *f.comp
	}
	sym := f.Sym
	ncb := sym.NumCB()
	cells := make([]lrCell, ncb)
	st := CompressionStats{}
	for k := 0; k < ncb; k++ {
		cb := &sym.CB[k]
		w := cb.Width()
		ld := f.LD[k]
		f.EnsureCell(k)
		data := f.Data[k]
		st.DenseBytes += 8 * int64(ld) * int64(w)

		cell := &cells[k]
		cell.diag = make([]float64, w*w)
		blas.PackPanel(w, w, data, ld, cell.diag)
		nb := len(cb.Blocks)
		cell.off = make([]int32, nb)
		cell.lr = make([]*lowrank.LRBlock, nb)
		st.BlocksTotal += nb

		denseVals := 0
		for bi := 0; bi < nb; bi++ {
			rows := cb.Blocks[bi].Rows()
			if opts.Admit(rows, w) {
				if lb := lowrank.Compress(rows, w, data[f.BlockOff[k][bi]:], ld, opts.Tol); lb != nil {
					cell.lr[bi] = lb
					cell.off[bi] = -1
					st.BlocksCompressed++
					continue
				}
			}
			cell.off[bi] = int32(denseVals)
			denseVals += rows * w
		}
		cell.dense = make([]float64, denseVals)
		for bi := 0; bi < nb; bi++ {
			if o := cell.off[bi]; o >= 0 {
				rows := cb.Blocks[bi].Rows()
				blas.PackPanel(rows, w, data[f.BlockOff[k][bi]:], ld, cell.dense[o:int(o)+rows*w])
			}
		}
		f.Data[k] = nil // release the strided dense cell
	}
	st.CompressedBytes = 8 * f.nnzOf(cells)
	if st.CompressedBytes > 0 {
		st.Ratio = float64(st.DenseBytes) / float64(st.CompressedBytes)
	}
	f.lrCells = cells
	f.comp = &st
	f.packMu.Lock()
	f.pack = nil // next solve re-packs by aliasing the compressed cells
	f.packMu.Unlock()
	return st
}

// nnzOf counts resident values of a compressed cell set.
func (f *Factors) nnzOf(cells []lrCell) int64 {
	var t int64
	for k := range cells {
		c := &cells[k]
		t += int64(len(c.diag) + len(c.dense))
		for _, lb := range c.lr {
			if lb != nil {
				t += int64(lb.Values())
			}
		}
	}
	return t
}

// MemoryBytes reports the resident factor-value bytes in the current form.
func (f *Factors) MemoryBytes() int64 { return 8 * f.NNZ() }

// solveCompressed is Factors.Solve on the compressed form: the identical
// three sweeps, with each off-diagonal block applied either from its packed
// dense copy or through the rank-r LR kernels. Results approximate the
// dense solve to the compression tolerance.
func (f *Factors) solveCompressed(b []float64) []float64 {
	sym := f.Sym
	x := append([]float64(nil), b...)
	// Forward: L y = b.
	for k := range sym.CB {
		cb := &sym.CB[k]
		w := cb.Width()
		cell := &f.lrCells[k]
		xk := x[cb.Cols[0]:cb.Cols[1]]
		blas.TrsvLowerUnit(w, cell.diag, w, xk)
		for bi := range cb.Blocks {
			blk := &cb.Blocks[bi]
			rows := blk.Rows()
			if lb := cell.lr[bi]; lb != nil {
				blas.LRGemvN(rows, w, lb.Rank, lb.U, lb.V, xk, x[blk.FirstRow:blk.LastRow])
			} else {
				blas.GemvN(rows, w, cell.dense[cell.off[bi]:], rows, xk, x[blk.FirstRow:blk.LastRow])
			}
		}
	}
	// Diagonal: z = D⁻¹ y.
	for k := range sym.CB {
		cb := &sym.CB[k]
		diag := f.lrCells[k].diag
		w := cb.Width()
		for j := 0; j < w; j++ {
			x[cb.Cols[0]+j] /= diag[j+j*w]
		}
	}
	// Backward: Lᵀ x = z.
	for k := len(sym.CB) - 1; k >= 0; k-- {
		cb := &sym.CB[k]
		w := cb.Width()
		cell := &f.lrCells[k]
		xk := x[cb.Cols[0]:cb.Cols[1]]
		for bi := range cb.Blocks {
			blk := &cb.Blocks[bi]
			rows := blk.Rows()
			if lb := cell.lr[bi]; lb != nil {
				blas.LRGemvT(rows, w, lb.Rank, lb.U, lb.V, x[blk.FirstRow:blk.LastRow], xk)
			} else {
				blas.GemvT(rows, w, cell.dense[cell.off[bi]:], rows, x[blk.FirstRow:blk.LastRow], xk)
			}
		}
		blas.TrsvLowerTransUnit(w, cell.diag, w, xk)
	}
	return x
}
