package solver

import (
	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/lowrank"
)

// This file is the block low-rank (BLR) compression pass and the cell form
// it leaves behind. A dense factor keeps the strided cells the
// factorization wrote (Storage.Data), and every solve path reads them in
// place. Compress walks every column block, keeps the diagonal block dense
// (it carries the unit-lower triangle and D, and its triangular solves do not
// profit from a low-rank form), and offers each off-diagonal block to the
// lowrank admission rule. Admitted blocks that compress profitably are
// stored as U·Vᵀ; everything else is copied dense, and the strided cells are
// released. Compression is lossy at the configured tolerance — solves on a
// compressed factor approximate the dense solve to ~Tol and are paired with
// iterative refinement to recover accuracy — and is a solve-only format:
// Factors.Solve and the level-set engine read it in place.

// lrCell is one compressed column block: the packed w×w diagonal block, the
// concatenated packed dense off-diagonal blocks, and per off-diagonal block
// either an offset into dense (off[bi] >= 0) or the low-rank form (off[bi] <
// 0, lr[bi] != nil).
type lrCell struct {
	diag  []float64
	dense []float64
	off   []int32
	lr    []*lowrank.LRBlock
}

// blrPanels is the solve's view of a compressed factor (see panels): its
// dense and U·Vᵀ blocks fill the panel rows they cover, block by block.
type blrPanels struct{ f *Factors }

func (b blrPanels) forward(k int, tri bool, lo, hi int, xk, t []float64) {
	cb := &b.f.Sym.CB[k]
	w := cb.Width()
	c := &b.f.lrCells[k]
	if tri {
		blas.TrsvLowerUnit(w, c.diag, w, xk)
	}
	clear(t[lo:hi])
	for bi := range cb.Blocks {
		r0, rows := b.f.BlockOff[k][bi]-w, cb.Blocks[bi].Rows()
		a0, a1 := max(lo, r0), min(hi, r0+rows)
		if a0 >= a1 {
			continue
		}
		if lb := c.lr[bi]; lb != nil {
			blas.LRGemvNRows(rows, w, lb.Rank, a0-r0, a1-r0, lb.U, lb.V, xk, t[r0:r0+rows])
			continue
		}
		blas.GemvN(a1-a0, w, c.dense[int(c.off[bi])+a0-r0:], rows, xk, t[a0:a1])
	}
}

// push is forward into t, then pushRows.
func (b blrPanels) push(k int, x []float64, rows []int32, t, out []float64) {
	cb := &b.f.Sym.CB[k]
	b.forward(k, true, 0, len(rows)+len(out), x[cb.Cols[0]:cb.Cols[1]], t)
	pushRows(x, rows, t, out)
}

// backward reads each block's facing x in place: a block's rows are
// contiguous in x, so it needs neither the row index nor a gather.
func (b blrPanels) backward(k int, tri bool, lo, hi int, x, _ []float64, _ []int32) {
	cb := &b.f.Sym.CB[k]
	w := cb.Width()
	c := &b.f.lrCells[k]
	xk := x[cb.Cols[0]:cb.Cols[1]]
	for j := lo; j < hi; j++ {
		xk[j] /= c.diag[j+j*w]
	}
	for bi := range cb.Blocks {
		blk := &cb.Blocks[bi]
		rows, xb := blk.Rows(), x[blk.FirstRow:blk.LastRow]
		if lb := c.lr[bi]; lb != nil {
			blas.LRGemvTCols(rows, w, lb.Rank, lo, hi, lb.U, lb.V, xb, xk)
			continue
		}
		blas.GemvT(rows, hi-lo, c.dense[int(c.off[bi])+lo*rows:], rows, xb, xk[lo:hi])
	}
	if tri {
		blas.TrsvLowerTransUnit(w, c.diag, w, xk)
	}
}

// CompressionStats is the byte accounting of one compression pass. Bytes
// count factor values only (8 bytes per float64; index arrays and slice
// headers are negligible and identical either way). DenseBytes is what the
// factor occupied before the pass; CompressedBytes is what it occupies
// after — dense blocks count at their own size, so the ratio reflects only
// genuine low-rank wins.
type CompressionStats struct {
	DenseBytes       int64   `json:"dense_bytes"`
	CompressedBytes  int64   `json:"compressed_bytes"`
	Ratio            float64 `json:"ratio"`
	BlocksCompressed int     `json:"blocks_compressed"`
	BlocksTotal      int     `json:"blocks_total"`
}

// Compressed reports whether the factor is in BLR-compressed form.
func (f *Factors) Compressed() bool { return f.comp != nil }

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
// replaces the strided cells.
func (f *Factors) Compress(opts lowrank.Options) CompressionStats {
	if !opts.Enabled() {
		return CompressionStats{}
	}
	if f.comp != nil {
		return *f.comp
	}
	sym := f.Sym
	ncb := sym.NumCB()
	cells := make([]lrCell, ncb)
	st := CompressionStats{}
	for k := 0; k < ncb; k++ {
		cb := &sym.CB[k]
		w, ld := cb.Width(), f.LD[k]
		data := f.Data[k]
		st.DenseBytes += 8 * int64(len(data))

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
				blas.PackPanel(cb.Blocks[bi].Rows(), w, data[f.BlockOff[k][bi]:], ld, cell.dense[o:])
			}
		}
	}
	st.CompressedBytes = 8 * nnzOf(cells)
	if st.CompressedBytes > 0 {
		st.Ratio = float64(st.DenseBytes) / float64(st.CompressedBytes)
	}
	f.lrCells = cells
	f.Data = nil
	f.comp = &st
	return st
}

// nnzOf counts the resident values of a cell set.
func nnzOf(cells []lrCell) int64 {
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
