package solver

import (
	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/lowrank"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// This file is the factor's resident cell form and the block low-rank (BLR)
// compression pass. Every float64 factorization ends by repacking each
// strided cell in place into its packed form (repack): the w×w diagonal
// block, then each off-diagonal block, every part with leading dimension
// equal to its own row count. That packed form is the only layout a factor
// has once factorization returns, and every solve path reads it.
//
// Compress then walks every column block, keeps the diagonal block dense (it
// carries the unit-lower triangle and D, and its triangular solves do not
// profit from a low-rank form), and offers each off-diagonal block to the
// lowrank admission rule. Admitted blocks that compress profitably are
// stored as U·Vᵀ; everything else is copied dense, and the packed dense
// cells are released. Compression is lossy at the configured tolerance —
// solves on a compressed factor approximate the dense solve to ~Tol and are
// paired with iterative refinement to recover accuracy — and is a solve-only
// format: the message-passing (mpsim) solve refuses compressed factors
// (ErrCompressed).

// lrCell is the storage of one column block: the packed w×w diagonal block,
// the concatenated packed dense off-diagonal blocks, and per off-diagonal
// block either an offset into dense (off[bi] >= 0) or the low-rank form
// (off[bi] < 0, lr[bi] != nil). A repacked dense cell has no lr slice, and
// its diag and dense are the two ends of one array.
type lrCell struct {
	diag  []float64
	dense []float64
	off   []int32
	lr    []*lowrank.LRBlock
}

// lowRank returns the low-rank form of block bi, or nil for a dense block.
func (c *lrCell) lowRank(bi int) *lowrank.LRBlock {
	if c.lr == nil {
		return nil
	}
	return c.lr[bi]
}

// packedCell views data, the packed array of column block cb, as its cell.
func packedCell(cb *symbolic.ColBlock, data []float64) lrCell {
	w := cb.Width()
	off := make([]int32, len(cb.Blocks))
	pos := 0
	for bi := range cb.Blocks {
		off[bi] = int32(pos)
		pos += cb.Blocks[bi].Rows() * w
	}
	return lrCell{diag: data[:w*w], dense: data[w*w:], off: off}
}

// repack makes the packed cells the factor's only layout: each strided cell
// is copied into one scratch buffer the size of the largest cell and
// written back packed. A cell holds exactly as many values either way, so
// no second copy of the factor is ever live. Data is released.
func (f *Factors) repack() {
	size := 0
	for _, d := range f.Data {
		size = max(size, len(d))
	}
	scratch := make([]float64, size)
	f.lrCells = make([]lrCell, len(f.Data))
	for k, data := range f.Data {
		cb := &f.Sym.CB[k]
		w, ld := cb.Width(), f.LD[k]
		src := scratch[:len(data)]
		copy(src, data)
		c := packedCell(cb, data)
		blas.PackPanel(w, w, src, ld, c.diag)
		for bi := range cb.Blocks {
			blas.PackPanel(cb.Blocks[bi].Rows(), w, src[f.BlockOff[k][bi]:], ld, c.dense[c.off[bi]:])
		}
		f.lrCells[k] = c
	}
	f.Data = nil
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
// replaces the packed dense cells.
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
		w := cb.Width()
		src := &f.lrCells[k]
		st.DenseBytes += 8 * int64(len(src.diag)+len(src.dense))

		cell := &cells[k]
		cell.diag = append([]float64(nil), src.diag...)
		nb := len(cb.Blocks)
		cell.off = make([]int32, nb)
		cell.lr = make([]*lowrank.LRBlock, nb)
		st.BlocksTotal += nb

		denseVals := 0
		for bi := 0; bi < nb; bi++ {
			rows := cb.Blocks[bi].Rows()
			if opts.Admit(rows, w) {
				if lb := lowrank.Compress(rows, w, src.dense[src.off[bi]:], rows, opts.Tol); lb != nil {
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
				n := cb.Blocks[bi].Rows() * w
				copy(cell.dense[o:int(o)+n], src.dense[src.off[bi]:])
			}
		}
	}
	st.CompressedBytes = 8 * nnzOf(cells)
	if st.CompressedBytes > 0 {
		st.Ratio = float64(st.DenseBytes) / float64(st.CompressedBytes)
	}
	f.lrCells = cells
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
