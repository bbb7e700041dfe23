package solver

import (
	"fmt"
	"slices"

	"github.com/pastix-go/pastix/internal/lowrank"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// This file is the factor persistence boundary: ExportPayload lifts the
// numerical content of a Factors, plus its column-block partition, into a
// FactorPayload the store codec can serialize, and ImportFactors rebuilds a
// Factors from one against a Symbol. The block structure is NOT persisted:
// the Symbol is a pure function of the pattern, the ordering options and
// the partition (AnalyzeRestoreCtx rebuilds it on the recorded partition),
// and the shape tables (LD, BlockOff) a pure function of the Symbol
// (NewFactorsLazy). Persisting only the values and the boundaries keeps the
// on-disk format small and makes a restored factor bitwise-identical to the
// original by construction: the values are copied, not recomputed.

// CellLayout names the value order of a dense payload's cells. The zero
// value is no layout, which ImportFactors rejects.
type CellLayout uint8

const (
	// LayoutStrided is the factor's layout: each cell one column-major
	// array of LD rows × width columns. ExportPayload writes it, and so did
	// every server at store codec version 1.
	LayoutStrided CellLayout = 1
	// LayoutPacked is the former solve layout, which payloads written at
	// store codec versions 2 and 3 may hold: the w×w diagonal block, then
	// each off-diagonal block, every part with leading dimension equal to
	// its own row count. ImportFactors unpacks it.
	LayoutPacked CellLayout = 2
)

// FactorPayload is the serializable numerical content of a Factors: exactly
// one of the dense cells or the BLR-compressed cells, plus the static-pivot
// report, and the column-block partition they were computed on. Beyond the
// partition it carries no shape information; the importing side validates
// every length against its Symbol.
type FactorPayload struct {
	// Partition is the column-block boundaries of the factor's analysis
	// (Analysis.Partition). It is nil on payloads written before the
	// partition was recorded; AnalyzeRestoreCtx then falls back to the
	// amalgamation rule of that time.
	Partition []int
	// Cells are the dense per-column-block arrays, nil when the factor is
	// BLR-compressed.
	Cells [][]float64
	// Layout is the value order of Cells.
	Layout CellLayout
	// LRCells are the compressed per-column-block cells, nil when dense.
	LRCells []LRCellPayload
	// Comp is the compression accounting; non-nil exactly when LRCells is.
	Comp *CompressionStats
	// Pivots is the static-pivoting report; nil when pivoting was disabled.
	Pivots *PerturbationReport
}

// LRCellPayload mirrors lrCell for serialization: the packed diagonal block,
// the concatenated packed dense off-diagonal blocks, and per off-diagonal
// block either an offset into Dense (Off[bi] >= 0) or a low-rank form
// (Off[bi] < 0, LR[bi] != nil).
type LRCellPayload struct {
	Diag  []float64
	Dense []float64
	Off   []int32
	LR    []*lowrank.LRBlock
}

// Compressed reports whether the payload carries the BLR form.
func (p *FactorPayload) Compressed() bool { return p.LRCells != nil }

// ExportPayload returns the factor's numerical content for persistence. The
// returned payload aliases the factor's storage — the factor is immutable
// once factorization (and any compression pass) has finished, and the caller
// only reads the payload to serialize it.
func (f *Factors) ExportPayload() *FactorPayload {
	p := &FactorPayload{Partition: f.Sym.Partition(), Pivots: f.Pivots}
	if f.comp != nil {
		p.LRCells = make([]LRCellPayload, len(f.lrCells))
		for k := range f.lrCells {
			c := &f.lrCells[k]
			p.LRCells[k] = LRCellPayload{Diag: c.diag, Dense: c.dense, Off: c.off, LR: c.lr}
		}
		st := *f.comp
		p.Comp = &st
		return p
	}
	p.Cells = f.Data
	p.Layout = LayoutStrided
	return p
}

// ImportFactors rebuilds a Factors from a payload against sym, validating
// every array length against the symbolic structure so a payload from a
// different (or corrupted) factorization is rejected instead of producing
// out-of-bounds solves. The payload's slices are adopted, not copied: the
// caller (the store codec, which decodes into fresh slices) must not reuse
// them. Packed dense cells are unpacked in place; a dense payload with a
// missing or unknown layout fails with ErrPayloadLayout.
func ImportFactors(sym *symbolic.Symbol, p *FactorPayload) (*Factors, error) {
	if sym == nil || p == nil {
		return nil, fmt.Errorf("solver: import: nil symbol or payload")
	}
	if p.Partition != nil && !slices.Equal(p.Partition, sym.Partition()) {
		return nil, fmt.Errorf("solver: import: payload partition (%d boundaries) differs from the symbol's (%d column blocks)", len(p.Partition), sym.NumCB())
	}
	f := NewFactorsLazy(sym)
	ncb := sym.NumCB()
	switch {
	case p.LRCells != nil:
		if len(p.LRCells) != ncb {
			return nil, fmt.Errorf("solver: import: %d compressed cells, symbol has %d column blocks", len(p.LRCells), ncb)
		}
		cells := make([]lrCell, ncb)
		for k := 0; k < ncb; k++ {
			cb := &sym.CB[k]
			w := cb.Width()
			nb := len(cb.Blocks)
			pc := &p.LRCells[k]
			if len(pc.Diag) != w*w {
				return nil, fmt.Errorf("solver: import: cell %d diag length %d, want %d", k, len(pc.Diag), w*w)
			}
			if len(pc.Off) != nb || len(pc.LR) != nb {
				return nil, fmt.Errorf("solver: import: cell %d has %d/%d block entries, want %d", k, len(pc.Off), len(pc.LR), nb)
			}
			for bi := 0; bi < nb; bi++ {
				rows := cb.Blocks[bi].Rows()
				if o := pc.Off[bi]; o >= 0 {
					if pc.LR[bi] != nil {
						return nil, fmt.Errorf("solver: import: cell %d block %d is both dense and low-rank", k, bi)
					}
					if int(o)+rows*w > len(pc.Dense) {
						return nil, fmt.Errorf("solver: import: cell %d block %d dense range [%d,%d) exceeds %d", k, bi, o, int(o)+rows*w, len(pc.Dense))
					}
				} else {
					lb := pc.LR[bi]
					if lb == nil {
						return nil, fmt.Errorf("solver: import: cell %d block %d has neither dense nor low-rank form", k, bi)
					}
					if lb.Rows != rows || lb.Cols != w || lb.Rank < 0 ||
						len(lb.U) != lb.Rank*lb.Rows || len(lb.V) != lb.Rank*lb.Cols {
						return nil, fmt.Errorf("solver: import: cell %d block %d low-rank shape %dx%d rank %d (|U|=%d,|V|=%d) does not match %dx%d",
							k, bi, lb.Rows, lb.Cols, lb.Rank, len(lb.U), len(lb.V), rows, w)
					}
				}
			}
			cells[k] = lrCell{diag: pc.Diag, dense: pc.Dense, off: pc.Off, lr: pc.LR}
		}
		f.lrCells = cells
		f.Data = nil
		if p.Comp != nil {
			st := *p.Comp
			f.comp = &st
		} else {
			// Rebuild the accounting so Compression() stays meaningful.
			st := CompressionStats{CompressedBytes: 8 * nnzOf(cells)}
			f.comp = &st
		}
	default:
		if p.Layout != LayoutStrided && p.Layout != LayoutPacked {
			return nil, fmt.Errorf("%w: layout %d", ErrPayloadLayout, p.Layout)
		}
		if len(p.Cells) != ncb {
			return nil, fmt.Errorf("solver: import: %d dense cells, symbol has %d column blocks", len(p.Cells), ncb)
		}
		for k := 0; k < ncb; k++ {
			want := f.LD[k] * sym.CB[k].Width()
			if len(p.Cells[k]) != want {
				return nil, fmt.Errorf("solver: import: cell %d length %d, want %d", k, len(p.Cells[k]), want)
			}
		}
		if p.Layout == LayoutPacked {
			unpack(f, p.Cells)
		}
		f.Data = p.Cells
	}
	f.Pivots = p.Pivots
	return f, nil
}

// unpack rewrites each packed cell of f's shape in place into the strided
// layout: a cell is copied into one scratch buffer the size of the largest
// cell and written back strided. Both layouts hold a cell's values in the
// same number of entries, so no second copy of the factor is ever live.
func unpack(f *Factors, cells [][]float64) {
	size := 0
	for _, c := range cells {
		size = max(size, len(c))
	}
	scratch := make([]float64, size)
	for k, data := range cells {
		cb := &f.Sym.CB[k]
		w, ld := cb.Width(), f.LD[k]
		src := scratch[:len(data)]
		copy(src, data)
		for j := 0; j < w; j++ {
			copy(data[j*ld:j*ld+w], src[j*w:j*w+w])
		}
		pos := w * w
		for bi := range cb.Blocks {
			rows := cb.Blocks[bi].Rows()
			off := f.BlockOff[k][bi]
			for j := 0; j < w; j++ {
				copy(data[off+j*ld:off+j*ld+rows], src[pos+j*rows:pos+j*rows+rows])
			}
			pos += rows * w
		}
	}
}
