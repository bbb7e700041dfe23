package solver

import (
	"fmt"

	"github.com/pastix-go/pastix/internal/lowrank"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// This file is the factor persistence boundary: ExportPayload lifts the
// numerical content of a Factors — and nothing else — into a FactorPayload
// the store codec can serialize, and ImportFactors rebuilds a Factors from
// one against a Symbol. The shape tables (LD, BlockOff) are NOT persisted:
// they are a pure function of the Symbol (NewFactorsLazy), which itself is a
// pure function of (pattern, Options) through the deterministic analysis
// pipeline. Persisting only the numerical payload keeps the on-disk format
// small and makes a restored factor bitwise-identical to the original by
// construction: the values are copied, not recomputed.

// CellLayout names the value order of a dense payload's cells. The zero
// value is no layout, which ImportFactors rejects.
type CellLayout uint8

const (
	// LayoutStrided is the factorization's working layout: each cell one
	// column-major array of LD rows × width columns. Journals written at
	// store codec version 1 hold it.
	LayoutStrided CellLayout = 1
	// LayoutPacked is the solve layout: the w×w diagonal block, then each
	// off-diagonal block, every part with leading dimension equal to its own
	// row count.
	LayoutPacked CellLayout = 2
)

// FactorPayload is the serializable numerical content of a Factors: exactly
// one of the dense cells or the BLR-compressed cells, plus the static-pivot
// report. It carries no shape information beyond what the values imply; the
// importing side validates every length against its Symbol.
type FactorPayload struct {
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
	p := &FactorPayload{Pivots: f.Pivots}
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
	p.Cells = make([][]float64, len(f.lrCells))
	p.Layout = LayoutPacked
	for k := range f.lrCells {
		c := &f.lrCells[k]
		// A repacked cell's diag and dense are the two ends of one array.
		p.Cells[k] = c.diag[:len(c.diag)+len(c.dense)]
	}
	return p
}

// ImportFactors rebuilds a Factors from a payload against sym, validating
// every array length against the symbolic structure so a payload from a
// different (or corrupted) factorization is rejected instead of producing
// out-of-bounds solves. The payload's slices are adopted, not copied: the
// caller (the store codec, which decodes into fresh slices) must not reuse
// them. Strided dense cells are repacked in place; a dense payload with a
// missing or unknown layout fails with ErrPayloadLayout.
func ImportFactors(sym *symbolic.Symbol, p *FactorPayload) (*Factors, error) {
	if sym == nil || p == nil {
		return nil, fmt.Errorf("solver: import: nil symbol or payload")
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
		if p.Layout == LayoutStrided {
			f.Data = p.Cells
			f.repack()
			break
		}
		f.lrCells = make([]lrCell, ncb)
		for k := range f.lrCells {
			f.lrCells[k] = packedCell(&sym.CB[k], p.Cells[k])
		}
	}
	f.Data = nil
	f.Pivots = p.Pivots
	return f, nil
}
