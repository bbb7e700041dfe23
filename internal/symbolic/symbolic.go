// Package symbolic implements the block symbolic factorization of the paper
// (Charrier & Roman): given a supernode partition of a permuted symmetric
// matrix, it computes the block data structure of the factor L — for each
// column block, one dense diagonal block plus a set of dense off-diagonal
// blocks — in quasi-linear time by propagating row-interval sets up the
// supernodal elimination tree.
//
// Column blocks are treated as amalgamated: every column of a block is given
// the union of the scalar structures of the block's columns (this is what
// makes the dense BLAS3 kernels applicable, at the price of some explicit
// zeros — the paper notes the operations actually performed exceed the
// scalar OPC for this reason).
package symbolic

import (
	"fmt"
	"sort"
	"sync"

	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/sparse"
)

// Span is a half-open row interval [Lo, Hi).
type Span struct{ Lo, Hi int }

// Block is a dense off-diagonal block of a column block: rows
// [FirstRow, LastRow) — all belonging to column block Facing — by the
// owning column block's columns.
type Block struct {
	FirstRow, LastRow int
	Facing            int
}

// Rows returns the number of rows of the block.
func (b Block) Rows() int { return b.LastRow - b.FirstRow }

// ColBlock is one column block of the factor: a dense symmetric diagonal
// block on columns [Cols[0], Cols[1]) and the off-diagonal blocks below it,
// sorted by FirstRow.
type ColBlock struct {
	Cols   [2]int
	Blocks []Block
}

// Width returns the number of columns of the block column.
func (cb *ColBlock) Width() int { return cb.Cols[1] - cb.Cols[0] }

// RowsBelow returns the total number of off-diagonal rows.
func (cb *ColBlock) RowsBelow() int {
	r := 0
	for _, b := range cb.Blocks {
		r += b.Rows()
	}
	return r
}

// BlockContaining returns the index of the off-diagonal block holding every
// row of [lo,hi), or -1 when no one block does. It is the one row lookup
// over a column block's blocks: the schedule routes updates with it and the
// factor storage locates rows with it.
func (cb *ColBlock) BlockContaining(lo, hi int) int {
	blocks := cb.Blocks
	i := sort.Search(len(blocks), func(b int) bool { return blocks[b].LastRow > lo })
	if i < len(blocks) && blocks[i].FirstRow <= lo && blocks[i].LastRow >= hi {
		return i
	}
	return -1
}

// Symbol is the block structure of L.
type Symbol struct {
	N      int        // matrix order
	CB     []ColBlock // column blocks, ascending column ranges
	Col2CB []int      // column -> column block index
	// Parent is the supernodal elimination tree: the column block faced by
	// the first off-diagonal block (-1 for roots).
	Parent []int
	// Updaters[k] lists the column blocks i<k having a block facing k, i.e.
	// the set BStruct(L_{k·}) of the paper (the column blocks that update k).
	Updaters [][]int

	panelRowsOnce sync.Once
	panelRows     []int32 // see PanelRows
}

// PanelRows returns the panel row index, built on first use: for every
// column block in turn, the row each of its off-diagonal rows lies in, in
// block order (RowsBelow entries per column block). The triangular solves
// read the solution entries a panel faces through it. Safe for concurrent
// use; callers must not modify it.
func (s *Symbol) PanelRows() []int32 {
	s.panelRowsOnce.Do(func() {
		n := 0
		for k := range s.CB {
			n += s.CB[k].RowsBelow()
		}
		rows := make([]int32, 0, n)
		for k := range s.CB {
			for _, blk := range s.CB[k].Blocks {
				for i := blk.FirstRow; i < blk.LastRow; i++ {
					rows = append(rows, int32(i))
				}
			}
		}
		s.panelRows = rows
	})
	return s.panelRows
}

// NumCB returns the number of column blocks.
func (s *Symbol) NumCB() int { return len(s.CB) }

// Partition returns the column-block boundaries: entry k is the first
// column of column block k, and the last entry is N.
func (s *Symbol) Partition() []int {
	b := make([]int, len(s.CB)+1)
	for k := range s.CB {
		b[k] = s.CB[k].Cols[0]
	}
	b[len(s.CB)] = s.N
	return b
}

// Facings returns the distinct column blocks faced by the blocks of column
// block k, ascending — the set BStruct(L_{·k}) of the paper (the column
// blocks updated by k).
func (s *Symbol) Facings(k int) []int {
	var out []int
	for _, b := range s.CB[k].Blocks {
		if len(out) == 0 || out[len(out)-1] != b.Facing {
			out = append(out, b.Facing)
		}
	}
	return out
}

// Factor computes the block symbolic factorization of a for the given
// supernode partition.
func Factor(a *sparse.SymMatrix, sn *etree.Supernodes) *Symbol {
	n := a.N
	ncb := sn.Count()
	s := &Symbol{
		N:      n,
		CB:     make([]ColBlock, ncb),
		Col2CB: sn.ColToSnode(n),
		Parent: make([]int, ncb),
	}
	cbEnd := make([]int, ncb)
	for k, r := range sn.Ranges {
		s.CB[k].Cols = r
		cbEnd[k] = r[1]
	}

	// Initial row sets from the pattern of A: for each column block, the
	// rows of its columns at or beyond the end of the diagonal block.
	rows := make([][]Span, ncb)
	var scratch []int
	for k := 0; k < ncb; k++ {
		lo, hi := sn.Ranges[k][0], sn.Ranges[k][1]
		scratch = scratch[:0]
		for j := lo; j < hi; j++ {
			for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
				if i := a.RowIdx[p]; i >= hi {
					scratch = append(scratch, i)
				}
			}
		}
		sort.Ints(scratch)
		rows[k] = spansFromSorted(scratch)
	}

	// Bottom-up propagation: the whole below-diagonal structure of block k
	// flows to its parent (the block owning k's first off-diagonal row),
	// clipped to rows beyond the parent's diagonal block.
	for k := 0; k < ncb; k++ {
		if len(rows[k]) == 0 {
			s.Parent[k] = -1
			continue
		}
		p := s.Col2CB[rows[k][0].Lo]
		s.Parent[k] = p
		contrib := clipSpans(rows[k], cbEnd[p])
		if len(contrib) > 0 {
			rows[p] = unionSpans(rows[p], contrib)
		}
	}

	// Split final row sets at column-block boundaries into blocks.
	for k := 0; k < ncb; k++ {
		for _, sp := range rows[k] {
			lo := sp.Lo
			for lo < sp.Hi {
				f := s.Col2CB[lo]
				hi := cbEnd[f]
				if hi > sp.Hi {
					hi = sp.Hi
				}
				s.CB[k].Blocks = append(s.CB[k].Blocks, Block{FirstRow: lo, LastRow: hi, Facing: f})
				lo = hi
			}
		}
	}

	// Reverse adjacency: who updates whom.
	s.Updaters = make([][]int, ncb)
	for k := 0; k < ncb; k++ {
		for _, f := range s.Facings(k) {
			s.Updaters[f] = append(s.Updaters[f], k)
		}
	}
	return s
}

// spansFromSorted coalesces a sorted (possibly duplicated) row list into
// maximal spans.
func spansFromSorted(rows []int) []Span {
	var out []Span
	for _, r := range rows {
		if n := len(out); n > 0 && r < out[n-1].Hi {
			continue // duplicate
		} else if n > 0 && r == out[n-1].Hi {
			out[n-1].Hi++
			continue
		}
		out = append(out, Span{r, r + 1})
	}
	return out
}

// clipSpans returns the parts of spans with rows >= minRow.
func clipSpans(spans []Span, minRow int) []Span {
	var out []Span
	for _, sp := range spans {
		if sp.Hi <= minRow {
			continue
		}
		lo := sp.Lo
		if lo < minRow {
			lo = minRow
		}
		out = append(out, Span{lo, sp.Hi})
	}
	return out
}

// unionSpans merges two sorted span lists, coalescing overlaps and
// adjacencies.
func unionSpans(a, b []Span) []Span {
	out := make([]Span, 0, len(a)+len(b))
	i, j := 0, 0
	push := func(sp Span) {
		if n := len(out); n > 0 && sp.Lo <= out[n-1].Hi {
			if sp.Hi > out[n-1].Hi {
				out[n-1].Hi = sp.Hi
			}
			return
		}
		out = append(out, sp)
	}
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].Lo <= b[j].Lo) {
			push(a[i])
			i++
		} else {
			push(b[j])
			j++
		}
	}
	return out
}

// NNZL returns the number of stored factor entries under the block model:
// the dense lower triangles of the diagonal blocks (diagonal included) plus
// the full off-diagonal blocks. This is ≥ the scalar count because of
// amalgamation.
func (s *Symbol) NNZL() int64 {
	var t int64
	for k := range s.CB {
		w := int64(s.CB[k].Width())
		t += w * (w + 1) / 2
		t += w * int64(s.CB[k].RowsBelow())
	}
	return t
}

// OPC returns the floating-point operations of the block LDLᵀ factorization:
// per column block of width w with r off-diagonal rows, the dense diagonal
// factorization (w³/3), the triangular solves (r·w²), and the outer-product
// updates (w·r·(r+1)).
func (s *Symbol) OPC() float64 {
	var t float64
	for k := range s.CB {
		w := float64(s.CB[k].Width())
		r := float64(s.CB[k].RowsBelow())
		t += w * w * w / 3
		t += r * w * w
		t += w * r * (r + 1)
	}
	return t
}

// Validate checks structural invariants of the symbol: ordered blocks within
// each column block, rows beyond the diagonal block, facing consistency, the
// parent relation, and closure of the fill (every block's rows must appear
// in the structure of the first-facing ancestor — checked via Updaters
// symmetry).
func (s *Symbol) Validate() error {
	pos := 0
	for k := range s.CB {
		cb := &s.CB[k]
		if cb.Cols[0] != pos || cb.Cols[1] <= cb.Cols[0] {
			return fmt.Errorf("symbolic: column block %d range %v not contiguous", k, cb.Cols)
		}
		pos = cb.Cols[1]
		prev := cb.Cols[1]
		for _, b := range cb.Blocks {
			if b.FirstRow < prev {
				return fmt.Errorf("symbolic: block %v of cb %d overlaps or is unsorted", b, k)
			}
			if b.LastRow <= b.FirstRow {
				return fmt.Errorf("symbolic: empty block %v of cb %d", b, k)
			}
			f := b.Facing
			if f <= k || f >= len(s.CB) {
				return fmt.Errorf("symbolic: cb %d block faces %d", k, f)
			}
			if b.FirstRow < s.CB[f].Cols[0] || b.LastRow > s.CB[f].Cols[1] {
				return fmt.Errorf("symbolic: cb %d block %v exceeds facing cb %d range %v", k, b, f, s.CB[f].Cols)
			}
			prev = b.LastRow
		}
		if len(cb.Blocks) > 0 {
			if s.Parent[k] != cb.Blocks[0].Facing {
				return fmt.Errorf("symbolic: cb %d parent %d != first facing %d", k, s.Parent[k], cb.Blocks[0].Facing)
			}
		} else if s.Parent[k] != -1 {
			return fmt.Errorf("symbolic: cb %d has no blocks but parent %d", k, s.Parent[k])
		}
	}
	if pos != s.N {
		return fmt.Errorf("symbolic: column blocks cover %d of %d", pos, s.N)
	}
	// Fan-in closure: for every cb i and every pair of blocks (bs, bt) with
	// s ≥ t, the rows of bs must be contained in the structure of the column
	// block faced by bt (this is what lets BMOD target real blocks).
	for i := range s.CB {
		blocks := s.CB[i].Blocks
		for t := 0; t < len(blocks); t++ {
			ft := blocks[t].Facing
			for u := t; u < len(blocks); u++ {
				if !s.contains(ft, blocks[u].FirstRow, blocks[u].LastRow) {
					return fmt.Errorf("symbolic: cb %d update rows [%d,%d) not in structure of cb %d",
						i, blocks[u].FirstRow, blocks[u].LastRow, ft)
				}
			}
		}
	}
	return nil
}

// contains reports whether rows [lo,hi) are inside column block f's
// structure (rows inside f's own columns count as the dense diagonal block).
func (s *Symbol) contains(f, lo, hi int) bool {
	cb := &s.CB[f]
	// Portion inside the diagonal block.
	if lo < cb.Cols[1] {
		if hi <= cb.Cols[1] {
			return true
		}
		lo = cb.Cols[1]
	}
	for _, b := range cb.Blocks {
		if lo >= b.FirstRow && lo < b.LastRow {
			if hi <= b.LastRow {
				return true
			}
			lo = b.LastRow
		}
	}
	return lo >= hi
}
