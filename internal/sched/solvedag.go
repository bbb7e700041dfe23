package sched

import (
	"github.com/pastix-go/pastix/internal/symbolic"
)

// SolveDAG is the dependency structure of the block triangular solves,
// projected from the supernodal elimination structure: the forward sweep has
// an edge k→f for every off-diagonal block of column block k facing f (cell
// f's forward solve consumes y_k), and the backward sweep is the same graph
// reversed. Unlike the factorization DAG, there are no inter-block update
// tasks — one node per column block — so the solve phase deserves its own,
// much flatter, schedule rather than reusing the factorization's proc
// mapping (the per-phase static specialization the paper argues for).
//
// Level[k] is the longest-path depth of cell k (sources at level 0). Within
// a level no two cells depend on each other.
type SolveDAG struct {
	Level []int32 // per cell: level-set index (0 = no in-edges)

	// Edges counts the forward dependencies (off-diagonal blocks); MaxWidth
	// is the widest level in cells.
	Edges    int
	MaxWidth int
	depth    int
}

// BuildSolveDAG computes the level sets of the solve DAG in one ascending
// pass: every block of cell k faces a cell with a larger index (lower
// triangle), so by the time k is visited its own level is final.
func BuildSolveDAG(sym *symbolic.Symbol) *SolveDAG {
	ncb := sym.NumCB()
	d := &SolveDAG{Level: make([]int32, ncb)}
	for k := 0; k < ncb; k++ {
		lk := d.Level[k] + 1
		d.depth = max(d.depth, int(lk))
		for _, blk := range sym.CB[k].Blocks {
			d.Edges++
			d.Level[blk.Facing] = max(d.Level[blk.Facing], lk)
		}
	}
	width := make([]int, d.depth)
	for _, l := range d.Level {
		width[l]++
		d.MaxWidth = max(d.MaxWidth, width[l])
	}
	return d
}

// Depth returns the number of level sets (the solve DAG's critical path in
// cells).
func (d *SolveDAG) Depth() int { return d.depth }
