// Package part implements the block repartitioning and candidate-mapping
// phase of the paper: splitting of large supernodes by the BLAS blocking
// size, top-down proportional mapping of candidate processor sets over the
// block elimination tree (Pothen & Sun), and the choice between 1D and 2D
// distribution per supernode — 2D for the uppermost, costly supernodes, 1D
// below.
package part

import (
	"fmt"

	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// Options configures the repartitioning and mapping phase.
type Options struct {
	// BlockSize is the BLAS blocking size: supernodes wider than it are
	// split into chunks of at most this width (paper: 64).
	BlockSize int
	// Ratio2D is the minimum number of candidate processors for a supernode
	// to get a 2D distribution (paper: switch criterion; default 4).
	Ratio2D int
	// MinWidth2D is the minimum column-block width for 2D distribution
	// (defaults to BlockSize/4: splitting caps widths at BlockSize, so the
	// threshold must sit below it or the 2D switch would never trigger).
	MinWidth2D int
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = 64
	}
	if o.Ratio2D <= 0 {
		o.Ratio2D = 4
	}
	if o.MinWidth2D <= 0 {
		o.MinWidth2D = o.BlockSize / 4
	}
	return o
}

// SplitRanges refines a supernode partition so no supernode is wider than
// opts.BlockSize, splitting wide supernodes into near-equal chunks. The
// resulting Supernodes carries chained parents (chunk → next chunk; the last
// chunk inherits the original parent).
func SplitRanges(sn *etree.Supernodes, opts Options) *etree.Supernodes {
	opts = opts.withDefaults()
	bs := opts.BlockSize
	out := &etree.Supernodes{}
	firstNew := make([]int, sn.Count()) // original supernode -> first chunk
	lastNew := make([]int, sn.Count())
	for k, r := range sn.Ranges {
		w := r[1] - r[0]
		chunks := (w + bs - 1) / bs
		if chunks < 1 {
			chunks = 1
		}
		firstNew[k] = len(out.Ranges)
		lo := r[0]
		for c := 0; c < chunks; c++ {
			// Spread the remainder so chunk widths differ by at most one.
			width := w / chunks
			if c < w%chunks {
				width++
			}
			out.Ranges = append(out.Ranges, [2]int{lo, lo + width})
			lo += width
		}
		lastNew[k] = len(out.Ranges) - 1
		if lo != r[1] {
			panic("part: split does not cover supernode")
		}
	}
	out.Parent = make([]int, len(out.Ranges))
	for k := range sn.Ranges {
		for c := firstNew[k]; c < lastNew[k]; c++ {
			out.Parent[c] = c + 1
		}
		if p := sn.Parent[k]; p == -1 {
			out.Parent[lastNew[k]] = -1
		} else {
			out.Parent[lastNew[k]] = firstNew[p]
		}
	}
	return out
}

// Mapping records, per column block, the candidate processor interval and
// the distribution choice.
type Mapping struct {
	P      int
	CandLo []int // inclusive
	CandHi []int // exclusive; candidates of cb k are [CandLo[k], CandHi[k])
	Is2D   []bool
	// SubtreeCost is the modelled sequential time of each column block's
	// subtree (diagnostics and ablations).
	SubtreeCost []float64
	// NodeCost is the modelled sequential time of the block column itself.
	NodeCost []float64
}

// Validate checks mapping invariants.
func (m *Mapping) Validate(ncb int) error {
	if len(m.CandLo) != ncb || len(m.CandHi) != ncb || len(m.Is2D) != ncb {
		return fmt.Errorf("part: mapping arrays sized wrong")
	}
	for k := 0; k < ncb; k++ {
		if m.CandLo[k] < 0 || m.CandHi[k] > m.P || m.CandLo[k] >= m.CandHi[k] {
			return fmt.Errorf("part: cb %d candidate interval [%d,%d) invalid for P=%d",
				k, m.CandLo[k], m.CandHi[k], m.P)
		}
	}
	return nil
}

// NodeCost models the sequential time of processing column block k: the
// dense diagonal factorization, the panel solve, and the outer-product
// updates.
func NodeCost(sym *symbolic.Symbol, mach *cost.Machine, k int) float64 {
	w := sym.CB[k].Width()
	r := sym.CB[k].RowsBelow()
	t := mach.FactorTime(w) + mach.TrsmTime(r, w)
	// The updates form (roughly) the lower half of an r×r matrix.
	if r > 0 {
		t += mach.GemmTime(r, r, w) / 2
	}
	return t
}

// Map computes the candidate processor sets by top-down proportional mapping
// over the supernodal elimination tree, and chooses a 1D or 2D distribution
// per supernode.
//
// Processors are treated as the continuum [0,P): each subtree receives a
// sub-interval proportional to its modelled cost, and its candidate set is
// the set of integer processors overlapping that sub-interval. Sibling
// subtrees may therefore share a boundary processor — the paper's device for
// avoiding integral rounding trouble ("we allow a candidate processor to be
// in two sets of candidate processors for two subtrees having the same
// father"); the scheduling phase picks the best split of such a processor's
// time.
func Map(sym *symbolic.Symbol, mach *cost.Machine, P int, opts Options) *Mapping {
	opts = opts.withDefaults()
	ncb := sym.NumCB()
	m := &Mapping{
		P:           P,
		CandLo:      make([]int, ncb),
		CandHi:      make([]int, ncb),
		Is2D:        make([]bool, ncb),
		SubtreeCost: make([]float64, ncb),
		NodeCost:    make([]float64, ncb),
	}
	// Children lists and bottom-up subtree costs (parents always have larger
	// indices, so a single ascending pass accumulates).
	children := make([][]int, ncb)
	for k := 0; k < ncb; k++ {
		m.NodeCost[k] = NodeCost(sym, mach, k)
		m.SubtreeCost[k] = m.NodeCost[k]
	}
	for k := 0; k < ncb; k++ {
		if p := sym.Parent[k]; p != -1 {
			children[p] = append(children[p], k)
		}
	}
	for k := 0; k < ncb; k++ {
		if p := sym.Parent[k]; p != -1 {
			m.SubtreeCost[p] += m.SubtreeCost[k]
		}
	}

	// Top-down interval assignment. Roots share [0,P) proportionally too.
	lo := make([]float64, ncb)
	hi := make([]float64, ncb)
	var rootCost float64
	for k := 0; k < ncb; k++ {
		if sym.Parent[k] == -1 {
			rootCost += m.SubtreeCost[k]
		}
	}
	cursor := 0.0
	for k := 0; k < ncb; k++ {
		if sym.Parent[k] != -1 {
			continue
		}
		width := float64(P)
		if rootCost > 0 {
			width = float64(P) * m.SubtreeCost[k] / rootCost
		}
		lo[k], hi[k] = cursor, cursor+width
		cursor += width
	}
	// Descend from the top (indices descend from roots to leaves since
	// parents are later).
	for k := ncb - 1; k >= 0; k-- {
		childCost := 0.0
		for _, c := range children[k] {
			childCost += m.SubtreeCost[c]
		}
		cur := lo[k]
		span := hi[k] - lo[k]
		for _, c := range children[k] {
			w := 0.0
			if childCost > 0 {
				w = span * m.SubtreeCost[c] / childCost
			}
			lo[c], hi[c] = cur, cur+w
			cur += w
		}
	}

	for k := 0; k < ncb; k++ {
		cl := int(lo[k] + 1e-9)
		ch := ceilInt(hi[k] - 1e-9)
		if cl < 0 {
			cl = 0
		}
		if ch > P {
			ch = P
		}
		if ch <= cl {
			// Degenerate (zero-cost subtree or rounding): give it the
			// nearest single processor.
			if cl >= P {
				cl = P - 1
			}
			ch = cl + 1
		}
		m.CandLo[k], m.CandHi[k] = cl, ch
		m.Is2D[k] = (ch-cl) >= opts.Ratio2D && sym.CB[k].Width() >= opts.MinWidth2D
	}
	return m
}

func ceilInt(x float64) int {
	i := int(x)
	if float64(i) < x {
		i++
	}
	return i
}
