package order

import (
	"github.com/pastix-go/pastix/internal/graph"
)

// Multilevel vertex separators: heavy-edge-style matching coarsens the graph
// until it is small, a separator is computed there, and the partition is
// projected back level by level with thinning + FM refinement at each step —
// the scheme Scotch and MeTiS use, which beats single-shot level-set
// separators on irregular graphs.

// multilevelCoarseThreshold stops coarsening once the graph is this small.
const multilevelCoarseThreshold = 160

// matchVertices computes a maximal matching: match[v] is v's partner (or v
// itself when unmatched). Vertices are scanned by ascending weight so light
// vertices merge first, keeping coarse weights balanced; partners are the
// lightest unmatched neighbour (deterministic tie-break by id).
func matchVertices(g *graph.Graph) []int {
	n := g.N
	match := make([]int, n)
	for v := range match {
		match[v] = -1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Counting-sortish by weight is overkill; weights are small ints — a
	// simple stable selection by (weight, id) via sort.
	sortByWeight(g, order)
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		best := -1
		for _, u := range g.Neighbors(v) {
			if match[u] >= 0 {
				continue
			}
			if best == -1 || g.Weight(u) < g.Weight(best) || (g.Weight(u) == g.Weight(best) && u < best) {
				best = u
			}
		}
		if best == -1 {
			match[v] = v
		} else {
			match[v] = best
			match[best] = v
		}
	}
	return match
}

func sortByWeight(g *graph.Graph, order []int) {
	// insertion-style stable sort by (weight, id); graphs shrink geometrically
	// so the cost is acceptable, but use sort.Slice for large n.
	if len(order) > 64 {
		quickSortByWeight(g, order)
		return
	}
	for i := 1; i < len(order); i++ {
		v := order[i]
		j := i - 1
		for j >= 0 && less(g, v, order[j]) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
}

func less(g *graph.Graph, a, b int) bool {
	if g.Weight(a) != g.Weight(b) {
		return g.Weight(a) < g.Weight(b)
	}
	return a < b
}

func quickSortByWeight(g *graph.Graph, order []int) {
	if len(order) < 2 {
		return
	}
	pivot := order[len(order)/2]
	lo, hi := 0, len(order)-1
	for lo <= hi {
		for less(g, order[lo], pivot) {
			lo++
		}
		for less(g, pivot, order[hi]) {
			hi--
		}
		if lo <= hi {
			order[lo], order[hi] = order[hi], order[lo]
			lo++
			hi--
		}
	}
	quickSortByWeight(g, order[:hi+1])
	quickSortByWeight(g, order[lo:])
}

// multilevelSeparator computes a vertex separator of the connected graph g
// by recursive coarsening, as side labels (see sepWork); nil signals the
// caller to fall back to a leaf ordering.
func (w *sepWork) multilevelSeparator(g *graph.Graph, refinePasses int) []int {
	if g.N <= multilevelCoarseThreshold {
		return w.levelSeparator(g, refinePasses)
	}
	match := matchVertices(g)
	// Build the coarse map: one coarse vertex per matched pair / singleton.
	cmap := make([]int, g.N)
	for i := range cmap {
		cmap[i] = -1
	}
	nc := 0
	for v := 0; v < g.N; v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = nc
		if m := match[v]; m != v && m >= 0 {
			cmap[m] = nc
		}
		nc++
	}
	if nc >= g.N {
		// Matching made no progress (e.g. edgeless graph); single-level cut.
		return w.levelSeparator(g, refinePasses)
	}
	cg := g.Compress(cmap, nc)
	cside := w.multilevelSeparator(cg, refinePasses)
	var count [3]int
	for _, sd := range cside {
		count[sd]++
	}
	if count[0] == 0 || count[1] == 0 {
		return w.levelSeparator(g, refinePasses)
	}
	// Project the coarse partition back to the fine graph (cside may be the
	// scratch side storage, so the fine labels get their own).
	side := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		side[v] = cside[cmap[v]]
	}
	// The projected separator is up to twice as thick; thin and refine at
	// this level.
	thinSeparator(g, side)
	refineSeparator(g, side, refinePasses)
	return side
}
