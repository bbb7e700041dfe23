package order

import (
	"fmt"

	"github.com/pastix-go/pastix/internal/graph"
)

// Method selects the ordering algorithm / configuration.
type Method int

const (
	// ScotchLike is the paper's ordering: nested dissection with refined
	// level-set vertex separators, tightly coupled with Halo-AMD on the
	// leaf subgraphs (cf. Pellegrini-Roman-Amestoy hybridization).
	ScotchLike Method = iota
	// MetisLike is the alternative configuration used for the second pair of
	// columns in Table 1: nested dissection with vertex-cover separators
	// derived from the edge bisection, and plain AMD (no halo) on leaves.
	MetisLike
	// PureAMD orders the whole graph by approximate minimum degree.
	PureAMD
	// Natural keeps the input order (each column its own supernode); only
	// useful for tests and tiny problems.
	Natural
)

func (m Method) String() string {
	switch m {
	case ScotchLike:
		return "scotch"
	case MetisLike:
		return "metis"
	case PureAMD:
		return "amd"
	case Natural:
		return "natural"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Options configures Compute.
type Options struct {
	Method   Method
	LeafSize int // dissect until subgraphs have at most this many vertices (default 120)
	// RefinePasses bounds the FM-style separator refinement sweeps
	// (ScotchLike only; default 8).
	RefinePasses int
	// Compress groups vertices with identical closed neighbourhoods before
	// ordering (Scotch-style graph compression). Multi-DOF finite element
	// problems compress by the DOF factor, making ordering cost independent
	// of the per-node unknown count; the expanded ordering keeps grouped
	// vertices consecutive, so they fall into common supernodes.
	Compress bool
	// Multilevel computes ScotchLike separators by coarsening (heavy-edge
	// matching) with per-level refinement instead of a single level-set cut —
	// better separators on irregular graphs at some analysis cost.
	Multilevel bool
	// NoHalo orders ScotchLike leaves with plain AMD instead of Halo-AMD —
	// an ablation switch quantifying what the halo buys (boundary vertices
	// otherwise look artificially low-degree and get eliminated too early).
	NoHalo bool
}

func (o Options) withDefaults() Options {
	if o.LeafSize <= 0 {
		o.LeafSize = 120
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 8
	}
	return o
}

// Ordering is the result of the ordering phase: a permutation and the
// supernode partition it induces (separators become supernodes; leaf
// subgraphs contribute their AMD supervariables).
type Ordering struct {
	Perm  []int // Perm[new] = old
	IPerm []int // IPerm[old] = new
	// SupernodeSizes partitions the new index range into consecutive
	// supernodes (sum == n). Further splitting/amalgamation happens later.
	SupernodeSizes []int
}

// Ranges expands SupernodeSizes into half-open column ranges.
func (o *Ordering) Ranges() [][2]int {
	r := make([][2]int, len(o.SupernodeSizes))
	pos := 0
	for i, s := range o.SupernodeSizes {
		r[i] = [2]int{pos, pos + s}
		pos += s
	}
	return r
}

// Validate checks that Perm is a permutation consistent with IPerm and that
// the supernode sizes cover exactly [0,n).
func (o *Ordering) Validate(n int) error {
	if len(o.Perm) != n || len(o.IPerm) != n {
		return fmt.Errorf("order: permutation length mismatch")
	}
	seen := make([]bool, n)
	for newI, old := range o.Perm {
		if old < 0 || old >= n || seen[old] {
			return fmt.Errorf("order: Perm is not a permutation at %d", newI)
		}
		seen[old] = true
		if o.IPerm[old] != newI {
			return fmt.Errorf("order: IPerm inconsistent at old=%d", old)
		}
	}
	tot := 0
	for _, s := range o.SupernodeSizes {
		if s <= 0 {
			return fmt.Errorf("order: non-positive supernode size")
		}
		tot += s
	}
	if tot != n {
		return fmt.Errorf("order: supernode sizes sum to %d, want %d", tot, n)
	}
	return nil
}

// Compute orders graph g with the given options.
func Compute(g *graph.Graph, opts Options) *Ordering {
	opts = opts.withDefaults()
	if opts.Compress && opts.Method != Natural {
		cg, groups := graph.CompressIndistinguishable(g)
		if cg.N < g.N {
			sub := opts
			sub.Compress = false
			return expandOrdering(Compute(cg, sub), groups, g.N)
		}
	}
	o := &Ordering{Perm: make([]int, 0, g.N), IPerm: make([]int, g.N)}
	switch opts.Method {
	case Natural:
		for v := 0; v < g.N; v++ {
			o.Perm = append(o.Perm, v)
			o.SupernodeSizes = append(o.SupernodeSizes, 1)
		}
	case PureAMD:
		res := AMD(g)
		o.Perm = append(o.Perm, res.Order...)
		o.SupernodeSizes = append(o.SupernodeSizes, res.Supernodes...)
	case ScotchLike, MetisLike:
		all := make([]int, g.N)
		for v := range all {
			all[v] = v
		}
		nd := &dissector{g: g, opts: opts, out: o, x: graph.NewExtractor(g)}
		nd.dissect(all)
	default:
		panic("order: unknown method")
	}
	for newI, old := range o.Perm {
		o.IPerm[old] = newI
	}
	return o
}

// expandOrdering maps an ordering of the compressed graph back to the
// original vertices: each compressed vertex expands to its (sorted) members,
// and supernode sizes expand to the total member count.
func expandOrdering(c *Ordering, groups [][]int, n int) *Ordering {
	o := &Ordering{Perm: make([]int, 0, n), IPerm: make([]int, n)}
	pos := 0
	for _, s := range c.SupernodeSizes {
		cols := 0
		for i := 0; i < s; i++ {
			members := groups[c.Perm[pos+i]]
			o.Perm = append(o.Perm, members...)
			cols += len(members)
		}
		pos += s
		o.SupernodeSizes = append(o.SupernodeSizes, cols)
	}
	for newI, old := range o.Perm {
		o.IPerm[old] = newI
	}
	return o
}

// dissector runs the nested dissection. Its extractor, separator
// scratch and AMD workspace are reused from level to level and leaf to leaf;
// each is done with before the dissection recurses, so one copy serves the whole
// dissection.
type dissector struct {
	g    *graph.Graph
	opts Options
	out  *Ordering
	x    *graph.Extractor
	sw   sepWork
	amd  amdWork
	tmp  []int
}

// dissect orders the vertices `verts` (global ids, ascending) of the
// dissector's graph, appending to the output permutation and supernode
// list. Subparts come first, the separator last, so separators are
// eliminated after both halves. verts is reordered in place: the parts are
// carved out of it, each kept ascending.
func (d *dissector) dissect(verts []int) {
	if len(verts) == 0 {
		return
	}
	if len(verts) <= d.opts.LeafSize {
		d.leaf(verts)
		return
	}
	sub, _ := d.x.Subgraph(verts)

	// Disconnected subgraphs dissect each component independently.
	comp, ncomp := d.sw.trav.Components(sub, nil, nil, 0)
	if ncomp > 1 {
		// Group verts by component (stably, so each group stays ascending),
		// components in order of their lowest vertex.
		bounds := make([]int, ncomp+1)
		for _, c := range comp {
			bounds[c+1]++
		}
		for c := 0; c < ncomp; c++ {
			bounds[c+1] += bounds[c]
		}
		d.regroup(verts, comp, append([]int(nil), bounds[:ncomp]...))
		for c := 0; c < ncomp; c++ {
			d.dissect(verts[bounds[c]:bounds[c+1]])
		}
		return
	}

	var side []int
	switch {
	case d.opts.Method == MetisLike:
		side = d.sw.vertexCoverSeparator(sub)
	case d.opts.Multilevel:
		side = d.sw.multilevelSeparator(sub, d.opts.RefinePasses)
	default:
		side = d.sw.levelSeparator(sub, d.opts.RefinePasses)
	}
	var count [3]int
	for _, sd := range side {
		count[sd]++
	}
	if count[0] == 0 || count[1] == 0 {
		// No useful split (e.g. near-clique): order the whole thing as a leaf.
		d.leaf(verts)
		return
	}
	// Lay verts out as [A | B | separator], each part ascending.
	na, nb := count[0], count[1]
	d.regroup(verts, side, []int{0, na, na + nb})
	d.dissect(verts[:na])
	d.dissect(verts[na : na+nb])
	if sep := verts[na+nb:]; len(sep) > 0 {
		d.out.Perm = append(d.out.Perm, sep...)
		d.out.SupernodeSizes = append(d.out.SupernodeSizes, len(sep))
	}
}

// regroup reorders verts stably by label — label[i] is the group of
// verts[i], next[c] where group c starts — so each group stays ascending.
func (d *dissector) regroup(verts, label, next []int) {
	d.tmp = grow(d.tmp, len(verts))
	for i, c := range label {
		d.tmp[next[c]] = verts[i]
		next[c]++
	}
	copy(verts, d.tmp)
}

// leaf orders a small subgraph with (Halo-)AMD and emits its supervariables
// as supernodes.
func (d *dissector) leaf(verts []int) {
	var sub *graph.Graph
	var l2g []int
	nInner := len(verts)
	if d.opts.Method == ScotchLike && !d.opts.NoHalo {
		sub, l2g, nInner = d.x.HaloSubgraph(verts)
	} else {
		sub, l2g = d.x.Subgraph(verts)
	}
	d.amd.run(sub, nInner)
	for _, lv := range d.amd.order {
		d.out.Perm = append(d.out.Perm, l2g[lv])
	}
	d.out.SupernodeSizes = append(d.out.SupernodeSizes, d.amd.snodes...)
}

// sepWork is the scratch the separators reuse across dissection levels.
// A separator returns side labels per local vertex — 0 for part A, 1 for
// part B, 2 for the separator — in storage that stays valid until the next
// separator call, or nil when the graph has no useful split.
type sepWork struct {
	trav   graph.Traversal
	side   []int
	wLevel []int
	cutDeg []int
	inSep  []bool
}

// bisectLevels picks the level-set split of a connected graph: rooted at a
// pseudo-peripheral vertex, it returns the BFS levels and the level bestL
// where the prefix weight is closest to half the total, or bestL == 0 when
// the graph is a single level (complete graph).
func (w *sepWork) bisectLevels(g *graph.Graph) (level []int, bestL int) {
	_, _, _, level = w.trav.PseudoPeripheral(g, 0, nil, 0)
	maxLevel := 0
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	if maxLevel == 0 {
		return nil, 0
	}
	// Weight per level; pick the split level where the prefix is closest to
	// half the total.
	w.wLevel = grow(w.wLevel, maxLevel+1)
	wLevel := w.wLevel
	clear(wLevel)
	total := 0
	for v := 0; v < g.N; v++ {
		wLevel[level[v]] += g.Weight(v)
		total += g.Weight(v)
	}
	bestL, bestDiff := 1, total
	prefix := 0
	// Keep at least one level on each side so neither part is empty.
	lastSplit := maxLevel - 1
	if lastSplit < 1 {
		lastSplit = 1
	}
	for l := 0; l < lastSplit; l++ {
		prefix += wLevel[l]
		diff := prefix - (total - prefix)
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff, bestL = diff, l+1
		}
	}
	return level, bestL
}

// levelSeparator bisects a connected graph with a level-set separator rooted
// at a pseudo-peripheral vertex, thins it, and applies bounded FM-style
// refinement.
func (w *sepWork) levelSeparator(g *graph.Graph, refinePasses int) []int {
	level, bestL := w.bisectLevels(g)
	if bestL == 0 {
		return nil // complete graph: caller falls back to leaf
	}
	// side: 0 = A (levels < bestL), 1 = B (levels > bestL), 2 = separator.
	w.side = grow(w.side, g.N)
	side := w.side
	for v := 0; v < g.N; v++ {
		switch {
		case level[v] < bestL:
			side[v] = 0
		case level[v] > bestL:
			side[v] = 1
		default:
			side[v] = 2
		}
	}
	thinSeparator(g, side)
	refineSeparator(g, side, refinePasses)
	return side
}

// thinSeparator moves separator vertices that touch only one side into that
// side (or into the lighter side if isolated).
func thinSeparator(g *graph.Graph, side []int) {
	wA, wB := sideWeights(g, side)
	changed := true
	for changed {
		changed = false
		for v := 0; v < g.N; v++ {
			if side[v] != 2 {
				continue
			}
			hasA, hasB := false, false
			for _, u := range g.Neighbors(v) {
				if side[u] == 0 {
					hasA = true
				} else if side[u] == 1 {
					hasB = true
				}
			}
			switch {
			case hasA && hasB:
			case hasA:
				side[v] = 0
				wA += g.Weight(v)
				changed = true
			case hasB:
				side[v] = 1
				wB += g.Weight(v)
				changed = true
			default: // isolated within separator
				if wA <= wB {
					side[v], wA = 0, wA+g.Weight(v)
				} else {
					side[v], wB = 1, wB+g.Weight(v)
				}
				changed = true
			}
		}
	}
}

func sideWeights(g *graph.Graph, side []int) (wA, wB int) {
	for v := 0; v < g.N; v++ {
		switch side[v] {
		case 0:
			wA += g.Weight(v)
		case 1:
			wB += g.Weight(v)
		}
	}
	return
}

// refineSeparator performs bounded greedy passes moving a separator vertex
// into one side and pulling its opposite-side neighbours into the separator,
// accepting moves that shrink the separator (or keep it equal while
// improving balance).
func refineSeparator(g *graph.Graph, side []int, passes int) {
	for p := 0; p < passes; p++ {
		improved := false
		wA, wB := sideWeights(g, side)
		for v := 0; v < g.N; v++ {
			if side[v] != 2 {
				continue
			}
			// Cost of moving v to A: opposite-side (B) neighbours must join
			// the separator.
			intoB, intoA := 0, 0
			for _, u := range g.Neighbors(v) {
				switch side[u] {
				case 1:
					intoB += g.Weight(u)
				case 0:
					intoA += g.Weight(u)
				}
			}
			gainToA := g.Weight(v) - intoB // separator weight change * -1
			gainToB := g.Weight(v) - intoA
			doMove := func(target int) {
				for _, u := range g.Neighbors(v) {
					if target == 0 && side[u] == 1 {
						side[u] = 2
						wB -= g.Weight(u)
					} else if target == 1 && side[u] == 0 {
						side[u] = 2
						wA -= g.Weight(u)
					}
				}
				side[v] = target
				if target == 0 {
					wA += g.Weight(v)
				} else {
					wB += g.Weight(v)
				}
			}
			if gainToA > 0 || gainToB > 0 {
				if gainToA >= gainToB {
					doMove(0)
				} else {
					doMove(1)
				}
				improved = true
			} else if gainToA == 0 && wA < wB {
				doMove(0)
				improved = true
			} else if gainToB == 0 && wB < wA {
				doMove(1)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// vertexCoverSeparator (MetisLike) computes the level bisection and then
// covers the cut edges greedily by degree, taking cover vertices as the
// separator.
func (w *sepWork) vertexCoverSeparator(g *graph.Graph) []int {
	level, bestL := w.bisectLevels(g)
	if bestL == 0 {
		return nil
	}
	w.side = grow(w.side, g.N)
	side := w.side // 0=A,1=B
	for v := 0; v < g.N; v++ {
		if level[v] < bestL {
			side[v] = 0
		} else {
			side[v] = 1
		}
	}
	// Greedy vertex cover of the cut: repeatedly take the endpoint covering
	// the most uncovered cut edges.
	w.cutDeg = grow(w.cutDeg, g.N)
	cutDeg := w.cutDeg
	for v := 0; v < g.N; v++ {
		cutDeg[v] = 0
		for _, u := range g.Neighbors(v) {
			if side[u] != side[v] {
				cutDeg[v]++
			}
		}
	}
	w.inSep = grow(w.inSep, g.N)
	inSep := w.inSep
	clear(inSep)
	for {
		best, bestD := -1, 0
		for v := 0; v < g.N; v++ {
			if !inSep[v] && cutDeg[v] > bestD {
				best, bestD = v, cutDeg[v]
			}
		}
		if best < 0 {
			break
		}
		inSep[best] = true
		for _, u := range g.Neighbors(best) {
			if !inSep[u] && side[u] != side[best] {
				cutDeg[u]--
			}
		}
		cutDeg[best] = 0
	}
	for v := 0; v < g.N; v++ {
		if inSep[v] {
			side[v] = 2
		}
	}
	return side
}
