// Package graph provides the adjacency-graph machinery used by the ordering
// and symbolic-factorization phases: compressed sparse row (CSR) symmetric
// graphs, traversals, pseudo-peripheral vertex search, induced subgraphs with
// halo, and vertex-weighted compressed graphs.
//
// A Graph represents the adjacency structure of a symmetric sparse matrix:
// vertex i is adjacent to j iff A[i][j] != 0, i != j. Self loops are never
// stored. All graphs in this package are undirected and stored symmetrically
// (both (i,j) and (j,i) appear).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is a symmetric adjacency structure in CSR form.
// The neighbours of vertex v are Adj[Ptr[v]:Ptr[v+1]].
type Graph struct {
	N   int   // number of vertices
	Ptr []int // length N+1
	Adj []int // length Ptr[N]

	// VWgt holds optional vertex weights. If nil every vertex has weight 1.
	// Compressed graphs carry the size of each merged vertex set here.
	VWgt []int
}

// New builds a graph from an adjacency list, symmetrizing and removing
// self-loops and duplicate edges.
func New(adj [][]int) *Graph {
	n := len(adj)
	sets := make([]map[int]struct{}, n)
	for i := range sets {
		sets[i] = make(map[int]struct{})
	}
	for u, nbrs := range adj {
		for _, v := range nbrs {
			if v == u {
				continue
			}
			if v < 0 || v >= n {
				panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, n))
			}
			sets[u][v] = struct{}{}
			sets[v][u] = struct{}{}
		}
	}
	g := &Graph{N: n, Ptr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		g.Ptr[i+1] = g.Ptr[i] + len(sets[i])
	}
	g.Adj = make([]int, g.Ptr[n])
	for i := 0; i < n; i++ {
		p := g.Ptr[i]
		for v := range sets[i] {
			g.Adj[p] = v
			p++
		}
		sort.Ints(g.Adj[g.Ptr[i]:g.Ptr[i+1]])
	}
	return g
}

// FromCSR wraps existing CSR arrays without copying. The caller must
// guarantee symmetry, sorted rows and absence of self loops.
func FromCSR(n int, ptr, adj []int) *Graph {
	if len(ptr) != n+1 {
		panic("graph: ptr length must be n+1")
	}
	return &Graph{N: n, Ptr: ptr, Adj: adj}
}

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int) int { return g.Ptr[v+1] - g.Ptr[v] }

// Neighbors returns the (sorted) adjacency slice of v. The slice aliases the
// graph storage and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.Adj[g.Ptr[v]:g.Ptr[v+1]] }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// Weight returns the weight of vertex v (1 if the graph is unweighted).
func (g *Graph) Weight(v int) int {
	if g.VWgt == nil {
		return 1
	}
	return g.VWgt[v]
}

// TotalWeight returns the sum of all vertex weights.
func (g *Graph) TotalWeight() int {
	if g.VWgt == nil {
		return g.N
	}
	t := 0
	for _, w := range g.VWgt {
		t += w
	}
	return t
}

// Validate checks structural invariants (symmetry, sortedness, no loops).
func (g *Graph) Validate() error {
	if len(g.Ptr) != g.N+1 {
		return fmt.Errorf("graph: ptr length %d != n+1=%d", len(g.Ptr), g.N+1)
	}
	if g.Ptr[0] != 0 || g.Ptr[g.N] != len(g.Adj) {
		return fmt.Errorf("graph: ptr bounds invalid")
	}
	for v := 0; v < g.N; v++ {
		row := g.Neighbors(v)
		for i, u := range row {
			if u < 0 || u >= g.N {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d", v, u)
			}
			if u == v {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("graph: row %d not strictly sorted", v)
			}
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", v, u)
			}
		}
	}
	return nil
}

// HasEdge reports whether u and v are adjacent (binary search on u's row).
func (g *Graph) HasEdge(u, v int) bool {
	row := g.Neighbors(u)
	i := sort.SearchInts(row, v)
	return i < len(row) && row[i] == v
}

// BFS runs a breadth-first search from root restricted to vertices with
// mask[v]==maskVal (pass mask==nil for the whole graph). It returns the
// visit order and the level (distance) of each visited vertex; level is -1
// for unvisited vertices.
func (g *Graph) BFS(root int, mask []int, maskVal int) (order []int, level []int) {
	return new(Traversal).BFS(g, root, mask, maskVal)
}

// PseudoPeripheral finds a vertex of (approximately) maximal eccentricity in
// the component of start, restricted to mask/maskVal, using the standard
// Gibbs-Poole-Stockmeyer iteration. It returns that vertex and the number of
// BFS levels rooted there.
func (g *Graph) PseudoPeripheral(start int, mask []int, maskVal int) (v int, height int) {
	v, height, _, _ = new(Traversal).PseudoPeripheral(g, start, mask, maskVal)
	return v, height
}

// Components labels connected components restricted to mask/maskVal over the
// given vertex set (nil = all vertices). It returns the component id of each
// vertex (-1 for vertices outside the mask) and the number of components.
func (g *Graph) Components(verts []int, mask []int, maskVal int) (comp []int, ncomp int) {
	return new(Traversal).Components(g, verts, mask, maskVal)
}

// Traversal is breadth-first search storage that repeated searches reuse —
// nested dissection runs several per level. The slices a search
// returns alias it and stay valid until the next search.
type Traversal struct {
	order, level [2][]int // two BFS buffers, so PseudoPeripheral keeps its best
	cur          int
}

// resize returns x with length n, reusing its storage when large enough.
func resize(x []int, n int) []int {
	if cap(x) < n {
		return make([]int, n)
	}
	return x[:n]
}

// BFS is Graph.BFS on the traversal's storage.
func (t *Traversal) BFS(g *Graph, root int, mask []int, maskVal int) (order []int, level []int) {
	level = resize(t.level[t.cur], g.N)
	for i := range level {
		level[i] = -1
	}
	order = resize(t.order[t.cur], g.N)[:0]
	level[root] = 0
	order = append(order, root)
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, u := range g.Neighbors(v) {
			if level[u] >= 0 {
				continue
			}
			if mask != nil && mask[u] != maskVal {
				continue
			}
			level[u] = level[v] + 1
			order = append(order, u)
		}
	}
	t.order[t.cur], t.level[t.cur] = order, level
	return order, level
}

// PseudoPeripheral is Graph.PseudoPeripheral on the traversal's storage; it
// also returns the BFS order and levels rooted at the vertex found.
func (t *Traversal) PseudoPeripheral(g *Graph, start int, mask []int, maskVal int) (v, height int, order, level []int) {
	v = start
	order, level = t.BFS(g, v, mask, maskVal)
	height = level[order[len(order)-1]]
	for iter := 0; iter < 8; iter++ {
		// Pick a minimum-degree vertex in the last level.
		last := order[len(order)-1]
		best := last
		for i := len(order) - 1; i >= 0 && level[order[i]] == level[last]; i-- {
			if g.Degree(order[i]) < g.Degree(best) {
				best = order[i]
			}
		}
		t.cur ^= 1
		o2, l2 := t.BFS(g, best, mask, maskVal)
		h2 := l2[o2[len(o2)-1]]
		if h2 <= height {
			t.cur ^= 1
			break
		}
		v, height, order, level = best, h2, o2, l2
	}
	return v, height, order, level
}

// Components is Graph.Components on the traversal's storage.
func (t *Traversal) Components(g *Graph, verts []int, mask []int, maskVal int) (comp []int, ncomp int) {
	comp = resize(t.level[t.cur], g.N)
	for i := range comp {
		comp[i] = -1
	}
	inSet := func(v int) bool { return mask == nil || mask[v] == maskVal }
	queue := resize(t.order[t.cur], g.N)[:0]
	visit := func(s int) {
		if !inSet(s) || comp[s] >= 0 {
			return
		}
		comp[s] = ncomp
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range g.Neighbors(v) {
				if comp[u] < 0 && inSet(u) {
					comp[u] = ncomp
					queue = append(queue, u)
				}
			}
		}
		ncomp++
	}
	if verts == nil {
		for s := 0; s < g.N; s++ {
			visit(s)
		}
	} else {
		for _, s := range verts {
			visit(s)
		}
	}
	t.order[t.cur], t.level[t.cur] = queue, comp
	return comp, ncomp
}

// Subgraph materializes the graph induced by verts. It returns the subgraph
// and local→global vertex numbering (which is just a copy of verts, sorted).
// Vertex weights are inherited.
func (g *Graph) Subgraph(verts []int) (*Graph, []int) {
	sorted := append([]int(nil), verts...)
	sort.Ints(sorted)
	return NewExtractor(g).Subgraph(sorted)
}

// HaloSubgraph materializes the graph induced by verts plus its distance-1
// halo (neighbours outside verts). It returns the subgraph, local→global
// numbering, and nInner: locals [0,nInner) are the interior vertices and
// locals [nInner, N) are halo vertices. Interior vertices come first, each
// group sorted by global index.
func (g *Graph) HaloSubgraph(verts []int) (sub *Graph, loc2glob []int, nInner int) {
	sorted := append([]int(nil), verts...)
	sort.Ints(sorted)
	return NewExtractor(g).HaloSubgraph(sorted)
}

// Extractor materializes induced subgraphs of one graph into storage it
// reuses from call to call. A global→local index array, reset after each
// extraction, replaces a per-call hash map. The graph and numbering a call
// returns alias the extractor and stay valid until its next call.
type Extractor struct {
	g   *Graph
	loc []int // global → local index; -1 outside the current extraction
	l2g []int
	wgt []int
	sub Graph
}

// NewExtractor returns an extractor over g.
func NewExtractor(g *Graph) *Extractor {
	loc := make([]int, g.N)
	for i := range loc {
		loc[i] = -1
	}
	return &Extractor{g: g, loc: loc}
}

// Subgraph is Graph.Subgraph for verts already sorted ascending; the
// numbering it returns is verts itself.
func (x *Extractor) Subgraph(verts []int) (*Graph, []int) {
	for i, v := range verts {
		x.loc[v] = i
	}
	sub := x.build(verts, len(verts))
	for _, v := range verts {
		x.loc[v] = -1
	}
	return sub, verts
}

// HaloSubgraph is Graph.HaloSubgraph for verts already sorted ascending.
func (x *Extractor) HaloSubgraph(verts []int) (sub *Graph, loc2glob []int, nInner int) {
	g := x.g
	nInner = len(verts)
	l2g := append(x.l2g[:0], verts...)
	for i, v := range verts {
		x.loc[v] = i
	}
	for _, v := range verts {
		for _, u := range g.Neighbors(v) {
			if x.loc[u] == -1 {
				x.loc[u] = nInner // provisional: numbered once sorted
				l2g = append(l2g, u)
			}
		}
	}
	slices.Sort(l2g[nInner:])
	for i := nInner; i < len(l2g); i++ {
		x.loc[l2g[i]] = i
	}
	x.l2g = l2g
	sub = x.build(l2g, nInner)
	for _, v := range l2g {
		x.loc[v] = -1
	}
	return sub, l2g, nInner
}

// build assembles the subgraph on the numbering l2g (with x.loc holding its
// inverse). Locals from nInner on are halo: edges between two of them are
// irrelevant to the halo degrees of interior vertices and are dropped.
func (x *Extractor) build(l2g []int, nInner int) *Graph {
	g := x.g
	n := len(l2g)
	sub := &x.sub
	sub.N = n
	sub.Ptr = resize(sub.Ptr, n+1)
	sub.Ptr[0] = 0
	bound := 0
	for _, v := range l2g {
		bound += g.Ptr[v+1] - g.Ptr[v]
	}
	if cap(sub.Adj) < bound {
		sub.Adj = make([]int, 0, bound)
	}
	adj := sub.Adj[:0]
	for i, v := range l2g {
		isHalo := i >= nInner
		for _, u := range g.Neighbors(v) {
			lu := x.loc[u]
			if lu < 0 || (isHalo && lu >= nInner) {
				continue
			}
			adj = append(adj, lu)
		}
		sub.Ptr[i+1] = len(adj)
	}
	sub.Adj = adj
	sub.VWgt = nil
	if g.VWgt != nil {
		x.wgt = resize(x.wgt, n)
		for i, v := range l2g {
			x.wgt[i] = g.VWgt[v]
		}
		sub.VWgt = x.wgt
	}
	return sub
}

// Compress builds the compressed (quotient) graph in which each part —
// part[v] in [0,nparts) — becomes a single vertex whose weight is the sum of
// the member weights, with an edge between parts p,q iff some member edge
// crosses them.
func (g *Graph) Compress(part []int, nparts int) *Graph {
	sets := make([]map[int]struct{}, nparts)
	wgt := make([]int, nparts)
	for i := range sets {
		sets[i] = make(map[int]struct{})
	}
	for v := 0; v < g.N; v++ {
		p := part[v]
		wgt[p] += g.Weight(v)
		for _, u := range g.Neighbors(v) {
			q := part[u]
			if q != p {
				sets[p][q] = struct{}{}
			}
		}
	}
	cg := &Graph{N: nparts, Ptr: make([]int, nparts+1), VWgt: wgt}
	for p := 0; p < nparts; p++ {
		cg.Ptr[p+1] = cg.Ptr[p] + len(sets[p])
	}
	cg.Adj = make([]int, cg.Ptr[nparts])
	for p := 0; p < nparts; p++ {
		i := cg.Ptr[p]
		for q := range sets[p] {
			cg.Adj[i] = q
			i++
		}
		sort.Ints(cg.Adj[cg.Ptr[p]:cg.Ptr[p+1]])
	}
	return cg
}
