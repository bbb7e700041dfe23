package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	adj := make([][]int, n)
	for i := 0; i < n-1; i++ {
		adj[i] = append(adj[i], i+1)
	}
	return New(adj)
}

func TestNewSymmetrizes(t *testing.T) {
	g := New([][]int{{1, 2, 2}, {}, {0}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 2 || g.Degree(1) != 1 || g.Degree(2) != 1 {
		t.Fatalf("wrong degrees: %v", g.Ptr)
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("edge (1,0) missing after symmetrization")
	}
	if g.HasEdge(1, 2) {
		t.Fatal("spurious edge (1,2)")
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	New([][]int{{5}})
}

func TestNewDropsSelfLoops(t *testing.T) {
	g := New([][]int{{0, 1}, {1}})
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("self loops not removed: degrees %d,%d", g.Degree(0), g.Degree(1))
	}
}

func TestGrid2DStructure(t *testing.T) {
	g := Grid2D(3, 4)
	if g.N != 12 {
		t.Fatalf("n=%d", g.N)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corner vertex 0 has 2 neighbours, interior vertex (1,1)=4 has 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree %d", g.Degree(0))
	}
	if g.Degree(4) != 4 {
		t.Fatalf("interior degree %d", g.Degree(4))
	}
	// Edge count of grid: nx*(ny-1)+ny*(nx-1) wait: horizontal edges (nx-1)*ny, vertical nx*(ny-1).
	want := (3-1)*4 + 3*(4-1)
	if g.NumEdges() != want {
		t.Fatalf("edges=%d want %d", g.NumEdges(), want)
	}
}

func TestGrid3DStructure(t *testing.T) {
	g := Grid3D(3, 3, 3)
	if g.N != 27 {
		t.Fatalf("n=%d", g.N)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(13) != 6 { // center
		t.Fatalf("center degree %d", g.Degree(13))
	}
	if g.Degree(0) != 3 { // corner
		t.Fatalf("corner degree %d", g.Degree(0))
	}
}

func TestGrid3D27Structure(t *testing.T) {
	g := Grid3D27(3, 3, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(13) != 26 {
		t.Fatalf("center degree %d", g.Degree(13))
	}
	if g.Degree(0) != 7 {
		t.Fatalf("corner degree %d", g.Degree(0))
	}
}

func TestBFSLevels(t *testing.T) {
	g := pathGraph(5)
	order, level := g.BFS(0, nil, 0)
	if len(order) != 5 {
		t.Fatalf("visited %d", len(order))
	}
	for i := 0; i < 5; i++ {
		if level[i] != i {
			t.Fatalf("level[%d]=%d", i, level[i])
		}
	}
}

func TestBFSMasked(t *testing.T) {
	g := pathGraph(5)
	mask := []int{7, 7, 0, 7, 7} // vertex 2 excluded
	order, level := g.BFS(0, mask, 7)
	if len(order) != 2 {
		t.Fatalf("visited %d, want 2 (blocked by mask)", len(order))
	}
	if level[3] != -1 || level[4] != -1 {
		t.Fatal("reached past masked vertex")
	}
}

func TestPseudoPeripheralPath(t *testing.T) {
	g := pathGraph(10)
	v, h := g.PseudoPeripheral(5, nil, 0)
	if v != 0 && v != 9 {
		t.Fatalf("pseudo-peripheral of path should be an endpoint, got %d", v)
	}
	if h != 9 {
		t.Fatalf("height %d want 9", h)
	}
}

func TestComponents(t *testing.T) {
	// Two disjoint paths: 0-1-2 and 3-4.
	g := New([][]int{{1}, {2}, {}, {4}, {}})
	comp, n := g.Components(nil, nil, 0)
	if n != 2 {
		t.Fatalf("ncomp=%d", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("first component split")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Fatal("second component wrong")
	}
}

func TestComponentsMasked(t *testing.T) {
	g := pathGraph(5)
	mask := []int{1, 1, 0, 1, 1}
	comp, n := g.Components(nil, mask, 1)
	if n != 2 {
		t.Fatalf("ncomp=%d want 2", n)
	}
	if comp[2] != -1 {
		t.Fatal("masked vertex assigned a component")
	}
}

func TestSubgraph(t *testing.T) {
	g := Grid2D(4, 4)
	verts := []int{0, 1, 4, 5}
	sub, l2g := g.Subgraph(verts)
	if sub.N != 4 {
		t.Fatalf("n=%d", sub.N)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(l2g) {
		t.Fatal("loc2glob not sorted")
	}
	// 2x2 block has 4 edges.
	if sub.NumEdges() != 4 {
		t.Fatalf("edges=%d", sub.NumEdges())
	}
}

func TestHaloSubgraph(t *testing.T) {
	g := Grid2D(4, 4)
	verts := []int{0, 1, 4, 5} // top-left 2x2 block
	sub, l2g, nInner := g.HaloSubgraph(verts)
	if nInner != 4 {
		t.Fatalf("nInner=%d", nInner)
	}
	// Halo of the 2x2 corner block: vertices 2, 6, 8, 9.
	halo := l2g[nInner:]
	want := []int{2, 6, 8, 9}
	if len(halo) != len(want) {
		t.Fatalf("halo %v want %v", halo, want)
	}
	for i := range want {
		if halo[i] != want[i] {
			t.Fatalf("halo %v want %v", halo, want)
		}
	}
	// Halo-halo edges must be absent: vertices 8 and 9 are adjacent in g but
	// both are halo.
	li8, li9 := -1, -1
	for i, v := range l2g {
		if v == 8 {
			li8 = i
		}
		if v == 9 {
			li9 = i
		}
	}
	for _, u := range sub.Neighbors(li8) {
		if u == li9 {
			t.Fatal("halo-halo edge present")
		}
	}
}

func TestCompress(t *testing.T) {
	g := Grid2D(4, 1) // path of 4
	part := []int{0, 0, 1, 1}
	cg := g.Compress(part, 2)
	if cg.N != 2 {
		t.Fatalf("n=%d", cg.N)
	}
	if cg.VWgt[0] != 2 || cg.VWgt[1] != 2 {
		t.Fatalf("weights %v", cg.VWgt)
	}
	if !cg.HasEdge(0, 1) {
		t.Fatal("parts should be adjacent")
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func randomGraph(rng *rand.Rand, n int, density float64) *Graph {
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return New(adj)
}

func TestValidateRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(40)
		g := randomGraph(rng, n, 0.2)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestQuickSubgraphPreservesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(30)
		g := randomGraph(r, n, 0.25)
		// Random subset.
		var verts []int
		for v := 0; v < n; v++ {
			if r.Float64() < 0.5 {
				verts = append(verts, v)
			}
		}
		if len(verts) == 0 {
			return true
		}
		sub, l2g := g.Subgraph(verts)
		// Every subgraph edge must exist in g and vice versa.
		for lv := 0; lv < sub.N; lv++ {
			for _, lu := range sub.Neighbors(lv) {
				if !g.HasEdge(l2g[lv], l2g[lu]) {
					return false
				}
			}
		}
		inSub := make(map[int]int)
		for i, v := range l2g {
			inSub[v] = i
		}
		for _, v := range verts {
			for _, u := range g.Neighbors(v) {
				if lu, ok := inSub[u]; ok {
					if !sub.HasEdge(inSub[v], lu) {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPseudoPeripheralOnGrid(t *testing.T) {
	g := Grid3D(5, 5, 5)
	v, h := g.PseudoPeripheral(62, nil, 0) // start at center
	// A pseudo-peripheral vertex of the 5^3 grid should be a corner with
	// eccentricity 12 (Manhattan diameter).
	if h != 12 {
		t.Fatalf("height %d want 12 (found v=%d)", h, v)
	}
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

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
