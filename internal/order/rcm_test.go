package order

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/pastix-go/pastix/internal/graph"
)

// RCM computes the Reverse Cuthill-McKee ordering of g: a bandwidth/profile
// reducing permutation, provided as a classical baseline against the
// fill-reducing orderings (direct solvers on RCM orderings behave like band
// solvers; Table-1-style metrics quantify how much ND+HAMD gains over it).
// Each connected component is ordered from a pseudo-peripheral root by BFS
// with neighbours visited in increasing-degree order; the final ordering is
// reversed.
func RCM(g *graph.Graph) *Ordering {
	n := g.N
	o := &Ordering{Perm: make([]int, 0, n), IPerm: make([]int, n)}
	visited := make([]bool, n)
	queue := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root, _ := g.PseudoPeripheral(start, nil, 0)
		if visited[root] {
			root = start // pseudo-peripheral search is unrestricted; be safe
		}
		queue = append(queue[:0], root)
		visited[root] = true
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			o.Perm = append(o.Perm, v)
			nbrs := append([]int(nil), g.Neighbors(v)...)
			sort.Slice(nbrs, func(i, j int) bool {
				di, dj := g.Degree(nbrs[i]), g.Degree(nbrs[j])
				if di != dj {
					return di < dj
				}
				return nbrs[i] < nbrs[j]
			})
			for _, u := range nbrs {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	// Reverse (the "R" of RCM).
	for i, j := 0, len(o.Perm)-1; i < j; i, j = i+1, j-1 {
		o.Perm[i], o.Perm[j] = o.Perm[j], o.Perm[i]
	}
	for newI, old := range o.Perm {
		o.IPerm[old] = newI
		o.SupernodeSizes = append(o.SupernodeSizes, 1)
	}
	return o
}

// Bandwidth returns the half-bandwidth of the graph's adjacency under the
// given ordering (max |iperm[u]−iperm[v]| over edges).
func Bandwidth(g *graph.Graph, iperm []int) int {
	bw := 0
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if d := iperm[v] - iperm[u]; d > bw {
				bw = d
			}
		}
	}
	return bw
}

// Profile returns the envelope size Σ_i (i − min{j : A[perm] has (i,j)}),
// the storage of a variable-band solver under the ordering.
func Profile(g *graph.Graph, iperm []int) int64 {
	var p int64
	for v := 0; v < g.N; v++ {
		minJ := iperm[v]
		for _, u := range g.Neighbors(v) {
			if iperm[u] < minJ {
				minJ = iperm[u]
			}
		}
		p += int64(iperm[v] - minJ)
	}
	return p
}

func TestRCMIsPermutation(t *testing.T) {
	g := graph.Grid2D(9, 7)
	o := RCM(g)
	if err := o.Validate(g.N); err != nil {
		t.Fatal(err)
	}
}

func TestRCMReducesBandwidthOnShuffledGrid(t *testing.T) {
	// Build a grid whose natural labels are shuffled; RCM must bring the
	// bandwidth down to near the grid's optimum (min(nx,ny)+1).
	nx, ny := 16, 12
	base := graph.Grid2D(nx, ny)
	rng := rand.New(rand.NewSource(61))
	shuffle := rng.Perm(base.N)
	adj := make([][]int, base.N)
	for v := 0; v < base.N; v++ {
		for _, u := range base.Neighbors(v) {
			adj[shuffle[v]] = append(adj[shuffle[v]], shuffle[u])
		}
	}
	g := graph.New(adj)
	ident := make([]int, g.N)
	for i := range ident {
		ident[i] = i
	}
	before := Bandwidth(g, ident)
	o := RCM(g)
	after := Bandwidth(g, o.IPerm)
	if after >= before {
		t.Fatalf("RCM did not reduce bandwidth: %d -> %d", before, after)
	}
	if after > 3*(min(nx, ny)+1) {
		t.Fatalf("RCM bandwidth %d far from grid optimum %d", after, min(nx, ny)+1)
	}
	if p := Profile(g, o.IPerm); p <= 0 {
		t.Fatal("profile must be positive")
	}
}

func TestRCMDisconnected(t *testing.T) {
	// Two components.
	adj := make([][]int, 7)
	adj[0] = []int{1}
	adj[1] = []int{2}
	adj[4] = []int{5}
	adj[5] = []int{6}
	g := graph.New(adj)
	o := RCM(g)
	if err := o.Validate(g.N); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthOfPath(t *testing.T) {
	g := graph.Grid2D(10, 1)
	ident := make([]int, 10)
	for i := range ident {
		ident[i] = i
	}
	if bw := Bandwidth(g, ident); bw != 1 {
		t.Fatalf("path bandwidth %d", bw)
	}
	if p := Profile(g, ident); p != 9 {
		t.Fatalf("path profile %d", p)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
