package order

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/pastix-go/pastix/internal/graph"
)

// fuzzGraph decodes bytes into a small graph: the first byte sets the order,
// the second the interior count, the third whether vertices carry weights,
// and the rest are edge endpoints (and weights) in pairs.
func fuzzGraph(data []byte) (*graph.Graph, int) {
	if len(data) < 3 {
		return nil, 0
	}
	n := 1 + int(data[0])%48
	nInner := int(data[1]) % (n + 1)
	weighted := data[2]%2 == 1
	rest := data[3:]
	adj := make([][]int, n)
	for i := 0; i+1 < len(rest); i += 2 {
		u, v := int(rest[i])%n, int(rest[i+1])%n
		adj[u] = append(adj[u], v)
	}
	g := graph.New(adj)
	if weighted {
		g.VWgt = make([]int, n)
		for v := range g.VWgt {
			g.VWgt[v] = 1
			if v < len(rest) {
				g.VWgt[v] += int(rest[v]) % 4
			}
		}
	}
	return g, nInner
}

func sameAMD(t *testing.T, got, want *AMDResult) {
	t.Helper()
	if !slices.Equal(got.Order, want.Order) || !slices.Equal(got.Supernodes, want.Supernodes) {
		t.Fatalf("order %v supernodes %v, reference %v %v", got.Order, got.Supernodes, want.Order, want.Supernodes)
	}
}

// FuzzHaloAMD checks the flat-array Halo-AMD against the map-based
// reference on random small graphs with random halo splits: same pivots,
// same absorptions, same emission order. The workspace is reused across a
// second graph, as the dissector reuses it across leaves.
func FuzzHaloAMD(f *testing.F) {
	f.Add([]byte{9, 9, 0, 0, 1, 1, 2, 2, 3, 3, 4, 0, 4})
	f.Add([]byte{20, 12, 1, 0, 5, 5, 10, 10, 15, 1, 6, 6, 11, 2, 7, 3, 8, 0, 19})
	f.Add([]byte{5, 5, 0, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4})
	f.Add([]byte{30, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, nInner := fuzzGraph(data)
		if g == nil {
			return
		}
		var ws amdWork
		for round := 0; round < 2; round++ {
			ws.run(g, nInner)
			sameAMD(t, &AMDResult{Order: ws.order, Supernodes: ws.snodes}, refHaloAMD(g, nInner))
			// Second round: a different split of the same bytes.
			if len(data) > 4 {
				g, nInner = fuzzGraph(data[1:])
				if g == nil {
					return
				}
			}
		}
	})
}

// TestHaloAMDMatchesReference runs the comparison on the graphs the
// dissector actually meets: grid leaves with their halos, and whole grids.
func TestHaloAMDMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ws amdWork
	for _, g := range []*graph.Graph{graph.Grid2D(9, 7), graph.Grid3D(6, 5, 4), graph.Grid3D27(4, 4, 3)} {
		sameAMD(t, AMD(g), refHaloAMD(g, g.N))
		for trial := 0; trial < 20; trial++ {
			var verts []int
			for v := 0; v < g.N; v++ {
				if rng.Intn(3) == 0 {
					verts = append(verts, v)
				}
			}
			sub, _, nInner := g.HaloSubgraph(verts)
			ws.run(sub, nInner)
			sameAMD(t, &AMDResult{Order: ws.order, Supernodes: ws.snodes}, refHaloAMD(sub, nInner))
		}
	}
}
