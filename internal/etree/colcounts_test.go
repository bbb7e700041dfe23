package etree

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/pastix-go/pastix/internal/sparse"
)

// refColCounts is the row-subtree marking algorithm (O(|L|)) that
// ColCounts used before the Gilbert–Ng–Peyton skeleton counts, kept as
// their reference.
func refColCounts(a *sparse.SymMatrix, parent []int) []int {
	n := a.N
	cc := make([]int, n)
	mark := make([]int, n)
	for j := range cc {
		cc[j] = 1
		mark[j] = -1
	}
	rowPtr, rowIdx := lowerRows(a)
	for i := 0; i < n; i++ {
		mark[i] = i
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			for k := rowIdx[p]; k != -1 && k < i && mark[k] != i; k = parent[k] {
				cc[k]++
				mark[k] = i
			}
		}
	}
	return cc
}

// randomPattern builds a random symmetric pattern of order n with about
// density·n²/2 off-diagonal entries, a few of them long-range.
func randomPattern(rng *rand.Rand, n int, density float64) *sparse.SymMatrix {
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
		for j := 0; j < i; j++ {
			if rng.Float64() < density || (j == i-1 && rng.Intn(4) > 0) {
				b.Add(i, j, -1)
			}
		}
	}
	return b.Build()
}

// TestColCountsMatchRowSubtree compares the skeleton counts with the
// row-subtree reference, on the matrix and — through ColCountsPermuted —
// on random symmetric permutations of it read off its adjacency graph.
func TestColCountsMatchRowSubtree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(70)
		a := randomPattern(rng, n, 0.02+0.2*rng.Float64())
		parent := Build(a)
		if got, want := ColCounts(a, parent), refColCounts(a, parent); !slices.Equal(got, want) {
			t.Fatalf("trial %d: counts %v, reference %v", trial, got, want)
		}
		perm := rng.Perm(n)
		iperm := make([]int, n)
		for newI, old := range perm {
			iperm[old] = newI
		}
		ptr, adj := a.AdjacencyCSR()
		pa := a.Permute(perm)
		pparent := BuildPermuted(ptr, adj, perm, iperm)
		if want := Build(pa); !slices.Equal(pparent, want) {
			t.Fatalf("trial %d: permuted tree %v, want %v", trial, pparent, want)
		}
		got := ColCountsPermuted(ptr, adj, perm, iperm, pparent, Postorder(pparent))
		if want := refColCounts(pa, pparent); !slices.Equal(got, want) {
			t.Fatalf("trial %d: permuted counts %v, reference %v", trial, got, want)
		}
	}
}
