package etree

import (
	"math/rand"
	"testing"

	"github.com/pastix-go/pastix/internal/sparse"
)

// arrow builds the n×n "arrow" matrix with dense last row/column: its etree
// is a path and L fills completely in the last column only.
func arrow(n int) *sparse.SymMatrix {
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, float64(n+2))
		if i < n-1 {
			b.Add(n-1, i, -1)
		}
	}
	return b.Build()
}

// tridiag builds a tridiagonal SPD matrix; L has no fill and the etree is a
// path 0→1→…→n-1.
func tridiag(n int) *sparse.SymMatrix {
	b := sparse.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 4)
		if i+1 < n {
			b.Add(i+1, i, -1)
		}
	}
	return b.Build()
}

func laplacian2D(nx, ny int) *sparse.SymMatrix {
	b := sparse.NewBuilder(nx * ny)
	idx := func(i, j int) int { return i + j*nx }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			v := idx(i, j)
			b.Add(v, v, 4)
			if i+1 < nx {
				b.Add(v, idx(i+1, j), -1)
			}
			if j+1 < ny {
				b.Add(v, idx(i, j+1), -1)
			}
		}
	}
	return b.Build()
}

// denseSymbolic computes L's column counts by explicit dense symbolic
// elimination (reference oracle, O(n³)).
func denseSymbolic(a *sparse.SymMatrix) []int {
	n := a.N
	pat := make([][]bool, n)
	for i := range pat {
		pat[i] = make([]bool, n)
	}
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			pat[a.RowIdx[p]][j] = true
		}
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			if !pat[i][k] {
				continue
			}
			for j := k + 1; j <= i; j++ {
				if pat[j][k] {
					pat[i][j] = true
				}
			}
		}
	}
	cc := make([]int, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if pat[i][j] {
				cc[j]++
			}
		}
	}
	return cc
}

func TestEtreeTridiag(t *testing.T) {
	a := tridiag(8)
	parent := Build(a)
	for j := 0; j < 7; j++ {
		if parent[j] != j+1 {
			t.Fatalf("parent[%d]=%d", j, parent[j])
		}
	}
	if parent[7] != -1 {
		t.Fatal("root should have parent -1")
	}
}

func TestEtreeArrow(t *testing.T) {
	a := arrow(6)
	parent := Build(a)
	for j := 0; j < 5; j++ {
		if parent[j] != 5 {
			t.Fatalf("parent[%d]=%d want 5", j, parent[j])
		}
	}
}

func TestColCountsAgainstDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(25)
		b := sparse.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.Add(i, i, 10)
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.2 {
					b.Add(i, j, -1)
				}
			}
		}
		a := b.Build()
		parent := Build(a)
		cc := ColCounts(a, parent)
		want := denseSymbolic(a)
		for j := 0; j < n; j++ {
			if cc[j] != want[j] {
				t.Fatalf("trial %d: cc[%d]=%d want %d", trial, j, cc[j], want[j])
			}
		}
	}
}

func TestColCountsLaplacian(t *testing.T) {
	a := laplacian2D(5, 5)
	parent := Build(a)
	cc := ColCounts(a, parent)
	want := denseSymbolic(a)
	for j := range cc {
		if cc[j] != want[j] {
			t.Fatalf("cc[%d]=%d want %d", j, cc[j], want[j])
		}
	}
}

func TestNNZLandOPC(t *testing.T) {
	a := tridiag(10)
	parent := Build(a)
	cc := ColCounts(a, parent)
	if got := NNZL(cc); got != 9 {
		t.Fatalf("NNZL=%d want 9", got)
	}
	// Each of the 9 non-root columns: m=1 → 1*(1+3)+1 = 5; root m=0 → 1.
	if got := OPC(cc); got != 9*5+1 {
		t.Fatalf("OPC=%g want 46", got)
	}
}

func TestPostorderIsPermutationAndTopological(t *testing.T) {
	a := laplacian2D(6, 6)
	parent := Build(a)
	post := Postorder(parent)
	n := len(parent)
	seen := make([]bool, n)
	rank := make([]int, n)
	for r, v := range post {
		if v < 0 || v >= n || seen[v] {
			t.Fatal("postorder not a permutation")
		}
		seen[v] = true
		rank[v] = r
	}
	for v := 0; v < n; v++ {
		if p := parent[v]; p != -1 && rank[p] < rank[v] {
			t.Fatalf("parent %d ranked before child %d", p, v)
		}
	}
}

func TestPostorderContiguousSubtrees(t *testing.T) {
	// In a postorder, each subtree occupies a contiguous rank interval.
	a := laplacian2D(5, 4)
	parent := Build(a)
	post := Postorder(parent)
	n := len(parent)
	rank := make([]int, n)
	for r, v := range post {
		rank[v] = r
	}
	// min rank of subtree(v) must equal rank[v] - size(subtree)+1.
	size := make([]int, n)
	minRank := make([]int, n)
	for v := range size {
		size[v] = 1
		minRank[v] = rank[v]
	}
	for _, v := range post { // children before parents
		if p := parent[v]; p != -1 {
			size[p] += size[v]
			if minRank[v] < minRank[p] {
				minRank[p] = minRank[v]
			}
		}
	}
	for v := 0; v < n; v++ {
		if minRank[v] != rank[v]-size[v]+1 {
			t.Fatalf("subtree of %d not contiguous", v)
		}
	}
}

func TestApplyPostorderPreservesStructure(t *testing.T) {
	a := laplacian2D(6, 5)
	parent := Build(a)
	cc := ColCounts(a, parent)
	post := Postorder(parent)
	newParent, newCC := ApplyPostorder(parent, cc, post)
	// The permuted matrix must have exactly newParent as etree and newCC as
	// column counts (postorder is a fill-equivalent reordering).
	p := a.Permute(post)
	gotParent := Build(p)
	gotCC := ColCounts(p, gotParent)
	for j := range gotParent {
		if gotParent[j] != newParent[j] {
			t.Fatalf("parent[%d]=%d want %d", j, gotParent[j], newParent[j])
		}
		if gotCC[j] != newCC[j] {
			t.Fatalf("cc[%d]=%d want %d", j, gotCC[j], newCC[j])
		}
	}
}

func TestFundamentalSupernodesTridiag(t *testing.T) {
	// Tridiagonal: Struct(L_j) = {j, j+1}, which is NOT Struct(L_{j+1}) ∪
	// {j+1}, so every column is its own fundamental supernode except the last
	// two, which do share structure ({n-2,n-1} and {n-1}).
	a := tridiag(6)
	parent := Build(a)
	cc := ColCounts(a, parent)
	s := Fundamental(parent, cc)
	if err := s.Validate(6); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 5 {
		t.Fatalf("want 5 supernodes, got %v", s.Ranges)
	}
	last := s.Ranges[4]
	if last[0] != 4 || last[1] != 6 {
		t.Fatalf("last supernode %v want [4,6)", last)
	}
}

func TestFundamentalSupernodesArrow(t *testing.T) {
	a := arrow(5)
	parent := Build(a)
	cc := ColCounts(a, parent)
	s := Fundamental(parent, cc)
	if err := s.Validate(5); err != nil {
		t.Fatal(err)
	}
	// Columns 0..3 each have structure {j, 4}: parent[j]=4 ≠ j+1 except j=3.
	// Column 3's cc=2, column 4's cc=1 = cc[3]-1 and parent[3]=4 → {3,4}
	// merge; 0,1,2 stay singletons.
	if s.Count() != 4 {
		t.Fatalf("want 4 supernodes, got %v", s.Ranges)
	}
	last := s.Ranges[len(s.Ranges)-1]
	if last[0] != 3 || last[1] != 5 {
		t.Fatalf("last supernode %v want [3,5)", last)
	}
}

func TestSupernodeParents(t *testing.T) {
	a := arrow(5)
	parent := Build(a)
	cc := ColCounts(a, parent)
	s := Fundamental(parent, cc)
	for k := 0; k < s.Count()-1; k++ {
		if s.Parent[k] != s.Count()-1 {
			t.Fatalf("supernode %d parent %d, want root %d", k, s.Parent[k], s.Count()-1)
		}
	}
	if s.Parent[s.Count()-1] != -1 {
		t.Fatal("root supernode should have parent -1")
	}
}

func TestAmalgamateMergesSingletons(t *testing.T) {
	a := arrow(8)
	parent := Build(a)
	cc := ColCounts(a, parent)
	s := Fundamental(parent, cc)
	am := Amalgamate(s, cc, AmalgamateOptions{})
	if err := am.Validate(8); err != nil {
		t.Fatal(err)
	}
	// The arrow's singletons are chain-adjacent to the dense last supernode
	// and each merge keeps the zero share under the narrow budget, so
	// everything collapses into one supernode.
	if am.Count() != 1 {
		t.Fatalf("want full collapse of %d supernodes, got %v", s.Count(), am.Ranges)
	}
	if got := Amalgamate(s, cc, AmalgamateOptions{Disable: true}); got != s {
		t.Fatal("Disable changed the partition")
	}
}

func TestAmalgamateConservative(t *testing.T) {
	// Every supernode the rule leaves wider than relaxAlways fits its
	// width's zero budget, measured from the scalar column counts.
	for _, a := range []*sparse.SymMatrix{laplacian2D(8, 8), laplacian2D(40, 40), arrow(30)} {
		parent := Build(a)
		p := a.Permute(Postorder(parent))
		parent = Build(p)
		cc := ColCounts(p, parent)
		s := Fundamental(parent, cc)
		am := Amalgamate(s, cc, AmalgamateOptions{})
		if err := am.Validate(p.N); err != nil {
			t.Fatal(err)
		}
		if am.Count() > s.Count() {
			t.Fatal("amalgamation increased supernode count")
		}
		for _, r := range am.Ranges {
			w := r[1] - r[0]
			var nnz int64
			for j := r[0]; j < r[1]; j++ {
				nnz += int64(cc[j])
			}
			st := storedEntries(w, cc[r[1]-1]-1)
			if !withinZeroBudget(w, st-nnz, st) {
				t.Fatalf("n=%d: supernode %v stores %d entries for %d nonzeros, over its budget", p.N, r, st, nnz)
			}
		}
	}
}

func TestColCountsMonotoneUnderPostorder(t *testing.T) {
	// NNZL and OPC are invariant under postorder reordering.
	a := laplacian2D(7, 7)
	parent := Build(a)
	cc := ColCounts(a, parent)
	post := Postorder(parent)
	p := a.Permute(post)
	cc2 := ColCounts(p, Build(p))
	if NNZL(cc) != NNZL(cc2) {
		t.Fatalf("NNZL changed under postorder: %d vs %d", NNZL(cc), NNZL(cc2))
	}
	if OPC(cc) != OPC(cc2) {
		t.Fatalf("OPC changed under postorder")
	}
}
