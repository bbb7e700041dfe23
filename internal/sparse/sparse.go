// Package sparse provides symmetric sparse matrices in compressed sparse
// column (CSC) form, triplet assembly, permutation, basic linear-algebra
// operations, and Harwell-Boeing (RSA) file I/O.
//
// Symmetric matrices store the LOWER triangular part only, including the
// diagonal, with row indices sorted within each column. This matches the
// storage convention of the RSA format used by the paper's test problems.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// SymMatrix is a symmetric sparse matrix of order N holding its lower
// triangle (diagonal included) in CSC format: column j's entries are
// RowIdx[ColPtr[j]:ColPtr[j+1]] / Val[ColPtr[j]:ColPtr[j+1]], with row
// indices strictly increasing and RowIdx[ColPtr[j]] == j (an explicit
// diagonal entry is required).
type SymMatrix struct {
	N      int
	ColPtr []int
	RowIdx []int
	Val    []float64
}

// NNZ returns the number of stored entries (lower triangle incl. diagonal).
func (a *SymMatrix) NNZ() int { return len(a.RowIdx) }

// CSC returns the compressed-column arrays of the lower triangle, shared
// with a.
func (a *SymMatrix) CSC() (colPtr, rowIdx []int, val []float64) { return a.ColPtr, a.RowIdx, a.Val }

// NNZOffDiag returns the number of stored strictly-lower entries, i.e. the
// NNZ_A metric of the paper (off-diagonal terms of the triangular part).
func (a *SymMatrix) NNZOffDiag() int { return len(a.RowIdx) - a.N }

// Validate checks the structural invariants.
func (a *SymMatrix) Validate() error {
	if len(a.ColPtr) != a.N+1 {
		return fmt.Errorf("sparse: colptr length %d != n+1", len(a.ColPtr))
	}
	if a.ColPtr[0] != 0 || a.ColPtr[a.N] != len(a.RowIdx) || len(a.RowIdx) != len(a.Val) {
		return fmt.Errorf("sparse: inconsistent array lengths")
	}
	for j := 0; j < a.N; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		if lo < 0 || hi > len(a.RowIdx) {
			return fmt.Errorf("sparse: column %d pointers [%d,%d) out of range", j, lo, hi)
		}
		if lo >= hi {
			return fmt.Errorf("sparse: column %d empty (diagonal required)", j)
		}
		if a.RowIdx[lo] != j {
			return fmt.Errorf("sparse: column %d missing diagonal entry", j)
		}
		for p := lo; p < hi; p++ {
			if a.RowIdx[p] < j || a.RowIdx[p] >= a.N {
				return fmt.Errorf("sparse: entry (%d,%d) outside lower triangle", a.RowIdx[p], j)
			}
			if p > lo && a.RowIdx[p-1] >= a.RowIdx[p] {
				return fmt.Errorf("sparse: column %d rows not strictly sorted", j)
			}
		}
	}
	return nil
}

// PatternFingerprint returns a 128-bit hex fingerprint of the sparsity
// pattern: the order n plus the compressed column pointers and row indices
// (values are ignored). Two matrices with the same pattern always produce
// the same fingerprint; distinct patterns collide with probability ~2⁻¹²⁸
// (two independent FNV-1a streams — strong enough to key an analysis cache,
// not cryptographic). The fingerprint is stable across runs and platforms.
func (a *SymMatrix) PatternFingerprint() string {
	const prime = 0x100000001b3
	h1 := uint64(0xcbf29ce484222325) // FNV-1a offset basis
	h2 := uint64(0x6c62272e07bb0142) // second independent stream
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			b := (v >> s) & 0xff
			h1 = (h1 ^ b) * prime
			h2 = (h2 ^ (b ^ 0xa5)) * prime
		}
	}
	mix(uint64(a.N))
	for _, p := range a.ColPtr {
		mix(uint64(p))
	}
	for _, r := range a.RowIdx {
		mix(uint64(r))
	}
	return fmt.Sprintf("%016x%016x", h1, h2)
}

// SamePattern reports whether b has exactly the sparsity pattern of a.
func (a *SymMatrix) SamePattern(b *SymMatrix) bool {
	if a.N != b.N || len(a.RowIdx) != len(b.RowIdx) {
		return false
	}
	for j, p := range a.ColPtr {
		if b.ColPtr[j] != p {
			return false
		}
	}
	for i, r := range a.RowIdx {
		if b.RowIdx[i] != r {
			return false
		}
	}
	return true
}

// Diag returns a copy of the diagonal.
func (a *SymMatrix) Diag() []float64 {
	d := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		d[j] = a.Val[a.ColPtr[j]]
	}
	return d
}

// At returns A[i][j] (either triangle).
func (a *SymMatrix) At(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	col := a.RowIdx[a.ColPtr[j]:a.ColPtr[j+1]]
	p := sort.SearchInts(col, i)
	if p < len(col) && col[p] == i {
		return a.Val[a.ColPtr[j]+p]
	}
	return 0
}

// MatVec computes y = A x, expanding symmetry.
func (a *SymMatrix) MatVec(x, y []float64) {
	if len(x) != a.N || len(y) != a.N {
		panic("sparse: dimension mismatch in MatVec")
	}
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < a.N; j++ {
		xj := x[j]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			v := a.Val[p]
			y[i] += v * xj
			if i != j {
				y[j] += v * x[i]
			}
		}
	}
}

// Norm1 returns the 1-norm (max column absolute sum) of the full matrix.
func (a *SymMatrix) Norm1() float64 {
	sums := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			v := math.Abs(a.Val[p])
			sums[j] += v
			if i != j {
				sums[i] += v
			}
		}
	}
	mx := 0.0
	for _, s := range sums {
		if s > mx {
			mx = s
		}
	}
	return mx
}

// NormMax returns the max-norm ‖A‖_max = max |a_ij| over the stored entries.
// It is invariant under symmetric permutation, which makes it the natural
// scale for the static-pivoting threshold τ = ε_piv·‖A‖_max: the same τ is
// obtained whether computed from the original or the permuted matrix.
func (a *SymMatrix) NormMax() float64 {
	mx := 0.0
	for _, v := range a.Val {
		if av := math.Abs(v); av > mx {
			mx = av
		}
	}
	return mx
}

// Dense expands the matrix to a dense row-major n×n array (testing helper).
func (a *SymMatrix) Dense() []float64 {
	d := make([]float64, a.N*a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			d[i*a.N+j] = a.Val[p]
			d[j*a.N+i] = a.Val[p]
		}
	}
	return d
}

// AdjacencyCSR returns the adjacency structure of A (pattern of the full
// matrix minus the diagonal) as CSR arrays suitable for graph.FromCSR.
func (a *SymMatrix) AdjacencyCSR() (ptr, adj []int) {
	ptr = make([]int, a.N+1)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j] + 1; p < a.ColPtr[j+1]; p++ {
			ptr[a.RowIdx[p]+1]++
			ptr[j+1]++
		}
	}
	for v := 0; v < a.N; v++ {
		ptr[v+1] += ptr[v]
	}
	// ptr[v] serves as row v's fill cursor and ends at the start of row
	// v+1; shifting it back restores the starts.
	adj = make([]int, ptr[a.N])
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j] + 1; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			adj[ptr[i]] = j
			adj[ptr[j]] = i
			ptr[i]++
			ptr[j]++
		}
	}
	copy(ptr[1:], ptr[:a.N])
	ptr[0] = 0
	// Row v receives the columns j < v while the sweep is left of v, then
	// column v's own rows, ascending: every row comes out sorted.
	return ptr, adj
}

// Permute returns P A Pᵀ where perm is the new ordering: perm[new] = old
// (i.e. row/column `old` of A becomes row/column `new` of the result).
func (a *SymMatrix) Permute(perm []int) *SymMatrix {
	colPtr, rowIdx, val := permute(a.N, a.ColPtr, a.RowIdx, a.Val, perm)
	return &SymMatrix{N: a.N, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// Builder assembles a symmetric matrix from (i,j,v) triplets. Duplicate
// entries are summed in the order they were added; entries may be given in
// either triangle.
type Builder struct {
	n  int
	ts []triplet[float64]
}

// NewBuilder creates a Builder for an n×n symmetric matrix.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// Add accumulates v into A[i][j] (and by symmetry A[j][i]).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || j < 0 || i >= b.n || j >= b.n {
		panic(fmt.Sprintf("sparse: triplet (%d,%d) out of range n=%d", i, j, b.n))
	}
	if i < j {
		i, j = j, i
	}
	b.ts = append(b.ts, triplet[float64]{i, j, v})
}

// Build finalizes the matrix, inserting explicit zero diagonal entries where
// missing so the Validate invariant holds.
func (b *Builder) Build() *SymMatrix {
	colPtr, rowIdx, val := assemble(b.n, b.ts)
	return &SymMatrix{N: b.n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// Residual returns ‖Ax − b‖∞ / (‖A‖₁‖x‖∞ + ‖b‖∞), the standard scaled
// backward-error style residual used by the solver tests.
func Residual(a *SymMatrix, x, b []float64) float64 {
	r := make([]float64, a.N)
	a.MatVec(x, r)
	num, xmax, bmax := 0.0, 0.0, 0.0
	for i := range r {
		if d := math.Abs(r[i] - b[i]); d > num {
			num = d
		}
		if v := math.Abs(x[i]); v > xmax {
			xmax = v
		}
		if v := math.Abs(b[i]); v > bmax {
			bmax = v
		}
	}
	den := a.Norm1()*xmax + bmax
	if den == 0 {
		return num
	}
	return num / den
}

// ElementBuilder assembles a symmetric matrix element by element, the way
// finite-element stiffness matrices are built: each element contributes a
// small dense symmetric matrix scattered onto its global degrees of freedom.
type ElementBuilder struct {
	b *Builder
}

// NewElementBuilder creates an ElementBuilder for an n×n system.
func NewElementBuilder(n int) *ElementBuilder {
	return &ElementBuilder{b: NewBuilder(n)}
}

// AddElement scatters the dense symmetric element matrix ke onto the global
// DOFs: ke must have len(dofs)² entries (row-major and column-major coincide
// by symmetry); only the lower triangle of ke is read.
func (eb *ElementBuilder) AddElement(dofs []int, ke []float64) {
	m := len(dofs)
	if len(ke) != m*m {
		panic(fmt.Sprintf("sparse: element matrix has %d entries for %d dofs", len(ke), m))
	}
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			if v := ke[i*m+j]; v != 0 {
				eb.b.Add(dofs[i], dofs[j], v)
			}
		}
	}
}

// Build finalizes the assembled matrix.
func (eb *ElementBuilder) Build() *SymMatrix { return eb.b.Build() }
