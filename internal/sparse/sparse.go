// Package sparse provides symmetric sparse matrices in compressed sparse
// column (CSC) form, triplet assembly, permutation, basic linear-algebra
// operations, and Matrix Market and Harwell-Boeing (RSA) file I/O.
//
// One matrix type, Sym[T], serves both scalar types: SymMatrix (float64)
// and ZSymMatrix (complex128, complex symmetric) are its two
// instantiations, as Builder and ZBuilder are of SymBuilder[T]. Symmetric
// matrices store the LOWER triangular part only, including the diagonal,
// with row indices sorted within each column. This matches the storage
// convention of the RSA format used by the paper's test problems.
package sparse

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sort"
)

// Scalar is the value type of a matrix: real, or complex symmetric
// (A = Aᵀ, generally A ≠ Aᴴ) — the paper's target class, "sparse systems
// with complex coefficients".
type Scalar interface{ float64 | complex128 }

// Sym is a symmetric sparse matrix of order N holding its lower triangle
// (diagonal included) in CSC format: column j's entries are
// RowIdx[ColPtr[j]:ColPtr[j+1]] / Val[ColPtr[j]:ColPtr[j+1]], with row
// indices strictly increasing and RowIdx[ColPtr[j]] == j (an explicit
// diagonal entry is required).
type Sym[T Scalar] struct {
	N      int
	ColPtr []int
	RowIdx []int
	Val    []T
}

// SymMatrix is the real symmetric matrix.
type SymMatrix = Sym[float64]

// ZSymMatrix is the complex symmetric matrix (no conjugation anywhere).
type ZSymMatrix = Sym[complex128]

// abs returns |v|.
func abs[T Scalar](v T) float64 {
	if c, ok := any(v).(complex128); ok {
		return cmplx.Abs(c)
	}
	return math.Abs(any(v).(float64))
}

// isComplex reports whether T is complex128.
func isComplex[T Scalar]() bool {
	_, ok := any(*new(T)).(complex128)
	return ok
}

// NNZ returns the number of stored entries (lower triangle incl. diagonal).
func (a *Sym[T]) NNZ() int { return len(a.RowIdx) }

// NNZOffDiag returns the number of stored strictly-lower entries, i.e. the
// NNZ_A metric of the paper (off-diagonal terms of the triangular part).
func (a *Sym[T]) NNZOffDiag() int { return len(a.RowIdx) - a.N }

// Validate checks the structural invariants.
func (a *Sym[T]) Validate() error {
	if a.N < 0 {
		return fmt.Errorf("sparse: negative order %d", a.N)
	}
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
func (a *Sym[T]) PatternFingerprint() string {
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

// SamePattern reports whether a and b have exactly the same sparsity
// pattern, whatever their value types.
func SamePattern[T, U Scalar](a *Sym[T], b *Sym[U]) bool {
	return a.N == b.N && slices.Equal(a.ColPtr, b.ColPtr) && slices.Equal(a.RowIdx, b.RowIdx)
}

// Pattern returns a real matrix with a's sparsity and the values of
// spdValues. The ordering and symbolic phases run on it; the numerics of
// either scalar type follow the resulting structure.
func (a *Sym[T]) Pattern() *SymMatrix {
	p := &SymMatrix{N: a.N, ColPtr: slices.Clone(a.ColPtr), RowIdx: slices.Clone(a.RowIdx), Val: make([]float64, len(a.RowIdx))}
	spdValues(p)
	return p
}

// spdValues overwrites the values of a with a diagonally dominant SPD
// matrix on its pattern: −1 off the diagonal, degree + 1 on it.
func spdValues(a *SymMatrix) {
	deg := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j] + 1; p < a.ColPtr[j+1]; p++ {
			deg[a.RowIdx[p]]++
			deg[j]++
		}
	}
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if a.RowIdx[p] == j {
				a.Val[p] = deg[j] + 1
			} else {
				a.Val[p] = -1
			}
		}
	}
}

// Diag returns a copy of the diagonal.
func (a *Sym[T]) Diag() []T {
	d := make([]T, a.N)
	for j := 0; j < a.N; j++ {
		d[j] = a.Val[a.ColPtr[j]]
	}
	return d
}

// At returns A[i][j] (either triangle).
func (a *Sym[T]) At(i, j int) T {
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

// MatVec computes y = A x, expanding symmetry (no conjugation).
func (a *Sym[T]) MatVec(x, y []T) {
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
func (a *Sym[T]) Norm1() float64 {
	sums := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			v := abs(a.Val[p])
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
func (a *Sym[T]) NormMax() float64 {
	mx := 0.0
	for _, v := range a.Val {
		if av := abs(v); av > mx {
			mx = av
		}
	}
	return mx
}

// Dense expands the matrix to a dense row-major n×n array (testing helper).
func (a *Sym[T]) Dense() []T {
	d := make([]T, a.N*a.N)
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
func (a *Sym[T]) AdjacencyCSR() (ptr, adj []int) {
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
func (a *Sym[T]) Permute(perm []int) *Sym[T] {
	colPtr, rowIdx, val := permute(a.N, a.ColPtr, a.RowIdx, a.Val, perm)
	return &Sym[T]{N: a.N, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// SymBuilder assembles a symmetric matrix from (i,j,v) triplets. Duplicate
// entries are summed in the order they were added; entries may be given in
// either triangle.
type SymBuilder[T Scalar] struct {
	n  int
	ts []triplet[T]
}

// Builder assembles a SymMatrix.
type Builder = SymBuilder[float64]

// ZBuilder assembles a ZSymMatrix.
type ZBuilder = SymBuilder[complex128]

// NewBuilder creates a Builder for an n×n symmetric matrix.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// NewZBuilder creates a builder for an n×n complex symmetric matrix.
func NewZBuilder(n int) *ZBuilder { return &ZBuilder{n: n} }

// Add accumulates v into A[i][j] (and by symmetry A[j][i]).
func (b *SymBuilder[T]) Add(i, j int, v T) {
	if i < 0 || j < 0 || i >= b.n || j >= b.n {
		panic(fmt.Sprintf("sparse: triplet (%d,%d) out of range n=%d", i, j, b.n))
	}
	if i < j {
		i, j = j, i
	}
	b.ts = append(b.ts, triplet[T]{i, j, v})
}

// Build finalizes the matrix, inserting explicit zero diagonal entries where
// missing so the Validate invariant holds.
func (b *SymBuilder[T]) Build() *Sym[T] {
	colPtr, rowIdx, val := assemble(b.n, b.ts)
	return &Sym[T]{N: b.n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// Residual returns ‖Ax − b‖∞ / (‖A‖₁‖x‖∞ + ‖b‖∞), the standard scaled
// backward-error style residual used by the solver tests. When x or b is not
// of the matrix order it returns +Inf, so every residual > tol check fails.
func Residual[T Scalar](a *Sym[T], x, b []T) float64 {
	if len(x) != a.N || len(b) != a.N {
		return math.Inf(1)
	}
	r := make([]T, a.N)
	a.MatVec(x, r)
	num, xmax, bmax := 0.0, 0.0, 0.0
	for i := range r {
		if d := abs(r[i] - b[i]); d > num {
			num = d
		}
		if v := abs(x[i]); v > xmax {
			xmax = v
		}
		if v := abs(b[i]); v > bmax {
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
