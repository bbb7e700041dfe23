package sparse

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// ZSymMatrix is a COMPLEX SYMMETRIC (A = Aᵀ, generally A ≠ Aᴴ) sparse
// matrix in the same lower-CSC layout as SymMatrix. This is the paper's
// actual target class: "we use LDLᵀ factorization in order to solve sparse
// systems with complex coefficients".
type ZSymMatrix struct {
	N      int
	ColPtr []int
	RowIdx []int
	Val    []complex128
}

// NNZ returns the number of stored entries.
func (a *ZSymMatrix) NNZ() int { return len(a.RowIdx) }

// CSC returns the compressed-column arrays of the lower triangle, shared
// with a.
func (a *ZSymMatrix) CSC() (colPtr, rowIdx []int, val []complex128) { return a.ColPtr, a.RowIdx, a.Val }

// Validate checks the structural invariants (same rules as SymMatrix).
func (a *ZSymMatrix) Validate() error {
	if len(a.ColPtr) != a.N+1 || a.ColPtr[0] != 0 || a.ColPtr[a.N] != len(a.RowIdx) || len(a.RowIdx) != len(a.Val) {
		return fmt.Errorf("sparse: zsym inconsistent arrays")
	}
	for j := 0; j < a.N; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		if lo >= hi || a.RowIdx[lo] != j {
			return fmt.Errorf("sparse: zsym column %d missing diagonal", j)
		}
		for p := lo; p < hi; p++ {
			if a.RowIdx[p] < j || a.RowIdx[p] >= a.N || (p > lo && a.RowIdx[p-1] >= a.RowIdx[p]) {
				return fmt.Errorf("sparse: zsym column %d malformed", j)
			}
		}
	}
	return nil
}

// Pattern returns a real SPD-safe matrix with the same sparsity: 1 off the
// diagonal magnitudeless, strong diagonal. The ordering and symbolic phases
// run on this pattern; the complex numerics follow the resulting structure.
func (a *ZSymMatrix) Pattern() *SymMatrix {
	p := &SymMatrix{
		N:      a.N,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowIdx: append([]int(nil), a.RowIdx...),
		Val:    make([]float64, len(a.Val)),
	}
	deg := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for q := a.ColPtr[j] + 1; q < a.ColPtr[j+1]; q++ {
			deg[a.RowIdx[q]]++
			deg[j]++
		}
	}
	for j := 0; j < a.N; j++ {
		for q := a.ColPtr[j]; q < a.ColPtr[j+1]; q++ {
			if a.RowIdx[q] == j {
				p.Val[q] = deg[j] + 1
			} else {
				p.Val[q] = -1
			}
		}
	}
	return p
}

// At returns A[i][j].
func (a *ZSymMatrix) At(i, j int) complex128 {
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

// MatVec computes y = A·x with symmetric expansion (no conjugation).
func (a *ZSymMatrix) MatVec(x, y []complex128) {
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

// Permute returns P·A·Pᵀ with perm[new] = old.
func (a *ZSymMatrix) Permute(perm []int) *ZSymMatrix {
	colPtr, rowIdx, val := permute(a.N, a.ColPtr, a.RowIdx, a.Val, perm)
	return &ZSymMatrix{N: a.N, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// ZBuilder assembles a ZSymMatrix from triplets.
type ZBuilder struct {
	n  int
	ts []triplet[complex128]
}

// NewZBuilder creates a builder for an n×n complex symmetric matrix.
func NewZBuilder(n int) *ZBuilder { return &ZBuilder{n: n} }

// Add accumulates v into A[i][j] (= A[j][i]).
func (b *ZBuilder) Add(i, j int, v complex128) {
	if i < 0 || j < 0 || i >= b.n || j >= b.n {
		panic(fmt.Sprintf("sparse: ztriplet (%d,%d) out of range", i, j))
	}
	if i < j {
		i, j = j, i
	}
	b.ts = append(b.ts, triplet[complex128]{i, j, v})
}

// Build finalizes the matrix (explicit zero diagonals inserted).
func (b *ZBuilder) Build() *ZSymMatrix {
	colPtr, rowIdx, val := assemble(b.n, b.ts)
	return &ZSymMatrix{N: b.n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// ZResidual returns ‖Ax−b‖∞ / (‖b‖∞ + ‖x‖∞·maxcolsum) for a complex system.
func ZResidual(a *ZSymMatrix, x, b []complex128) float64 {
	r := make([]complex128, a.N)
	a.MatVec(x, r)
	num, xmax, bmax := 0.0, 0.0, 0.0
	for i := range r {
		if d := cmplx.Abs(r[i] - b[i]); d > num {
			num = d
		}
		if v := cmplx.Abs(x[i]); v > xmax {
			xmax = v
		}
		if v := cmplx.Abs(b[i]); v > bmax {
			bmax = v
		}
	}
	colsum := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			v := cmplx.Abs(a.Val[p])
			colsum[j] += v
			if a.RowIdx[p] != j {
				colsum[a.RowIdx[p]] += v
			}
		}
	}
	mx := 0.0
	for _, s := range colsum {
		mx = math.Max(mx, s)
	}
	den := mx*xmax + bmax
	if den == 0 {
		return num
	}
	return num / den
}
