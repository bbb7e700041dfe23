// Package blas provides the dense linear-algebra kernels the solver is built
// on: GEMM-like block updates, triangular solves, and dense LLᵀ / LDLᵀ
// factorizations, all in pure Go on column-major storage with explicit
// leading dimensions (LAPACK convention).
//
// These stand in for the IBM ESSL BLAS3 routines of the paper. The paper's
// observation that the LLᵀ kernel outperforms the LDLᵀ kernel (1.07 s vs
// 1.27 s on a 1024² dense matrix on one Power2SC node) is reproduced here:
// the LDLᵀ path performs the extra diagonal-scaling work.
//
// On amd64 CPUs with AVX2 the hot solve and update kernels (GemvN, GemvT,
// TrsvLowerUnit, TrsmRightLTransUnit, GemmNDT, SyrkLowerNDT and the packed
// and panel forms built on them) run in assembly that gives exactly the
// bits of the scalar Go code kept beside it; the purego build tag forces
// the scalar code everywhere. KernelPath reports which one runs.
package blas

import (
	"math"
)

// KernelPath names the dense kernels this process runs: "avx2", or
// "scalar" on a CPU without AVX2, off amd64, or under the purego tag.
func KernelPath() string {
	if useAVX2 {
		return "avx2"
	}
	return "scalar"
}

// At returns the (i,j) element of the column-major matrix a with leading
// dimension ld. Intended for tests and debugging.
func At(a []float64, ld, i, j int) float64 { return a[i+j*ld] }

// GemmNT computes C -= A·Bᵀ, with A m×k (lda), B n×k (ldb), C m×n (ldc),
// all column-major. This is the solver's main update kernel shape.
func GemmNT(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	for j := 0; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		for l := 0; l < k; l++ {
			blj := b[j+l*ldb]
			if blj == 0 {
				continue
			}
			al := a[l*lda : l*lda+m]
			axpy(-blj, al, cj)
		}
	}
}

// GemmNDT computes C -= A·diag(d)·Bᵀ, with A m×k (lda), d length k,
// B n×k (ldb), C m×n (ldc). This is the LDLᵀ fan-in contribution kernel
// (the extra diag(d) pass is what makes LDLᵀ slower than LLᵀ, as in the
// paper's ESSL comparison). C is updated element by element as
// c_ij = (a_il·(−s)) + c_ij for l ascending, s = d_l·b_jl, skipping every
// (j, l) with s == 0.
func GemmNDT(m, n, k int, a []float64, lda int, d []float64, b []float64, ldb int, c []float64, ldc int) {
	if useAVX2 {
		gemmNDTAVX2(m, n, k, a, lda, d, b, ldb, c, ldc)
		return
	}
	gemmNDTGo(m, n, k, a, lda, d, b, ldb, c, ldc)
}

// GemmNDTAuto is GemmNDT, which blocks for the cache itself; the name is
// kept for existing callers.
func GemmNDTAuto(m, n, k int, a []float64, lda int, d []float64, b []float64, ldb int, c []float64, ldc int) {
	GemmNDT(m, n, k, a, lda, d, b, ldb, c, ldc)
}

// gemmNDTGo is the scalar GemmNDT, the reference the AVX2 kernel matches.
func gemmNDTGo(m, n, k int, a []float64, lda int, d []float64, b []float64, ldb int, c []float64, ldc int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	for j := 0; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		for l := 0; l < k; l++ {
			s := d[l] * b[j+l*ldb]
			if s == 0 {
				continue
			}
			al := a[l*lda : l*lda+m]
			axpy(-s, al, cj)
		}
	}
}

// axpy computes y += alpha*x over equal-length slices, unrolled by 4.
func axpy(alpha float64, x, y []float64) {
	n := len(y)
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// SyrkLowerNT computes the lower triangle of C -= A·Aᵀ, with A m×k (lda) and
// C m×m (ldc); only C's lower triangle (including diagonal) is referenced.
func SyrkLowerNT(m, k int, a []float64, lda int, c []float64, ldc int) {
	for j := 0; j < m; j++ {
		cj := c[j*ldc : j*ldc+m]
		for l := 0; l < k; l++ {
			ajl := a[j+l*lda]
			if ajl == 0 {
				continue
			}
			al := a[l*lda : l*lda+m]
			axpy(-ajl, al[j:], cj[j:])
		}
	}
}

// SyrkLowerNDT computes the lower triangle of C -= A·diag(d)·Aᵀ, with the
// per-element operation order of GemmNDT.
func SyrkLowerNDT(m, k int, a []float64, lda int, d []float64, c []float64, ldc int) {
	if useAVX2 {
		syrkLowerNDTAVX2(m, k, a, lda, d, c, ldc)
		return
	}
	syrkLowerNDTGo(m, k, a, lda, d, c, ldc)
}

// syrkLowerNDTGo is the scalar SyrkLowerNDT.
func syrkLowerNDTGo(m, k int, a []float64, lda int, d []float64, c []float64, ldc int) {
	for j := 0; j < m; j++ {
		cj := c[j*ldc : j*ldc+m]
		for l := 0; l < k; l++ {
			s := d[l] * a[j+l*lda]
			if s == 0 {
				continue
			}
			al := a[l*lda : l*lda+m]
			axpy(-s, al[j:], cj[j:])
		}
	}
}

// Cholesky factors the n×n SPD matrix A (lower triangle, column-major,
// leading dimension ld) in place into L·Lᵀ: on return the lower triangle
// holds L. It returns an error if a non-positive pivot arises.
func Cholesky(n int, a []float64, ld int) error {
	for k := 0; k < n; k++ {
		akk := a[k+k*ld]
		if akk <= 0 || math.IsNaN(akk) {
			return &PivotError{Kernel: "cholesky", Index: k, Value: akk}
		}
		p := math.Sqrt(akk)
		a[k+k*ld] = p
		col := a[k*ld : k*ld+n]
		inv := 1 / p
		for i := k + 1; i < n; i++ {
			col[i] *= inv
		}
		for j := k + 1; j < n; j++ {
			ajk := col[j]
			if ajk == 0 {
				continue
			}
			axpy(-ajk, col[j:n], a[j*ld+j:j*ld+n])
		}
	}
	return nil
}

// LDLT factors the n×n symmetric matrix A (lower triangle, column-major,
// ld) in place into L·D·Lᵀ without pivoting: on return the strictly lower
// triangle holds the unit-lower L (unit diagonal implicit) and the diagonal
// holds D. It returns an error on a zero pivot.
func LDLT(n int, a []float64, ld int) error {
	_, err := LDLTStatic(n, a, ld, 0)
	return err
}

// Perturb records one static-pivot substitution inside a diagonal kernel:
// the block-local column Index whose pivot Original fell below the threshold
// and the value Used (sign(Original)·τ) written in its place.
type Perturb struct {
	Index    int
	Original float64
	Used     float64
}

// LDLTStatic is LDLT with static pivoting: a pivot with |d_k| < tau is
// replaced by sign(d_k)·tau (an exact zero gets +tau) and the substitution is
// recorded, so the factorization always completes on finite input. With
// tau <= 0 the arithmetic is bit-identical to LDLT, including the zero-pivot
// error. A NaN pivot is never perturbable and always errors.
func LDLTStatic(n int, a []float64, ld int, tau float64) ([]Perturb, error) {
	var perts []Perturb
	for k := 0; k < n; k++ {
		dk := a[k+k*ld]
		if math.IsNaN(dk) {
			return nil, &PivotError{Kernel: "ldlt", Index: k, Value: dk}
		}
		if tau > 0 && math.Abs(dk) < tau {
			used := tau
			if math.Signbit(dk) {
				used = -tau
			}
			a[k+k*ld] = used
			perts = append(perts, Perturb{Index: k, Original: dk, Used: used})
			dk = used
		} else if dk == 0 {
			return nil, &PivotError{Kernel: "ldlt", Index: k, Value: dk}
		}
		col := a[k*ld : k*ld+n]
		inv := 1 / dk
		// Scale column k: l_ik = a_ik / d_k, keeping w_ik = a_ik for the
		// rank-1 update (A_jj... -= w_j * l_i pattern).
		for j := k + 1; j < n; j++ {
			wjk := col[j]
			if wjk == 0 {
				continue
			}
			ljk := wjk * inv
			axpy(-ljk, col[j:n], a[j*ld+j:j*ld+n])
		}
		for i := k + 1; i < n; i++ {
			col[i] *= inv
		}
	}
	return perts, nil
}

// TrsmRightLTransUnit solves X · Lᵀ = B in place for X, where L is n×n
// unit-lower-triangular (the strictly lower triangle of l is used; unit
// diagonal assumed) and B is m×n column-major (ldb). On return b holds X.
// This computes the off-diagonal blocks of an LDLᵀ factorization:
// X_j = (B_j - Σ_{k<j} X_k · L_jk), the terms taken in ascending k as
// GemvN takes its columns.
func TrsmRightLTransUnit(m, n int, l []float64, ldl int, b []float64, ldb int) {
	if useAVX2 {
		trsmRightLTransUnitAVX2(m, n, l, ldl, b, ldb)
		return
	}
	trsmRightLTransUnitGo(m, n, l, ldl, b, ldb)
}

// trsmRightLTransUnitGo is the scalar TrsmRightLTransUnit.
func trsmRightLTransUnitGo(m, n int, l []float64, ldl int, b []float64, ldb int) {
	for j := 0; j < n; j++ {
		bj := b[j*ldb : j*ldb+m]
		for k := 0; k < j; k++ {
			ljk := l[j+k*ldl]
			if ljk == 0 {
				continue
			}
			axpy(-ljk, b[k*ldb:k*ldb+m], bj)
		}
	}
}

// TrsmRightLTrans solves X · Lᵀ = B in place, where L is n×n lower
// triangular with explicit diagonal (the LLᵀ case).
func TrsmRightLTrans(m, n int, l []float64, ldl int, b []float64, ldb int) {
	for j := 0; j < n; j++ {
		bj := b[j*ldb : j*ldb+m]
		for k := 0; k < j; k++ {
			ljk := l[j+k*ldl]
			if ljk == 0 {
				continue
			}
			axpy(-ljk, b[k*ldb:k*ldb+m], bj)
		}
		inv := 1 / l[j+j*ldl]
		for i := range bj {
			bj[i] *= inv
		}
	}
}

// ScaleColumns divides column j of the m×n matrix B (ldb) by d[j]. Used to
// turn W = L·D into L after a TRSM in the LDLᵀ path.
func ScaleColumns(m, n int, b []float64, ldb int, d []float64) {
	for j := 0; j < n; j++ {
		inv := 1 / d[j]
		bj := b[j*ldb : j*ldb+m]
		for i := range bj {
			bj[i] *= inv
		}
	}
}

// --- Solve-phase kernels (operate on a block of right-hand sides) ---

// TrsvLowerUnit solves L·x = b in place for one rhs, unit lower L (n×n, ld).
func TrsvLowerUnit(n int, l []float64, ld int, x []float64) {
	if useAVX2 {
		trsvLowerUnitAVX2(n, l, ld, x)
		return
	}
	trsvLowerUnitGo(n, l, ld, x)
}

// trsvLowerUnitGo is the scalar TrsvLowerUnit.
func trsvLowerUnitGo(n int, l []float64, ld int, x []float64) {
	for j := 0; j < n; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		col := l[j*ld : j*ld+n]
		for i := j + 1; i < n; i++ {
			x[i] -= col[i] * xj
		}
	}
}

// TrsvLower solves L·x = b in place, explicit-diagonal lower L.
func TrsvLower(n int, l []float64, ld int, x []float64) {
	for j := 0; j < n; j++ {
		x[j] /= l[j+j*ld]
		xj := x[j]
		if xj == 0 {
			continue
		}
		col := l[j*ld : j*ld+n]
		for i := j + 1; i < n; i++ {
			x[i] -= col[i] * xj
		}
	}
}

// TrsvLowerTransUnit solves Lᵀ·x = b in place, unit lower L.
func TrsvLowerTransUnit(n int, l []float64, ld int, x []float64) {
	for j := n - 1; j >= 0; j-- {
		s := x[j]
		col := l[j*ld : j*ld+n]
		for i := j + 1; i < n; i++ {
			s -= col[i] * x[i]
		}
		x[j] = s
	}
}

// TrsvLowerTrans solves Lᵀ·x = b in place, explicit-diagonal lower L.
func TrsvLowerTrans(n int, l []float64, ld int, x []float64) {
	for j := n - 1; j >= 0; j-- {
		s := x[j]
		col := l[j*ld : j*ld+n]
		for i := j + 1; i < n; i++ {
			s -= col[i] * x[i]
		}
		x[j] = s / col[j]
	}
}

// GemvN computes y -= A·x with A m×n (lda) column-major: y_i becomes
// (a_ij·(−x_j)) + y_i for j ascending, skipping every x_j == 0.
func GemvN(m, n int, a []float64, lda int, x, y []float64) {
	if useAVX2 {
		gemvNAVX2(m, n, a, lda, x, y)
		return
	}
	gemvNGo(m, n, a, lda, x, y)
}

// gemvNGo is the scalar GemvN.
func gemvNGo(m, n int, a []float64, lda int, x, y []float64) {
	y = y[:m]
	for j := 0; j < n; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		axpy(-xj, a[j*lda:j*lda+m], y)
	}
}

// GemvT computes y -= Aᵀ·x with A m×n (lda) column-major, x length m,
// y length n: y_j -= s_j, with s_j summed from 0 in ascending row order.
func GemvT(m, n int, a []float64, lda int, x, y []float64) {
	if useAVX2 {
		gemvTAVX2(m, n, a, lda, x, y)
		return
	}
	gemvTGo(m, n, a, lda, x, y)
}

// gemvTGo is the scalar GemvT.
func gemvTGo(m, n int, a []float64, lda int, x, y []float64) {
	for j := 0; j < n; j++ {
		col := a[j*lda : j*lda+m]
		s := 0.0
		for i := 0; i < m; i++ {
			s += col[i] * x[i]
		}
		y[j] -= s
	}
}
