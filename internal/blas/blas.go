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
// and cell forms built on them) run in assembly that gives exactly the
// bits of the scalar Go code kept beside it; the purego build tag forces
// the scalar code everywhere. KernelPath reports which one runs.
//
// The scalar references are generic over Scalar, so the complex symmetric
// factorization (plain transposes, no conjugation: A = L·D·Lᵀ with complex
// L and D) runs the same code on complex128. Kernels gathers the entry
// points a factorization calls for one scalar type.
package blas

import (
	"math"
)

// Scalar is the element type of a factorization: real symmetric or complex
// symmetric (not Hermitian).
type Scalar interface{ float64 | complex128 }

// Kernels is the dense kernel set a factorization of scalar type T and its
// solves call. The float64 table holds the exported entry points, AVX2
// dispatch included; the complex128 table holds the generic scalar
// references.
type Kernels[T Scalar] struct {
	// LDLT factors a diagonal block with static-pivot threshold tau (see
	// LDLTStatic).
	LDLT                func(n int, a []T, ld int, tau float64) ([]Perturb, error)
	TrsmRightLTransUnit func(m, n int, l []T, ldl int, b []T, ldb int)
	GemmNDT             func(m, n, k int, a []T, lda int, d []T, b []T, ldb int, c []T, ldc int)
	SyrkLowerNDT        func(m, k int, a []T, lda int, d []T, c []T, ldc int)
	CellForward         func(w, lo, hi int, tri bool, a []T, lda int, x, t []T)
	CellBackward        func(w, m, lo, hi int, tri bool, a []T, lda int, g, x []T)
}

var (
	realKernels = &Kernels[float64]{
		LDLT:                LDLTStatic[float64],
		TrsmRightLTransUnit: TrsmRightLTransUnit,
		GemmNDT:             GemmNDT,
		SyrkLowerNDT:        SyrkLowerNDT,
		CellForward:         CellForward,
		CellBackward:        CellBackward,
	}
	complexKernels = &Kernels[complex128]{
		LDLT:                LDLTStatic[complex128],
		TrsmRightLTransUnit: trsmRightLTransUnitGo[complex128],
		GemmNDT:             gemmNDTGo[complex128],
		SyrkLowerNDT:        syrkLowerNDTGo[complex128],
		CellForward:         cellForwardGo[complex128],
		CellBackward:        cellBackwardGo[complex128],
	}
)

// KernelsOf returns the kernel table of scalar type T.
func KernelsOf[T Scalar]() *Kernels[T] {
	if k, ok := any(realKernels).(*Kernels[T]); ok {
		return k
	}
	return any(complexKernels).(*Kernels[T])
}

// KernelPath names the dense kernels this process runs: "avx2", or
// "scalar" on a CPU without AVX2, off amd64, or under the purego tag.
func KernelPath() string {
	if useAVX2 {
		return "avx2"
	}
	return "scalar"
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
func gemmNDTGo[T Scalar](m, n, k int, a []T, lda int, d []T, b []T, ldb int, c []T, ldc int) {
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
func axpy[T Scalar](alpha T, x, y []T) {
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

// SyrkLowerNDT computes the lower triangle of C -= A·diag(d)·Aᵀ, with the
// per-element operation order of GemmNDT.
func SyrkLowerNDT(m, k int, a []float64, lda int, d []float64, c []float64, ldc int) {
	if useAVX2 {
		syrkLowerNDTAVX2(m, k, a, lda, d, c, ldc)
		return
	}
	syrkLowerNDTGo(m, k, a, lda, d, c, ldc)
}

// syrkLowerNDTGo is the scalar SyrkLowerNDT. A nil d stands for the
// identity.
func syrkLowerNDTGo[T Scalar](m, k int, a []T, lda int, d []T, c []T, ldc int) {
	for j := 0; j < m; j++ {
		cj := c[j*ldc : j*ldc+m]
		for l := 0; l < k; l++ {
			s := a[j+l*lda]
			if d != nil {
				s = d[l] * s
			}
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
// holds D. It returns an error on a zero or NaN pivot; a complex pivot with
// NaN in either part counts as NaN.
func LDLT[T Scalar](n int, a []T, ld int) error {
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

// LDLTStatic is LDLT with static pivoting: a real pivot with |d_k| < tau is
// replaced by sign(d_k)·tau (an exact zero gets +tau) and the substitution is
// recorded, so the factorization always completes on finite input. With
// tau <= 0 the arithmetic is bit-identical to LDLT, including the zero-pivot
// error. A NaN pivot is never perturbable and always errors. Complex pivots
// are never perturbed: tau applies to float64 only.
func LDLTStatic[T Scalar](n int, a []T, ld int, tau float64) ([]Perturb, error) {
	var perts []Perturb
	for k := 0; k < n; k++ {
		dk := a[k+k*ld]
		if dk != dk {
			return nil, &PivotError{Kernel: "ldlt", Index: k, Value: realPart(dk)}
		}
		if tau > 0 {
			if r, ok := any(dk).(float64); ok && math.Abs(r) < tau {
				used := math.Copysign(tau, r)
				perts = append(perts, Perturb{Index: k, Original: r, Used: used})
				dk = any(used).(T)
				a[k+k*ld] = dk
			}
		}
		if dk == 0 {
			return nil, &PivotError{Kernel: "ldlt", Index: k, Value: realPart(dk)}
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

// realPart returns x, or its real part when x is complex.
func realPart[T Scalar](x T) float64 {
	if c, ok := any(x).(complex128); ok {
		return real(c)
	}
	return any(x).(float64)
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
func trsmRightLTransUnitGo[T Scalar](m, n int, l []T, ldl int, b []T, ldb int) {
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

// ScaleColumns divides column j of the m×n matrix B (ldb) by d[j]. Used to
// turn W = L·D into L after a TRSM in the LDLᵀ path.
func ScaleColumns[T Scalar](m, n int, b []T, ldb int, d []T) {
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
func trsvLowerUnitGo[T Scalar](n int, l []T, ld int, x []T) {
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
func TrsvLowerTransUnit[T Scalar](n int, l []T, ld int, x []T) {
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
func gemvNGo[T Scalar](m, n int, a []T, lda int, x, y []T) {
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
func gemvTGo[T Scalar](m, n int, a []T, lda int, x, y []T) {
	for j := 0; j < n; j++ {
		col := a[j*lda : j*lda+m]
		var s T
		for i := 0; i < m; i++ {
			s += col[i] * x[i]
		}
		y[j] -= s
	}
}
