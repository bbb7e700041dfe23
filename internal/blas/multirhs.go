package blas

// Kernels for solving with blocks of right-hand sides (X and B are n×nrhs
// column-major panels). These give the solve phase BLAS3 shape when many
// right-hand sides are solved at once.

// TrsmLeftLowerUnit solves L·X = B in place: L n×n unit lower (ldl),
// B n×nrhs (ldb).
func TrsmLeftLowerUnit(n, nrhs int, l []float64, ldl int, b []float64, ldb int) {
	for r := 0; r < nrhs; r++ {
		TrsvLowerUnit(n, l, ldl, b[r*ldb:r*ldb+n])
	}
}

// TrsmLeftLTransUnit solves Lᵀ·X = B in place.
func TrsmLeftLTransUnit(n, nrhs int, l []float64, ldl int, b []float64, ldb int) {
	for r := 0; r < nrhs; r++ {
		TrsvLowerTransUnit(n, l, ldl, b[r*ldb:r*ldb+n])
	}
}

// GemmNN computes C -= A·B with A m×k (lda), B k×n (ldb), C m×n (ldc), one
// GemvN per column.
func GemmNN(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		GemvN(m, k, a, lda, b[j*ldb:j*ldb+k], c[j*ldc:j*ldc+m])
	}
}

// GemmTN computes C -= Aᵀ·B with A k×m (lda), B k×n (ldb), C m×n (ldc), one
// GemvT per column.
func GemmTN(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		GemvT(k, m, a, lda, b[j*ldb:j*ldb+k], c[j*ldc:j*ldc+m])
	}
}
