package blas

// Packed panel kernels for the solve phase: the Gemv/Gemm/Trsv solve
// kernels on a matrix operand stored contiguously (leading dimension ==
// row count), as produced by PackPanel. Packing the factor's solve operands
// per level turns the strided per-supernode gathers of the sweeps into
// linear streams; each packed kernel is its strided counterpart at
// lda == m, so a packed sweep is bitwise-identical to a strided one.

// PackPanel copies the m×n column-major panel src (leading dimension lds)
// into dst as a contiguous m×n panel (leading dimension m). dst must have
// room for m*n values.
func PackPanel(m, n int, src []float64, lds int, dst []float64) {
	for j := 0; j < n; j++ {
		copy(dst[j*m:j*m+m], src[j*lds:j*lds+m])
	}
}

// GemvNPacked computes y -= A·x with A m×n packed (lda == m).
func GemvNPacked(m, n int, a, x, y []float64) { GemvN(m, n, a, m, x, y[:m]) }

// GemvTPacked computes y -= Aᵀ·x with A m×n packed, x length m, y length n.
func GemvTPacked(m, n int, a, x, y []float64) { GemvT(m, n, a, m, x, y) }

// GemmNNPacked computes C -= A·B with A m×k packed, B k×n (ldb), C m×n
// (ldc), one GemvNPacked per column.
func GemmNNPacked(m, n, k int, a []float64, b []float64, ldb int, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		GemvNPacked(m, k, a, b[j*ldb:j*ldb+k], c[j*ldc:j*ldc+m])
	}
}

// GemmTNPacked computes C -= Aᵀ·B with A k×m packed, B k×n (ldb), C m×n
// (ldc), one GemvTPacked per column.
func GemmTNPacked(m, n, k int, a []float64, b []float64, ldb int, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		GemvTPacked(k, m, a, b[j*ldb:j*ldb+k], c[j*ldc:j*ldc+m])
	}
}

// TrsvLowerUnitPacked solves L·x = b in place, unit lower L n×n packed.
func TrsvLowerUnitPacked(n int, l, x []float64) { TrsvLowerUnit(n, l, n, x) }

// TrsvLowerTransUnitPacked solves Lᵀ·x = b in place, unit lower L n×n
// packed.
func TrsvLowerTransUnitPacked(n int, l, x []float64) { TrsvLowerTransUnit(n, l, n, x) }

// TrsmLowerUnitPacked solves L·X = B in place for an n×nrhs panel B with
// leading dimension n (a packed RHS panel), one TrsvLowerUnitPacked per
// column.
func TrsmLowerUnitPacked(n, nrhs int, l, b []float64) {
	for r := 0; r < nrhs; r++ {
		TrsvLowerUnitPacked(n, l, b[r*n:r*n+n])
	}
}

// TrsmLTransUnitPacked solves Lᵀ·X = B in place for an n×nrhs packed panel.
func TrsmLTransUnitPacked(n, nrhs int, l, b []float64) {
	for r := 0; r < nrhs; r++ {
		TrsvLowerTransUnitPacked(n, l, b[r*n:r*n+n])
	}
}
