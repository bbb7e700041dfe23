package blas

// Packed panel helpers for the solve phase: a matrix operand stored
// contiguously (leading dimension == row count), as produced by PackPanel.
// A factor's cells are repacked this way at the end of factorization, which
// turns the strided per-supernode gathers of the sweeps into linear streams.
// The strided kernels called at lda == m give every element the operation
// sequence they give it at any other lda, so a packed sweep is
// bitwise-identical to a strided one.

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
