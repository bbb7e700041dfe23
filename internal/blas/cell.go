package blas

// Cell kernels: one call per column block and sweep of a triangular solve.
// A column block is held as one column-major array a (leading dimension
// lda): its top w×w block carries the unit-lower triangle L (the diagonal
// holds D), and the rows below it, to the end of each column, the panel P
// of the block's off-diagonal rows. Each kernel gives every element the
// operation sequence of the separate kernels it fuses, so it is
// bit-identical to calling them in turn, over any row or column range.

// CellForward runs the forward solve of a column block of width w: with
// tri, L·x = b in place on x (TrsvLowerUnit's sequence); then, for the
// panel rows i in [lo, hi), t[i] = −(P·x)_i summed from +0 (GemvN's
// sequence on a cleared t: t_i = (p_ij·(−x_j)) + t_i for j ascending,
// skipping every x_j == 0). Only t[lo:hi] is written.
func CellForward(w, lo, hi int, tri bool, a []float64, lda int, x, t []float64) {
	if useAVX2 {
		cellForwardAVX2(w, lo, hi, tri, a, lda, x, t)
		return
	}
	cellForwardGo(w, lo, hi, tri, a, lda, x, t)
}

// cellForwardGo is the scalar CellForward.
func cellForwardGo[T Scalar](w, lo, hi int, tri bool, a []T, lda int, x, t []T) {
	if tri {
		trsvLowerUnitGo(w, a, lda, x)
	}
	if lo < hi {
		clear(t[lo:hi])
		gemvNGo(hi-lo, w, a[w+lo:], lda, x, t[lo:hi])
	}
}

// CellBackward runs the backward solve of a column block of width w with m
// panel rows, g the m solution entries they face: for the columns j in
// [lo, hi), x_j = x_j/d_j, then x_j −= s_j with s_j summed from +0 over
// the panel rows in ascending order (GemvT's sequence; nothing is
// subtracted when m == 0); then with tri, Lᵀ·x = x in place
// (TrsvLowerTransUnit's sequence).
//
// Only the dots vectorise (GemvT); the division and the transposed
// triangle's serial dot chains stay scalar.
func CellBackward(w, m, lo, hi int, tri bool, a []float64, lda int, g, x []float64) {
	for j := lo; j < hi; j++ {
		x[j] /= a[j+j*lda]
	}
	if lo < hi && m > 0 {
		GemvT(m, hi-lo, a[w+lo*lda:], lda, g, x[lo:hi])
	}
	if tri {
		TrsvLowerTransUnit(w, a, lda, x)
	}
}

// cellBackwardGo is the scalar CellBackward.
func cellBackwardGo[T Scalar](w, m, lo, hi int, tri bool, a []T, lda int, g, x []T) {
	for j := lo; j < hi; j++ {
		x[j] /= a[j+j*lda]
	}
	if lo < hi && m > 0 {
		gemvTGo(m, hi-lo, a[w+lo*lda:], lda, g, x[lo:hi])
	}
	if tri {
		TrsvLowerTransUnit(w, a, lda, x)
	}
}
