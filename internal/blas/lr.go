package blas

// Low-rank (BLR) kernels: the solve's GEMV forms where the operand is a
// compressed block B = U·Vᵀ (U m×r, V n×r, both packed column-major). Each
// kernel factors through the rank-r middle dimension — a temporary of r
// values — so the arithmetic cost is O(r·(m+n)) instead of O(m·n). All kernels
// keep a fixed operation order (rank index innermost accumulation first),
// so runs are deterministic regardless of the caller's scheduling; they are
// NOT bit-compatible with their dense counterparts — compressed data is
// lossy to begin with, and the accuracy contract lives at the compression
// tolerance, not the kernel.

// LRGemvNRows computes rows [lo, hi) of y -= (U·Vᵀ)·x: the forward-solve
// application of a compressed block. U is m×r packed, V is n×r packed, x
// length n, y length m. The temporary t = Vᵀ·x is formed first, then
// y -= U·t. Every t_k is formed over the whole of x, so each updated row gets
// the same bits whatever range it falls in.
func LRGemvNRows(m, n, r, lo, hi int, u, v, x, y []float64) {
	if r == 0 || lo >= hi {
		return
	}
	y = y[lo:hi]
	for k := 0; k < r; k++ {
		vk := v[k*n : k*n+n]
		var t float64
		for j, xj := range x[:n] {
			t += vk[j] * xj
		}
		if t == 0 {
			continue
		}
		axpy(-t, u[k*m+lo:k*m+hi], y)
	}
}

// LRGemvTCols computes entries [lo, hi) of y -= (U·Vᵀ)ᵀ·x = V·(Uᵀ·x): the
// backward-solve application. x length m, y length n, with the same
// per-entry bits whatever range an entry falls in.
func LRGemvTCols(m, n, r, lo, hi int, u, v, x, y []float64) {
	if r == 0 || lo >= hi {
		return
	}
	y = y[lo:hi]
	for k := 0; k < r; k++ {
		uk := u[k*m : k*m+m]
		var t float64
		for i, xi := range x[:m] {
			t += uk[i] * xi
		}
		if t == 0 {
			continue
		}
		axpy(-t, v[k*n+lo:k*n+hi], y)
	}
}
