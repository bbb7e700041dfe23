package blas

// Low-rank (BLR) kernels: variants of the solver's update and solve kernels
// where one operand is a compressed block B = U·Vᵀ (U m×r, V n×r, both
// packed column-major). Every kernel factors through the rank-r middle
// dimension — a temporary of r values (or r×nrhs for panels) — so the
// arithmetic cost is O(r·(m+n)) per column instead of O(m·n). All kernels
// keep a fixed operation order (rank index innermost accumulation first),
// so runs are deterministic regardless of the caller's scheduling; they are
// NOT bit-compatible with their dense counterparts — compressed data is
// lossy to begin with, and the accuracy contract lives at the compression
// tolerance, not the kernel.

// LRGemvN computes y -= (U·Vᵀ)·x: the forward-solve application of a
// compressed block. U is m×r packed, V is n×r packed, x length n, y length
// m. The temporary t = Vᵀ·x is formed first, then y -= U·t.
func LRGemvN(m, n, r int, u, v, x, y []float64) { LRGemvNRows(m, n, r, 0, m, u, v, x, y) }

// LRGemvNRows is LRGemvN restricted to rows [lo, hi) of y (y still has
// length m). Every t_k is formed over the whole of x, so each updated row
// gets exactly the bits LRGemvN gives it.
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

// LRGemvT computes y -= (U·Vᵀ)ᵀ·x = V·(Uᵀ·x): the backward-solve
// application. x length m, y length n.
func LRGemvT(m, n, r int, u, v, x, y []float64) { LRGemvTCols(m, n, r, 0, n, u, v, x, y) }

// LRGemvTCols is LRGemvT restricted to entries [lo, hi) of y (y still has
// length n), with the same per-entry bits.
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

// GemmLRDense computes C -= (U·Vᵀ)·B with a DENSE right operand: U m×r,
// V k×r packed, B k×n (ldb), C m×n (ldc). The r×n temporary T = Vᵀ·B is
// formed once, then C -= U·T — the "LR·dense" update of a compressed
// factorization (cost r·k·n + m·r·n instead of m·k·n).
func GemmLRDense(m, n, k, r int, u, v, b []float64, ldb int, c []float64, ldc int) {
	if r == 0 || m == 0 || n == 0 || k == 0 {
		return
	}
	t := make([]float64, r*n)
	for j := 0; j < n; j++ {
		bj := b[j*ldb : j*ldb+k]
		tj := t[j*r : j*r+r]
		for kk := 0; kk < r; kk++ {
			vk := v[kk*k : kk*k+k]
			var s float64
			for i, bi := range bj {
				s += vk[i] * bi
			}
			tj[kk] = s
		}
	}
	for j := 0; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		tj := t[j*r : j*r+r]
		for kk := 0; kk < r; kk++ {
			if tj[kk] == 0 {
				continue
			}
			axpy(-tj[kk], u[kk*m:kk*m+m], cj)
		}
	}
}

// GemmDenseLR computes C -= A·(U·Vᵀ) with a DENSE left operand: A m×k
// (lda), U k×r, V n×r packed, C m×n (ldc). The m×r temporary T = A·U is
// formed once, then C -= T·Vᵀ — the "dense·LR" update.
func GemmDenseLR(m, n, k, r int, a []float64, lda int, u, v, c []float64, ldc int) {
	if r == 0 || m == 0 || n == 0 || k == 0 {
		return
	}
	t := make([]float64, m*r)
	for kk := 0; kk < r; kk++ {
		uk := u[kk*k : kk*k+k]
		tk := t[kk*m : kk*m+m]
		for l := 0; l < k; l++ {
			ul := uk[l]
			if ul == 0 {
				continue
			}
			al := a[l*lda : l*lda+m]
			for i := range tk {
				tk[i] += ul * al[i]
			}
		}
	}
	for j := 0; j < n; j++ {
		cj := c[j*ldc : j*ldc+m]
		for kk := 0; kk < r; kk++ {
			vjk := v[j+kk*n]
			if vjk == 0 {
				continue
			}
			axpy(-vjk, t[kk*m:kk*m+m], cj)
		}
	}
}

// TrsmRightLTransUnitLR solves X·Lᵀ = U·Vᵀ in place on the compressed
// representation: with L n×n unit-lower (ldl) and the panel stored as U·Vᵀ
// (V n×r packed), the solution is X = U·(L⁻¹·V)ᵀ — only the n×r V factor is
// touched (the TRSM of a compressed panel costs r triangular solves instead
// of m). On return v holds L⁻¹·V.
func TrsmRightLTransUnitLR(n, r int, l []float64, ldl int, v []float64) {
	// Column k of V is one rhs of the unit-lower solve L·y = v_k.
	for k := 0; k < r; k++ {
		TrsvLowerUnit(n, l, ldl, v[k*n:k*n+n])
	}
}
