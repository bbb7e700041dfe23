// Package lowrank implements block low-rank (BLR) compression of dense
// factor blocks: the memory lever modern PaStiX ships beyond the source
// paper ("low-rank compression methods to reduce the memory footprint
// and/or the time-to-solution").
//
// A dense m×n block B is replaced, when profitable, by the outer product
// B ≈ U·Vᵀ with U m×r and V n×r, r = the numerical rank of B at a relative
// Frobenius tolerance tol: ‖B − U·Vᵀ‖_F ≤ tol·‖B‖_F. Storage drops from
// m·n to r·(m+n) values, so compression is admitted only when that is a
// win (r < m·n/(m+n)).
//
// Two compressors are provided. CompressRRQR is the reference path: a
// truncated rank-revealing QR (column-pivoted modified Gram-Schmidt on the
// explicit residual), whose error bound is exact by construction — the
// residual matrix is maintained explicitly and its Frobenius norm is what
// the stopping test reads. CompressACA is the cheap path for large blocks:
// partially-pivoted adaptive cross approximation building the factorization
// from rank-1 crosses of residual rows and columns at O((m+n)·r²+m·n) cost
// instead of RRQR's O(m·n·r); its stopping criterion estimates the residual
// norm from the last cross, so its error contract is heuristic (verified to
// a small slack factor in the tests). Compress picks between them by block
// size.
package lowrank

import (
	"fmt"
	"math"
)

// DefaultMinBlockSize is the admission threshold on min(rows, cols) used
// when Options.MinBlockSize is zero: blocks with a smaller minimum dimension
// stay dense (the fixed overheads of the LR form and its kernels dominate
// below it).
const DefaultMinBlockSize = 24

// acaCutoff is the min(rows, cols) above which Compress switches from the
// reference RRQR to the cheaper ACA path.
const acaCutoff = 128

// LRBlock is a compressed block B ≈ U·Vᵀ: U is Rows×Rank, V is Cols×Rank,
// both packed column-major (leading dimension == row count).
type LRBlock struct {
	Rows, Cols, Rank int
	U, V             []float64
}

// Values returns the number of float64 values the compressed form stores.
func (b *LRBlock) Values() int { return b.Rank * (b.Rows + b.Cols) }

// Options configures compression.
type Options struct {
	// Tol is the relative Frobenius tolerance of each compressed block:
	// ‖B − U·Vᵀ‖_F ≤ Tol·‖B‖_F. Tol <= 0 disables compression.
	Tol float64
	// MinBlockSize is the admission threshold: only blocks with
	// min(rows, cols) >= MinBlockSize are considered. 0 selects
	// DefaultMinBlockSize.
	MinBlockSize int
}

// Enabled reports whether the options request compression at all.
func (o Options) Enabled() bool { return o.Tol > 0 }

// Validate checks the options; Tol must lie in [0, 1) and MinBlockSize must
// be non-negative.
func (o Options) Validate() error {
	if o.Tol < 0 || o.Tol >= 1 {
		return fmt.Errorf("lowrank: Tol %g outside [0,1)", o.Tol)
	}
	if o.MinBlockSize < 0 {
		return fmt.Errorf("lowrank: MinBlockSize %d is negative", o.MinBlockSize)
	}
	return nil
}

// Admit reports whether a block of the given shape is a compression
// candidate under the options (size gate only; the rank test happens inside
// the compressor).
func (o Options) Admit(rows, cols int) bool {
	if !o.Enabled() {
		return false
	}
	min := o.MinBlockSize
	if min == 0 {
		min = DefaultMinBlockSize
	}
	return rows >= min && cols >= min
}

// maxProfitableRank is the largest rank at which U·Vᵀ storage still beats
// the dense m×n block.
func maxProfitableRank(m, n int) int {
	r := (m*n - 1) / (m + n)
	if r < 0 {
		r = 0
	}
	return r
}

// Compress compresses the m×n column-major block a (leading dimension lda)
// at relative Frobenius tolerance tol, choosing RRQR for moderate blocks and
// ACA for large ones. It returns nil when the numerical rank at tol does not
// beat dense storage — the caller keeps the dense block (the decompress
// fallback path).
func Compress(m, n int, a []float64, lda int, tol float64) *LRBlock {
	if tol <= 0 || m <= 0 || n <= 0 {
		return nil
	}
	if m >= acaCutoff && n >= acaCutoff {
		if b := CompressACA(m, n, a, lda, tol); b != nil {
			return b
		}
		// ACA declined (rank grew past profitability or it stalled): fall
		// through to the reference compressor, whose bound is exact.
	}
	return CompressRRQR(m, n, a, lda, tol)
}

// CompressRRQR runs the truncated rank-revealing QR: column-pivoted modified
// Gram-Schmidt on an explicit residual copy of the block. At acceptance the
// residual matrix IS B − U·Vᵀ up to rounding, so ‖B − U·Vᵀ‖_F ≤ tol·‖B‖_F
// holds by construction. Returns nil when the truncated rank does not beat
// dense storage.
func CompressRRQR(m, n int, a []float64, lda int, tol float64) *LRBlock {
	maxRank := maxProfitableRank(m, n)
	if maxRank == 0 {
		return nil
	}
	// Residual working copy, packed.
	res := make([]float64, m*n)
	for j := 0; j < n; j++ {
		copy(res[j*m:j*m+m], a[j*lda:j*lda+m])
	}
	norms2 := make([]float64, n)
	var total float64
	for j := 0; j < n; j++ {
		norms2[j] = dot(res[j*m:j*m+m], res[j*m:j*m+m])
		total += norms2[j]
	}
	target := tol * tol * total
	if total == 0 {
		// Identically zero block: rank 0.
		return &LRBlock{Rows: m, Cols: n, Rank: 0, U: nil, V: nil}
	}
	u := make([]float64, 0, maxRank*m)
	v := make([]float64, 0, maxRank*n)
	rank := 0
	remaining := total
	for remaining > target {
		if rank == maxRank {
			return nil // numerical rank at tol does not beat dense
		}
		// Pivot: the residual column of largest norm (recomputed exactly to
		// keep the downdated estimates honest).
		p, best := -1, 0.0
		for j := 0; j < n; j++ {
			if norms2[j] > best {
				best, p = norms2[j], j
			}
		}
		if p < 0 || best <= 0 {
			break // residual exactly zero: done below target
		}
		col := res[p*m : p*m+m]
		nrm := math.Sqrt(dot(col, col))
		if nrm == 0 {
			norms2[p] = 0
			continue
		}
		q := make([]float64, m)
		inv := 1 / nrm
		for i, ci := range col {
			q[i] = ci * inv
		}
		// Project q out of every residual column, recording the coefficients
		// as row `rank` of Vᵀ (i.e. column `rank` of V).
		vk := make([]float64, n)
		remaining = 0
		for j := 0; j < n; j++ {
			cj := res[j*m : j*m+m]
			r := dot(q, cj)
			vk[j] = r
			if r != 0 {
				for i := range cj {
					cj[i] -= r * q[i]
				}
			}
			norms2[j] = dot(cj, cj)
			remaining += norms2[j]
		}
		u = append(u, q...)
		v = append(v, vk...)
		rank++
	}
	return &LRBlock{Rows: m, Cols: n, Rank: rank, U: u, V: v}
}

// CompressACA runs partially-pivoted adaptive cross approximation: rank-1
// updates built from a residual row and column per step, touching O(m+n)
// entries of the residual per step instead of all m·n. The stopping test is
// the standard one — ‖u_k‖·‖v_k‖ ≤ tol·‖A_k‖_F with ‖A_k‖_F accumulated
// from the crosses — so the Frobenius contract is heuristic, not proven;
// Compress uses it only for large blocks and falls back to RRQR when ACA
// declines. Returns nil when the rank grows past profitability or no valid
// pivot is found early enough.
func CompressACA(m, n int, a []float64, lda int, tol float64) *LRBlock {
	maxRank := maxProfitableRank(m, n)
	if maxRank == 0 {
		return nil
	}
	var (
		u, v     []float64 // accumulated factors, column-major packed
		rank     int
		approxF2 float64 // running ‖U·Vᵀ‖_F² estimate
		rowUsed  = make([]bool, m)
		row      = make([]float64, n) // residual row buffer
		colBuf   = make([]float64, m) // residual column buffer
	)
	nextRow := 0
	for rank < maxRank {
		// Residual row at pivot row i*: a[i*,:] − U[i*,:]·Vᵀ.
		i := nextRow
		tries := 0
		var jmax int
		for {
			if i >= m || tries == m {
				// No admissible pivot row left: treat the approximation as
				// converged if we ever made progress, else decline.
				if rank == 0 {
					return &LRBlock{Rows: m, Cols: n, Rank: 0}
				}
				return &LRBlock{Rows: m, Cols: n, Rank: rank, U: u, V: v}
			}
			if rowUsed[i] {
				i = (i + 1) % m
				tries++
				continue
			}
			for j := 0; j < n; j++ {
				s := a[i+j*lda]
				for k := 0; k < rank; k++ {
					s -= u[i+k*m] * v[j+k*n]
				}
				row[j] = s
			}
			jmax = argmaxAbs(row)
			if math.Abs(row[jmax]) > 0 {
				break
			}
			rowUsed[i] = true
			i = (i + 1) % m
			tries++
		}
		rowUsed[i] = true
		delta := row[jmax]
		// Residual column at pivot column j*: a[:,j*] − U·V[j*,:]ᵀ.
		for r := 0; r < m; r++ {
			s := a[r+jmax*lda]
			for k := 0; k < rank; k++ {
				s -= u[r+k*m] * v[jmax+k*n]
			}
			colBuf[r] = s
		}
		// Cross update: u_k = residual column, v_k = residual row / delta.
		uk := make([]float64, m)
		copy(uk, colBuf)
		vk := make([]float64, n)
		invd := 1 / delta
		for j := 0; j < n; j++ {
			vk[j] = row[j] * invd
		}
		nu2 := dot(uk, uk)
		nv2 := dot(vk, vk)
		// Norm bookkeeping: ‖A_{k+1}‖² ≈ ‖A_k‖² + 2·Σ cross terms + ‖u‖²‖v‖².
		for k := 0; k < rank; k++ {
			var du, dv float64
			for r := 0; r < m; r++ {
				du += u[r+k*m] * uk[r]
			}
			for j := 0; j < n; j++ {
				dv += v[j+k*n] * vk[j]
			}
			approxF2 += 2 * du * dv
		}
		approxF2 += nu2 * nv2
		u = append(u, uk...)
		v = append(v, vk...)
		rank++
		// Next pivot row: where the new residual column was largest (skip the
		// row just used).
		colBuf[i] = 0
		nextRow = argmaxAbs(colBuf)
		if math.Sqrt(nu2*nv2) <= tol*math.Sqrt(math.Max(approxF2, 0)) {
			return &LRBlock{Rows: m, Cols: n, Rank: rank, U: u, V: v}
		}
	}
	return nil
}

func dot(x, y []float64) float64 {
	var s float64
	for i, xi := range x {
		s += xi * y[i]
	}
	return s
}

func argmaxAbs(x []float64) int {
	best, bi := -1.0, 0
	for i, xi := range x {
		if a := math.Abs(xi); a > best {
			best, bi = a, i
		}
	}
	return bi
}
