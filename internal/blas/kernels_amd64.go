//go:build !purego

package blas

// useAVX2 selects the AVX2 kernels of kernels_amd64.s: the CPU has AVX2 and
// the OS saves the YMM registers. The kernels give the same bits as the
// scalar Go kernels, so the choice changes speed only.
var useAVX2 = detectAVX2()

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax uint32)

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 6 // XCR0 bits: SSE and AVX register state enabled
	if xgetbv0()&xmmYmmState != xmmYmmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

//go:noescape
func gemvNegAddKernel(m, n int, a *float64, lda int, x *float64, incx int, y *float64)

//go:noescape
func gemvNegSetKernel(m, n int, a *float64, lda int, x *float64, incx int, y *float64)

//go:noescape
func gemvSubKernel(m, n int, a *float64, lda int, x *float64, incx int, y *float64)

//go:noescape
func trsvTileKernel(n int, l *float64, ld int, x *float64)

//go:noescape
func gemvTKernel(m, n int, a *float64, lda int, x, y *float64)

//go:noescape
func gemmNDT8x4Kernel(mr, nr, k int, a *float64, lda int, d, b *float64, ldb int, c *float64, ldc int)

//go:noescape
func gemmNDT4x4Kernel(mr, nr, k int, a *float64, lda int, d, b *float64, ldb int, c *float64, ldc int)

//go:noescape
func gemmNDTEdgeKernel(mr, nr, k int, a *float64, lda int, d, b *float64, ldb int, c *float64, ldc int)

// The functions below check every bound the scalar kernel would touch before
// handing raw pointers to the assembly, which reads and writes only inside
// those bounds (ragged edges go through masked loads and stores).

func gemvNAVX2(m, n int, a []float64, lda int, x, y []float64) {
	if m == 0 || n == 0 {
		return
	}
	_, _, _ = a[m-1+(n-1)*lda], x[n-1], y[m-1]
	gemvNegAddKernel(m, n, &a[0], lda, &x[0], 1, &y[0])
}

func gemvTAVX2(m, n int, a []float64, lda int, x, y []float64) {
	if m == 0 || n == 0 {
		gemvTGo(m, n, a, lda, x, y)
		return
	}
	_, _, _ = a[m-1+(n-1)*lda], x[m-1], y[n-1]
	gemvTKernel(m, n, &a[0], lda, &x[0], &y[0])
}

// trsvTile is the row tile of trsvLowerUnitAVX2, the register tile of the
// column-sweep kernel.
const trsvTile = 16

// trsvLowerUnitAVX2 solves by row tiles: the columns left of a tile
// (already final) update it in one column-sweep call, then the tile's own
// unit triangle runs in trsvTileKernel. Each x[i] still takes its updates
// in ascending column order.
func trsvLowerUnitAVX2(n int, l []float64, ld int, x []float64) {
	if n == 0 {
		return
	}
	_, _ = l[n-1+(n-1)*ld], x[n-1]
	for i0 := 0; i0 < n; i0 += trsvTile {
		i1 := min(i0+trsvTile, n)
		if i0 > 0 {
			gemvSubKernel(i1-i0, i0, &l[i0], ld, &x[0], 1, &x[i0])
		}
		if i1-i0 > 1 {
			trsvTileKernel(i1-i0, &l[i0+i0*ld], ld, &x[i0])
		}
	}
}

// cellForwardAVX2 is CellForward on the AVX2 triangle and a column sweep
// that starts the panel rows at +0.
func cellForwardAVX2(w, lo, hi int, tri bool, a []float64, lda int, x, t []float64) {
	if tri {
		trsvLowerUnitAVX2(w, a, lda, x)
	}
	if lo >= hi {
		return
	}
	if w == 0 {
		clear(t[lo:hi])
		return
	}
	m := hi - lo
	_, _, _ = a[w+hi-1+(w-1)*lda], x[w-1], t[hi-1]
	gemvNegSetKernel(m, w, &a[w+lo], lda, &x[0], 1, &t[lo])
}

// trsmRightLTransUnitAVX2 forms column j of X as one column-sweep kernel
// call over the final columns 0..j-1, scaled by row j of L.
func trsmRightLTransUnitAVX2(m, n int, l []float64, ldl int, b []float64, ldb int) {
	if m == 0 || n < 2 {
		return
	}
	_, _ = l[n-1+(n-2)*ldl], b[m-1+(n-1)*ldb]
	for j := 1; j < n; j++ {
		gemvNegAddKernel(m, j, &b[0], ldb, &l[j], ldl, &b[j*ldb])
	}
}

// gemmStripRows × gemmChunkK is the block of A that gemmNDTAVX2 keeps in
// cache while every 4-column group of C passes over it. Chunking k keeps
// each element's ascending-l order: its tile is stored after one chunk and
// reloaded for the next.
const (
	gemmStripRows = 128
	gemmChunkK    = 128
)

func gemmNDTAVX2(m, n, k int, a []float64, lda int, d []float64, b []float64, ldb int, c []float64, ldc int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	_, _, _, _ = a[m-1+(k-1)*lda], b[n-1+(k-1)*ldb], c[m-1+(n-1)*ldc], d[k-1]
	for l0 := 0; l0 < k; l0 += gemmChunkK {
		kc := min(gemmChunkK, k-l0)
		al, dl, bl := a[l0*lda:], d[l0:], b[l0*ldb:]
		for i0 := 0; i0 < m; i0 += gemmStripRows {
			i1 := min(i0+gemmStripRows, m)
			for j := 0; j < n; j += 4 {
				gemmNDTColumns(i0, i1, j, min(4, n-j), kc, al, lda, dl, bl, ldb, c, ldc)
			}
		}
	}
}

// gemmNDTColumns updates rows [i0, i1) of the nr <= 4 columns of C starting
// at column j, in 8-row tiles; a last tile of at most four rows takes the
// 4-row kernel, so it does not pay for eight.
func gemmNDTColumns(i0, i1, j, nr, k int, a []float64, lda int, d []float64, b []float64, ldb int, c []float64, ldc int) {
	i := i0
	if nr == 4 {
		for ; i+8 <= i1; i += 8 {
			gemmNDT8x4Kernel(8, 4, k, &a[i], lda, &d[0], &b[j], ldb, &c[i+j*ldc], ldc)
		}
	}
	for ; i < i1; i += 8 {
		if mr := i1 - i; mr <= 4 {
			gemmNDT4x4Kernel(mr, nr, k, &a[i], lda, &d[0], &b[j], ldb, &c[i+j*ldc], ldc)
		} else {
			gemmNDTEdgeKernel(min(8, mr), nr, k, &a[i], lda, &d[0], &b[j], ldb, &c[i+j*ldc], ldc)
		}
	}
}

// syrkLowerNDTAVX2 takes C's columns four at a time: the lower triangle of
// the 4×4 diagonal block in scalar Go (so nothing above the diagonal is
// written), the rows below it in the GEMM tiles with B = A.
func syrkLowerNDTAVX2(m, k int, a []float64, lda int, d []float64, c []float64, ldc int) {
	if m == 0 || k == 0 {
		return
	}
	_, _, _ = a[m-1+(k-1)*lda], c[m-1+(m-1)*ldc], d[k-1]
	for j := 0; j < m; j += 4 {
		j1 := min(j+4, m)
		for jj := j; jj < j1; jj++ {
			cj := c[jj*ldc+jj : jj*ldc+j1]
			for l := 0; l < k; l++ {
				s := d[l] * a[jj+l*lda]
				if s == 0 {
					continue
				}
				axpy(-s, a[l*lda+jj:l*lda+j1], cj)
			}
		}
		if j1 < m {
			gemmNDTColumns(j1, m, j, j1-j, k, a, lda, d, a, lda, c, ldc)
		}
	}
}
