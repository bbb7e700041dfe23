//go:build !amd64 || purego

package blas

// Without the amd64 assembly every kernel runs its scalar Go form.
const useAVX2 = false

const noAVX2 = "blas: AVX2 kernel called in a build without them"

func gemvNAVX2(m, n int, a []float64, lda int, x, y []float64)  { panic(noAVX2) }
func gemvTAVX2(m, n int, a []float64, lda int, x, y []float64)  { panic(noAVX2) }
func trsvLowerUnitAVX2(n int, l []float64, ld int, x []float64) { panic(noAVX2) }
func cellForwardAVX2(w, lo, hi int, tri bool, a []float64, lda int, x, t []float64) {
	panic(noAVX2)
}
func trsmRightLTransUnitAVX2(m, n int, l []float64, ldl int, b []float64, ldb int) {
	panic(noAVX2)
}
func gemmNDTAVX2(m, n, k int, a []float64, lda int, d []float64, b []float64, ldb int, c []float64, ldc int) {
	panic(noAVX2)
}
func syrkLowerNDTAVX2(m, k int, a []float64, lda int, d []float64, c []float64, ldc int) {
	panic(noAVX2)
}
