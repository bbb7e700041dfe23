package blas

import (
	"math"
	"testing"
)

// lrSplitmix64 drives the deterministic test data (no math/rand).
func lrSplitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func lrUnit(s *uint64) float64 {
	*s = lrSplitmix64(*s)
	return float64(int64(*s>>11))/float64(1<<52) - 1
}

func lrFill(n int, s *uint64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lrUnit(s)
	}
	return out
}

// lrDense materialises U·Vᵀ as a dense m×n column-major matrix.
func lrDense(m, n, r int, u, v []float64) []float64 {
	b := make([]float64, m*n)
	for j := 0; j < n; j++ {
		for k := 0; k < r; k++ {
			vjk := v[j+k*n]
			for i := 0; i < m; i++ {
				b[i+j*m] += u[i+k*m] * vjk
			}
		}
	}
	return b
}

func lrMaxDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		if e := math.Abs(a[i] - b[i]); e > d {
			d = e
		}
	}
	return d
}

// TestLRGemv checks both solve-application directions, over the whole
// output range, against the dense GemvN/GemvT on the materialised block.
func TestLRGemv(t *testing.T) {
	m, n, r := 37, 29, 5
	s := uint64(11)
	u, v := lrFill(m*r, &s), lrFill(n*r, &s)
	dense := lrDense(m, n, r, u, v)

	x := lrFill(n, &s)
	yLR := lrFill(m, &s)
	yRef := append([]float64(nil), yLR...)
	LRGemvNRows(m, n, r, 0, m, u, v, x, yLR)
	GemvN(m, n, dense, m, x, yRef)
	if d := lrMaxDiff(yLR, yRef); d > 1e-13 {
		t.Errorf("LRGemvNRows vs dense: max diff %g", d)
	}

	xt := lrFill(m, &s)
	ytLR := lrFill(n, &s)
	ytRef := append([]float64(nil), ytLR...)
	LRGemvTCols(m, n, r, 0, n, u, v, xt, ytLR)
	GemvT(m, n, dense, m, xt, ytRef)
	if d := lrMaxDiff(ytLR, ytRef); d > 1e-13 {
		t.Errorf("LRGemvTCols vs dense: max diff %g", d)
	}
}

// TestLRKernelsRankZero: rank-0 blocks are no-ops everywhere.
func TestLRKernelsRankZero(t *testing.T) {
	m, n := 9, 7
	s := uint64(61)
	y := lrFill(m, &s)
	want := append([]float64(nil), y...)
	LRGemvNRows(m, n, 0, 0, m, nil, nil, make([]float64, n), y)
	LRGemvTCols(n, m, 0, 0, m, nil, nil, make([]float64, n), y)
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("rank-0 kernel modified output at %d", i)
		}
	}
}

// TestLRGemvRanges checks the row- and column-range forms: over every split
// of the output into two ranges, the updated entries are bit-identical to
// the kernel over the whole range and the entries outside the range are untouched.
func TestLRGemvRanges(t *testing.T) {
	m, n, r := 13, 9, 3
	s := uint64(31)
	u, v := lrFill(m*r, &s), lrFill(n*r, &s)
	xn, xt := lrFill(n, &s), lrFill(m, &s)
	y0, yt0 := lrFill(m, &s), lrFill(n, &s)
	whole := append([]float64(nil), y0...)
	LRGemvNRows(m, n, r, 0, m, u, v, xn, whole)
	wholeT := append([]float64(nil), yt0...)
	LRGemvTCols(m, n, r, 0, n, u, v, xt, wholeT)
	check := func(name string, lo, hi int, got, ref, orig []float64) {
		t.Helper()
		for i := range got {
			want := orig[i]
			if i >= lo && i < hi {
				want = ref[i]
			}
			if got[i] != want {
				t.Fatalf("%s [%d,%d): entry %d = %x, want %x", name, lo, hi, i, got[i], want)
			}
		}
	}
	for cut := 0; cut <= m; cut++ {
		for _, rg := range [][2]int{{0, cut}, {cut, m}} {
			y := append([]float64(nil), y0...)
			LRGemvNRows(m, n, r, rg[0], rg[1], u, v, xn, y)
			check("LRGemvNRows", rg[0], rg[1], y, whole, y0)
		}
	}
	for cut := 0; cut <= n; cut++ {
		for _, rg := range [][2]int{{0, cut}, {cut, n}} {
			y := append([]float64(nil), yt0...)
			LRGemvTCols(m, n, r, rg[0], rg[1], u, v, xt, y)
			check("LRGemvTCols", rg[0], rg[1], y, wholeT, yt0)
		}
	}
}
