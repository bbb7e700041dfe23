package blas

import (
	"math"
	"math/rand"
	"testing"
)

// randPanel fills an m×n strided panel (lda) with deterministic values,
// injecting exact zeros of both signs so the kernels' skip branches and
// signed-zero results are exercised: the packed kernels must keep those
// skips to stay bitwise-equal.
func randPanel(rng *rand.Rand, m, n, lda int) []float64 {
	a := make([]float64, lda*n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a[i+j*lda] = randEntry(rng, 5)
		}
	}
	return a
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = randEntry(rng, 6)
	}
	return x
}

// randEntry is a normal deviate, or with probability 1/zeroEvery a zero
// whose sign is random.
func randEntry(rng *rand.Rand, zeroEvery int) float64 {
	if rng.Intn(zeroEvery) == 0 {
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	return rng.NormFloat64()
}

// bitwiseEqual fails unless got and want hold the same bit patterns, so a
// −0 against +0 is a mismatch. The one exception is NaN: any NaN matches
// any NaN, because which operand's payload and sign a NaN result carries
// follows the operand order the compiler picks for the scalar code, which
// Go leaves open (coverage instrumentation alone changes it).
func bitwiseEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		g, w := math.Float64bits(got[i]), math.Float64bits(want[i])
		if g != w && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: elem %d = %x (%#016x), want %x (%#016x) (not bit-identical)", name, i, got[i], g, want[i], w)
		}
	}
}

// TestPackedKernelsBitwise proves every packed kernel bitwise-equal to its
// strided counterpart over random shapes, including empty dimensions, and
// that GemvN on a row range or GemvT on a column range of a packed panel
// gives each entry in the range the bits of the whole call.
func TestPackedKernelsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][2]int{{1, 1}, {3, 2}, {8, 8}, {17, 5}, {5, 17}, {32, 1}, {1, 32}, {0, 4}, {4, 0}}
	for _, sh := range shapes {
		m, n := sh[0], sh[1]
		lda := m + 3
		a := randPanel(rng, m, n, lda)
		pa := make([]float64, m*n)
		PackPanel(m, n, a, lda, pa)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if pa[i+j*m] != a[i+j*lda] {
					t.Fatalf("PackPanel(%dx%d): (%d,%d) differs", m, n, i, j)
				}
			}
		}

		x := randVec(rng, n)
		y1 := randVec(rng, m)
		y2 := append([]float64(nil), y1...)
		GemvN(m, n, a, lda, x, y1)
		GemvNPacked(m, n, pa, x, y2)
		bitwiseEqual(t, "GemvNPacked", y2, y1)

		xv := randVec(rng, m)
		z1 := randVec(rng, n)
		z2 := append([]float64(nil), z1...)
		GemvT(m, n, a, lda, xv, z1)
		GemvTPacked(m, n, pa, xv, z2)
		bitwiseEqual(t, "GemvTPacked", z2, z1)

		// Row and column ranges of the packed panel, as the solve engine
		// calls them to split a cell across workers: every entry in the range
		// gets the bits of the whole call, and nothing outside it changes.
		check := func(name string, lo, hi int, got, whole, orig []float64) {
			t.Helper()
			for i := range got {
				want := orig[i]
				if i >= lo && i < hi {
					want = whole[i]
				}
				if got[i] != want {
					t.Fatalf("%s [%d,%d) of %dx%d: entry %d = %x, want %x", name, lo, hi, m, n, i, got[i], want)
				}
			}
		}
		for lo := 0; lo <= m; lo++ {
			for hi := lo; hi <= m; hi++ {
				y0 := randVec(rng, m)
				whole := append([]float64(nil), y0...)
				GemvNPacked(m, n, pa, x, whole)
				part := append([]float64(nil), y0...)
				GemvN(hi-lo, n, pa[min(lo, len(pa)):], m, x, part[lo:hi])
				check("GemvN rows", lo, hi, part, whole, y0)
			}
		}
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				z0 := randVec(rng, n)
				whole := append([]float64(nil), z0...)
				GemvTPacked(m, n, pa, xv, whole)
				part := append([]float64(nil), z0...)
				GemvT(m, hi-lo, pa[lo*m:], m, xv, part[lo:hi])
				check("GemvT columns", lo, hi, part, whole, z0)
			}
		}
	}
}

// TestPackedTriangularBitwise checks the triangular solves give a packed
// unit-lower operand (ld == n, as a compressed factor stores its diagonal
// blocks) the bits of a strided one.
func TestPackedTriangularBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 16, 33} {
		ld := n + 4
		l := randPanel(rng, n, n, ld)
		pl := make([]float64, n*n)
		PackPanel(n, n, l, ld, pl)

		x1 := randVec(rng, n)
		x2 := append([]float64(nil), x1...)
		TrsvLowerUnit(n, l, ld, x1)
		TrsvLowerUnit(n, pl, n, x2)
		bitwiseEqual(t, "TrsvLowerUnit packed", x2, x1)

		x1 = randVec(rng, n)
		x2 = append([]float64(nil), x1...)
		TrsvLowerTransUnit(n, l, ld, x1)
		TrsvLowerTransUnit(n, pl, n, x2)
		bitwiseEqual(t, "TrsvLowerTransUnit packed", x2, x1)
	}
}
