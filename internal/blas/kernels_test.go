package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The dispatched kernels (AVX2 where the CPU has it) are checked against
// the scalar Go references bit for bit. On a CPU without AVX2, or under the
// purego tag, both sides are the scalar code and the checks pass trivially.

// specials are the inputs the bitwise contract is most likely to break on:
// signed zeros (the zero-scale skips), infinities and NaN.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1}

// fuzzFill returns n values, normal deviates with every value replaced by a
// special with probability 1/every (never when every <= 0).
func fuzzFill(rng *rand.Rand, n, every int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if every > 0 && rng.Intn(every) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

func clone(v []float64) []float64 { return append([]float64(nil), v...) }

// checkDenseKernels runs every vectorised kernel against its scalar
// reference on one shape. Operands carry padding (leading dimensions above
// the row count, spare entries past the end) that both paths must leave
// untouched, so whole buffers are compared.
func checkDenseKernels(t *testing.T, m, n, k int, rng *rand.Rand, every int) {
	t.Helper()
	name := func(kernel string) string { return fmt.Sprintf("%s m=%d n=%d k=%d", kernel, m, n, k) }

	// Column sweep and dot-product solves on strided m×n panels (the
	// packed forms are these at lda == m).
	ld := m + rng.Intn(3)
	a := fuzzFill(rng, ld*n+3, every)
	x := fuzzFill(rng, n+2, every)
	y := fuzzFill(rng, m, every)
	y1, y2 := clone(y), clone(y)
	gemvNGo(m, n, a, ld, x, y1)
	GemvN(m, n, a, ld, x, y2)
	bitwiseEqual(t, name("GemvN"), y2, y1)

	xt := fuzzFill(rng, m+2, every)
	z := fuzzFill(rng, n+2, every)
	z1, z2 := clone(z), clone(z)
	gemvTGo(m, n, a, ld, xt, z1)
	GemvT(m, n, a, ld, xt, z2)
	bitwiseEqual(t, name("GemvT"), z2, z1)

	l := fuzzFill(rng, ld*m+1, every)
	v := fuzzFill(rng, m+1, every)
	v1, v2 := clone(v), clone(v)
	trsvLowerUnitGo(m, l, ld, v1)
	TrsvLowerUnit(m, l, ld, v2)
	bitwiseEqual(t, name("TrsvLowerUnit"), v2, v1)

	// The LDLᵀ off-diagonal solve X·Lᵀ = B, B m×n (ld), L n×n (lda below).
	tl := fuzzFill(rng, (n+1)*n+1, every)
	tb := fuzzFill(rng, ld*n+1, every)
	tb1, tb2 := clone(tb), clone(tb)
	trsmRightLTransUnitGo(m, n, tl, n+1, tb1, ld)
	TrsmRightLTransUnit(m, n, tl, n+1, tb2, ld)
	bitwiseEqual(t, name("TrsmRightLTransUnit"), tb2, tb1)

	// The factorization update on strided operands, C m×n, inner size k.
	lda, ldb, ldc := m+1+rng.Intn(3), n+rng.Intn(3), m+rng.Intn(3)
	ga := fuzzFill(rng, lda*k+1, every)
	gb := fuzzFill(rng, ldb*k+1, every)
	d := fuzzFill(rng, k+1, every)
	c := fuzzFill(rng, ldc*n+1, every)
	c1, c2 := clone(c), clone(c)
	gemmNDTGo(m, n, k, ga, lda, d, gb, ldb, c1, ldc)
	GemmNDT(m, n, k, ga, lda, d, gb, ldb, c2, ldc)
	bitwiseEqual(t, name("GemmNDT"), c2, c1)

	sc := fuzzFill(rng, lda*m+1, every)
	c1, c2 = clone(sc), clone(sc)
	syrkLowerNDTGo(m, k, ga, lda, d, c1, lda)
	SyrkLowerNDT(m, k, ga, lda, d, c2, lda)
	bitwiseEqual(t, name("SyrkLowerNDT"), c2, c1)
}

// checkCellKernels runs the cell kernels against their scalar references
// on one column block of width w with rb panel rows, stored with padding
// rows below the panel: whole, on a random row range (forward) or column
// range (backward), and split the way the engine splits a shared cell.
// Every split must give the bits of the whole call.
func checkCellKernels(t *testing.T, w, rb int, rng *rand.Rand, every int) {
	t.Helper()
	name := func(kernel string, lo, hi int, tri bool) string {
		return fmt.Sprintf("%s w=%d rb=%d [%d,%d) tri=%v", kernel, w, rb, lo, hi, tri)
	}
	lda := w + rb + rng.Intn(3)
	a := fuzzFill(rng, lda*w+2, every)
	x := fuzzFill(rng, w+2, every)
	x[rng.Intn(w)] = 0 // an exact zero the column sweeps must skip
	t0 := fuzzFill(rng, rb+2, every)
	g := fuzzFill(rng, rb+2, every)
	lo := rng.Intn(rb + 1)
	hi := lo + rng.Intn(rb-lo+1)
	for _, c := range []struct {
		lo, hi int
		tri    bool
	}{{0, rb, true}, {lo, hi, false}, {lo, hi, true}, {0, 0, true}} {
		x1, x2, t1, t2 := clone(x), clone(x), clone(t0), clone(t0)
		cellForwardGo(w, c.lo, c.hi, c.tri, a, lda, x1, t1)
		CellForward(w, c.lo, c.hi, c.tri, a, lda, x2, t2)
		bitwiseEqual(t, name("CellForward x", c.lo, c.hi, c.tri), x2, x1)
		bitwiseEqual(t, name("CellForward t", c.lo, c.hi, c.tri), t2, t1)
	}
	clo := rng.Intn(w + 1)
	chi := clo + rng.Intn(w-clo+1)
	for _, c := range []struct {
		lo, hi int
		tri    bool
	}{{0, w, true}, {clo, chi, false}, {clo, chi, true}, {0, 0, true}} {
		x1, x2 := clone(x), clone(x)
		cellBackwardGo(w, rb, c.lo, c.hi, c.tri, a, lda, g, x1)
		CellBackward(w, rb, c.lo, c.hi, c.tri, a, lda, g, x2)
		bitwiseEqual(t, name("CellBackward", c.lo, c.hi, c.tri), x2, x1)
	}

	// A split shared cell: the triangle, then the panel rows in two ranges
	// forward; two column ranges, then the triangle backward.
	xw, xs, tw, ts := clone(x), clone(x), clone(t0), clone(t0)
	CellForward(w, 0, rb, true, a, lda, xw, tw)
	CellForward(w, 0, 0, true, a, lda, xs, ts)
	CellForward(w, 0, lo, false, a, lda, xs, ts)
	CellForward(w, lo, rb, false, a, lda, xs, ts)
	bitwiseEqual(t, name("CellForward split x", 0, rb, true), xs, xw)
	bitwiseEqual(t, name("CellForward split t", 0, rb, true), ts, tw)
	xw, xs = clone(x), clone(x)
	CellBackward(w, rb, 0, w, true, a, lda, g, xw)
	CellBackward(w, rb, 0, clo, false, a, lda, g, xs)
	CellBackward(w, rb, clo, w, false, a, lda, g, xs)
	CellBackward(w, rb, 0, 0, true, a, lda, g, xs)
	bitwiseEqual(t, name("CellBackward split", 0, w, true), xs, xw)
}

// TestDenseKernelsMatchScalar sweeps every small shape (all ragged row and
// column tails of the 16-row, 8×4 and 4-column tiles), without and with
// special values, and the cell kernels on widths 1–37 over ragged panels.
func TestDenseKernelsMatchScalar(t *testing.T) {
	t.Logf("dense kernels: %s", KernelPath())
	rng := rand.New(rand.NewSource(5))
	for m := 0; m <= 37; m++ {
		for n := 0; n <= 13; n++ {
			checkDenseKernels(t, m, n, 1+(m+n)%7, rng, 0)
			checkDenseKernels(t, m, n, (m*n)%9, rng, 3)
			if m > 0 {
				checkCellKernels(t, m, 3*n+m%3, rng, 0)
				checkCellKernels(t, m, 3*n+m%3, rng, 3)
			}
		}
	}
}

// TestGemmNDTTiledMatchesPlain checks the cache-blocked update (row strips
// of gemmStripRows, 8×4 register tiles) against the plain scalar loop on
// shapes spanning several strips, with zero scales in d and B.
func TestGemmNDTTiledMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 12; trial++ {
		m := 1 + rng.Intn(300)
		n := 1 + rng.Intn(150)
		k := 1 + rng.Intn(80)
		lda, ldb, ldc := m+rng.Intn(4), n+rng.Intn(4), m+rng.Intn(4)
		a := randPanel(rng, m, k, lda)
		b := randPanel(rng, n, k, ldb)
		d := randVec(rng, k)
		c1 := randPanel(rng, m, n, ldc)
		c2 := clone(c1)
		gemmNDTGo(m, n, k, a, lda, d, b, ldb, c1, ldc)
		GemmNDT(m, n, k, a, lda, d, b, ldb, c2, ldc)
		bitwiseEqual(t, fmt.Sprintf("trial %d (m=%d n=%d k=%d)", trial, m, n, k), c2, c1)
	}
}

// TestGemmNDTAutoDispatch checks GemmNDTAuto bitwise against the scalar
// loop on a small and a cache-spilling shape.
func TestGemmNDTAutoDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, dims := range [][3]int{{8, 8, 8}, {128, 96, 64}, {261, 37, 45}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randPanel(rng, m, k, m)
		b := randPanel(rng, n, k, n)
		d := make([]float64, k)
		for i := range d {
			d[i] = 1 + rng.Float64()
		}
		c1 := randPanel(rng, m, n, m)
		c2 := clone(c1)
		gemmNDTGo(m, n, k, a, m, d, b, n, c1, m)
		GemmNDTAuto(m, n, k, a, m, d, b, n, c2, m)
		bitwiseEqual(t, fmt.Sprintf("dims %v", dims), c2, c1)
	}
}

// FuzzDenseKernels checks every vectorised kernel, the cell kernels
// included, against its scalar reference bit for bit on arbitrary shapes
// and operands, one entry in
// `every` on average replaced by a signed zero, an infinity, NaN or ±1.
func FuzzDenseKernels(f *testing.F) {
	f.Add(uint8(17), uint8(5), uint8(3), int64(1), uint8(0))
	f.Add(uint8(61), uint8(23), uint8(17), int64(2), uint8(4))
	f.Add(uint8(3), uint8(9), uint8(1), int64(3), uint8(2))
	f.Add(uint8(40), uint8(4), uint8(8), int64(4), uint8(1))
	f.Fuzz(func(t *testing.T, m, n, k uint8, seed int64, every uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkDenseKernels(t, int(m%70), int(n%30), int(k%40), rng, int(every%9))
		checkCellKernels(t, 1+int(n%40), int(m%70), rng, int(every%9))
	})
}

func BenchmarkGemmNDT(b *testing.B) {
	for _, sz := range []int{16, 64, 256} {
		a := make([]float64, sz*sz)
		bb := make([]float64, sz*sz)
		c := make([]float64, sz*sz)
		d := make([]float64, sz)
		for i := range a {
			a[i] = 1
			bb[i] = 1
		}
		for i := range d {
			d[i] = 1
		}
		flops := float64(2 * sz * sz * sz)
		b.Run(fmt.Sprintf("scalar/n%d", sz), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmNDTGo(sz, sz, sz, a, sz, d, bb, sz, c, sz)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
		b.Run(fmt.Sprintf("%s/n%d", KernelPath(), sz), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmNDT(sz, sz, sz, a, sz, d, bb, sz, c, sz)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

func BenchmarkGemvPacked(b *testing.B) {
	for _, sh := range [][2]int{{6, 3}, {24, 8}, {200, 40}} {
		m, n := sh[0], sh[1]
		a := make([]float64, m*n)
		for i := range a {
			a[i] = float64(i%7) - 3
		}
		x := make([]float64, max(m, n))
		y := make([]float64, max(m, n))
		for i := range x {
			x[i] = 1 / float64(i+1)
		}
		b.Run(fmt.Sprintf("scalar/%dx%d", m, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemvNGo(m, n, a, m, x, y[:m])
				gemvTGo(m, n, a, m, x, y)
			}
		})
		b.Run(fmt.Sprintf("%s/%dx%d", KernelPath(), m, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemvNPacked(m, n, a, x, y)
				GemvTPacked(m, n, a, x, y)
			}
		})
	}
}
