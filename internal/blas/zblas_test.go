package blas

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// zk is the complex kernel table the factorization core calls.
var zk = KernelsOf[complex128]()

func zRandMat(rng *rand.Rand, m, n, ld int) []complex128 {
	a := make([]complex128, ld*n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a[i+j*ld] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return a
}

// zRandSymDominant returns a complex symmetric matrix with dominant
// diagonal (stable for unpivoted LDLᵀ).
func zRandSymDominant(rng *rand.Rand, n, ld int) []complex128 {
	a := make([]complex128, ld*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64()) * 0.3
			a[i+j*ld] = v
			a[j+i*ld] = v
		}
		a[i+i*ld] = complex(float64(n), float64(n)/2)
	}
	return a
}

func zMaxDiff(a, b []complex128) float64 {
	d := 0.0
	for i := range a {
		if v := cmplx.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestZGemmNDTAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 15; trial++ {
		m, n, k := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a := zRandMat(rng, m, k, m)
		b := zRandMat(rng, n, k, n)
		c := zRandMat(rng, m, n, m)
		d := make([]complex128, k)
		for i := range d {
			d[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := append([]complex128(nil), c...)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s complex128
				for l := 0; l < k; l++ {
					s += a[i+l*m] * d[l] * b[j+l*n] // plain transpose, no conj
				}
				want[i+j*m] -= s
			}
		}
		zk.GemmNDT(m, n, k, a, m, d, b, n, c, m)
		if diff := zMaxDiff(c, want); diff > 1e-12 {
			t.Fatalf("trial %d: diff %g", trial, diff)
		}
	}
}

func TestZSyrkLowerNDT(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	m, k := 7, 4
	a := zRandMat(rng, m, k, m)
	d := make([]complex128, k)
	for i := range d {
		d[i] = complex(1+rng.Float64(), rng.Float64())
	}
	c := zRandMat(rng, m, m, m)
	want := append([]complex128(nil), c...)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			var s complex128
			for l := 0; l < k; l++ {
				s += a[i+l*m] * d[l] * a[j+l*m]
			}
			want[i+j*m] -= s
		}
	}
	zk.SyrkLowerNDT(m, k, a, m, d, c, m)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			if cmplx.Abs(c[i+j*m]-want[i+j*m]) > 1e-12 {
				t.Fatalf("(%d,%d)", i, j)
			}
		}
	}
}

func TestZLDLTReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(20)
		a := zRandSymDominant(rng, n, n)
		orig := append([]complex128(nil), a...)
		if err := LDLT(n, a, n); err != nil {
			t.Fatal(err)
		}
		lval := func(i, k int) complex128 {
			if i == k {
				return 1
			}
			return a[i+k*n]
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				var s complex128
				for k := 0; k <= j; k++ {
					s += lval(i, k) * a[k+k*n] * lval(j, k)
				}
				if cmplx.Abs(s-orig[i+j*n]) > 1e-8*(1+cmplx.Abs(orig[i+j*n])) {
					t.Fatalf("trial %d (%d,%d): %v vs %v", trial, i, j, s, orig[i+j*n])
				}
			}
		}
	}
}

// A zero pivot, and a pivot with NaN in either part (cmplx.IsNaN is false
// when the other part is infinite), must error.
func TestZLDLTZeroPivot(t *testing.T) {
	for _, p := range []complex128{0, complex(math.Inf(1), math.NaN()), complex(math.NaN(), math.Inf(-1))} {
		a := []complex128{p, 1, 1, 2}
		if err := LDLT(2, a, 2); err == nil {
			t.Fatalf("pivot %v: expected pivot error", p)
		}
	}
}

func TestZTrsmRightLTransUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	m, n := 5, 6
	l := make([]complex128, n*n)
	for j := 0; j < n; j++ {
		l[j+j*n] = 1
		for i := j + 1; i < n; i++ {
			l[i+j*n] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.4
		}
	}
	x := zRandMat(rng, m, n, m)
	b := make([]complex128, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s complex128
			for k := 0; k <= j; k++ {
				s += x[i+k*m] * l[j+k*n]
			}
			b[i+j*m] = s
		}
	}
	zk.TrsmRightLTransUnit(m, n, l, n, b, m)
	if d := zMaxDiff(b, x); d > 1e-10 {
		t.Fatalf("diff %g", d)
	}
}

func TestQuickZSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(18)
		a := zRandSymDominant(rng, n, n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			var s complex128
			for j := 0; j < n; j++ {
				s += a[i+j*n] * x[j]
			}
			b[i] = s
		}
		if err := LDLT(n, a, n); err != nil {
			return false
		}
		trsvLowerUnitGo(n, a, n, b)
		for i := 0; i < n; i++ {
			b[i] /= a[i+i*n]
		}
		TrsvLowerTransUnit(n, a, n, b)
		for i := range x {
			if cmplx.Abs(b[i]-x[i]) > 1e-7*(1+cmplx.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestZGemv(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	m, n := 6, 4
	a := zRandMat(rng, m, n, m)
	x := make([]complex128, n)
	xm := make([]complex128, m)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 1)
	}
	for i := range xm {
		xm[i] = complex(1, rng.NormFloat64())
	}
	y := make([]complex128, m)
	want := make([]complex128, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want[i] -= a[i+j*m] * x[j]
		}
	}
	gemvNGo(m, n, a, m, x, y)
	if d := zMaxDiff(y, want); d > 1e-12 {
		t.Fatalf("ZGemvN diff %g", d)
	}
	yn := make([]complex128, n)
	wantN := make([]complex128, n)
	for j := 0; j < n; j++ {
		var s complex128
		for i := 0; i < m; i++ {
			s += a[i+j*m] * xm[i]
		}
		wantN[j] -= s
	}
	gemvTGo(m, n, a, m, xm, yn)
	if d := zMaxDiff(yn, wantN); d > 1e-12 {
		t.Fatalf("ZGemvT diff %g", d)
	}
}

func TestZScaleColumns(t *testing.T) {
	b := []complex128{2, 4, 6i, 9i}
	ScaleColumns(2, 2, b, 2, []complex128{2, 3i})
	want := []complex128{1, 2, 2, 3}
	if zMaxDiff(b, want) > 1e-15 {
		t.Fatalf("%v", b)
	}
}
