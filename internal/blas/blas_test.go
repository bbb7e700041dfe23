package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, m, n, ld int) []float64 {
	a := make([]float64, ld*n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			a[i+j*ld] = rng.NormFloat64()
		}
	}
	return a
}

// randSPD returns a random SPD matrix (lower triangle meaningful).
func randSPD(rng *rand.Rand, n, ld int) []float64 {
	a := make([]float64, ld*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64() * 0.3
			a[i+j*ld] = v
			a[j+i*ld] = v
		}
		a[i+i*ld] = float64(n) + rng.Float64()
	}
	return a
}

func maxDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestGemmNDTAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		m, n, k := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a := randMat(rng, m, k, m)
		b := randMat(rng, n, k, n)
		c := randMat(rng, m, n, m)
		d := make([]float64, k)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		want := append([]float64(nil), c...)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for l := 0; l < k; l++ {
					s += a[i+l*m] * d[l] * b[j+l*n]
				}
				want[i+j*m] -= s
			}
		}
		GemmNDT(m, n, k, a, m, d, b, n, c, m)
		if diff := maxDiff(c, want); diff > 1e-12 {
			t.Fatalf("trial %d: diff %g", trial, diff)
		}
	}
}

func TestSyrkLowerNT(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, k := 8, 5
	a := randMat(rng, m, k, m)
	c := randMat(rng, m, m, m)
	want := append([]float64(nil), c...)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += a[i+l*m] * a[j+l*m]
			}
			want[i+j*m] -= s
		}
	}
	SyrkLowerNT(m, k, a, m, c, m)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(c[i+j*m]-want[i+j*m]) > 1e-12 {
				t.Fatalf("(%d,%d)", i, j)
			}
		}
	}
}

func TestSyrkLowerNDT(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m, k := 7, 4
	a := randMat(rng, m, k, m)
	d := make([]float64, k)
	for i := range d {
		d[i] = 1 + rng.Float64()
	}
	c := randMat(rng, m, m, m)
	want := append([]float64(nil), c...)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += a[i+l*m] * d[l] * a[j+l*m]
			}
			want[i+j*m] -= s
		}
	}
	SyrkLowerNDT(m, k, a, m, d, c, m)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(c[i+j*m]-want[i+j*m]) > 1e-12 {
				t.Fatalf("(%d,%d)", i, j)
			}
		}
	}
}

func TestCholeskyReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(30)
		ld := n + rng.Intn(2)
		a := randSPD(rng, n, ld)
		orig := append([]float64(nil), a...)
		if err := Cholesky(n, a, ld); err != nil {
			t.Fatal(err)
		}
		// Check L·Lᵀ == orig (lower triangle).
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s := 0.0
				for k := 0; k <= j; k++ {
					s += a[i+k*ld] * a[j+k*ld]
				}
				if math.Abs(s-orig[i+j*ld]) > 1e-9 {
					t.Fatalf("trial %d: (%d,%d) %g vs %g", trial, i, j, s, orig[i+j*ld])
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := []float64{1, 2, 2, 1} // indefinite 2x2
	if err := Cholesky(2, a, 2); err == nil {
		t.Fatal("expected failure")
	}
}

func TestLDLTReconstruct(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(30)
		ld := n
		a := randSPD(rng, n, ld)
		// Make it indefinite sometimes (LDLᵀ without pivoting still works for
		// strongly diagonally dominant symmetric matrices of either sign).
		if trial%2 == 1 {
			for i := 0; i < n; i++ {
				a[i+i*ld] = -a[i+i*ld]
			}
		}
		orig := append([]float64(nil), a...)
		if err := LDLT(n, a, ld); err != nil {
			t.Fatal(err)
		}
		// Reconstruct: (L D Lᵀ)_ij = Σ_k l_ik d_k l_jk with l_kk = 1.
		lval := func(i, k int) float64 {
			if i == k {
				return 1
			}
			return a[i+k*ld]
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s := 0.0
				for k := 0; k <= j; k++ {
					s += lval(i, k) * a[k+k*ld] * lval(j, k)
				}
				if math.Abs(s-orig[i+j*ld]) > 1e-8*(1+math.Abs(orig[i+j*ld])) {
					t.Fatalf("trial %d: (%d,%d) %g vs %g", trial, i, j, s, orig[i+j*ld])
				}
			}
		}
	}
}

func TestTrsmRightLTransUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	m, n := 6, 5
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		l[j+j*n] = 1
		for i := j + 1; i < n; i++ {
			l[i+j*n] = rng.NormFloat64() * 0.5
		}
	}
	x := randMat(rng, m, n, m)
	b := make([]float64, m*n)
	// b = x · Lᵀ
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				lv := l[j+k*n]
				s += x[i+k*m] * lv
			}
			b[i+j*m] = s
		}
	}
	TrsmRightLTransUnit(m, n, l, n, b, m)
	if d := maxDiff(b, x); d > 1e-10 {
		t.Fatalf("diff %g", d)
	}
}

func TestTrsmRightLTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	m, n := 4, 6
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		l[j+j*n] = 2 + rng.Float64()
		for i := j + 1; i < n; i++ {
			l[i+j*n] = rng.NormFloat64() * 0.5
		}
	}
	x := randMat(rng, m, n, m)
	b := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += x[i+k*m] * l[j+k*n]
			}
			b[i+j*m] = s
		}
	}
	TrsmRightLTrans(m, n, l, n, b, m)
	if d := maxDiff(b, x); d > 1e-10 {
		t.Fatalf("diff %g", d)
	}
}

func TestTriangularVectorSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 12
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		l[j+j*n] = 2 + rng.Float64()
		for i := j + 1; i < n; i++ {
			l[i+j*n] = rng.NormFloat64() * 0.3
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// Explicit-diagonal forward: b = L x.
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j <= i; j++ {
			s += l[i+j*n] * x[j]
		}
		b[i] = s
	}
	got := append([]float64(nil), b...)
	TrsvLower(n, l, n, got)
	if d := maxDiff(got, x); d > 1e-10 {
		t.Fatalf("TrsvLower diff %g", d)
	}
	// Explicit-diagonal backward: b = Lᵀ x.
	for i := 0; i < n; i++ {
		s := 0.0
		for j := i; j < n; j++ {
			s += l[j+i*n] * x[j]
		}
		b[i] = s
	}
	got = append(got[:0], b...)
	TrsvLowerTrans(n, l, n, got)
	if d := maxDiff(got, x); d > 1e-10 {
		t.Fatalf("TrsvLowerTrans diff %g", d)
	}
	// Unit variants.
	for i := 0; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s += l[i+j*n] * x[j]
		}
		b[i] = s
	}
	got = append(got[:0], b...)
	TrsvLowerUnit(n, l, n, got)
	if d := maxDiff(got, x); d > 1e-10 {
		t.Fatalf("TrsvLowerUnit diff %g", d)
	}
	for i := 0; i < n; i++ {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s += l[j+i*n] * x[j]
		}
		b[i] = s
	}
	got = append(got[:0], b...)
	TrsvLowerTransUnit(n, l, n, got)
	if d := maxDiff(got, x); d > 1e-10 {
		t.Fatalf("TrsvLowerTransUnit diff %g", d)
	}
}

func TestGemv(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	m, n := 7, 5
	a := randMat(rng, m, n, m)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, m)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	want := append([]float64(nil), y...)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want[i] -= a[i+j*m] * x[j]
		}
	}
	GemvN(m, n, a, m, x, y)
	if d := maxDiff(y, want); d > 1e-12 {
		t.Fatalf("GemvN diff %g", d)
	}
	xm := make([]float64, m)
	for i := range xm {
		xm[i] = rng.NormFloat64()
	}
	yn := make([]float64, n)
	wantN := append([]float64(nil), yn...)
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i < m; i++ {
			s += a[i+j*m] * xm[i]
		}
		wantN[j] -= s
	}
	GemvT(m, n, a, m, xm, yn)
	if d := maxDiff(yn, wantN); d > 1e-12 {
		t.Fatalf("GemvT diff %g", d)
	}
}

func TestScaleColumns(t *testing.T) {
	b := []float64{2, 4, 6, 9}
	ScaleColumns(2, 2, b, 2, []float64{2, 3})
	want := []float64{1, 2, 2, 3}
	if maxDiff(b, want) != 0 {
		t.Fatalf("%v", b)
	}
}

// Property: for diagonally dominant symmetric matrices, solve(L D Lᵀ, b)
// composed from our kernels reproduces b's preimage.
func TestQuickLDLTSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		a := randSPD(rng, n, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		bvec := make([]float64, n)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += a[i+j*n] * x[j]
			}
			bvec[i] = s
		}
		if err := LDLT(n, a, n); err != nil {
			return false
		}
		TrsvLowerUnit(n, a, n, bvec)
		for i := 0; i < n; i++ {
			bvec[i] /= a[i+i*n]
		}
		TrsvLowerTransUnit(n, a, n, bvec)
		for i := range x {
			if math.Abs(bvec[i]-x[i]) > 1e-7*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
