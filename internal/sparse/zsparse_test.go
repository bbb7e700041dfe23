package sparse

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func zRandomSym(rng *rand.Rand, n int, density float64) *ZSymMatrix {
	b := NewZBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, complex(float64(n), float64(n)/3))
		for j := 0; j < i; j++ {
			if rng.Float64() < density {
				b.Add(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
	}
	return b.Build()
}

func TestZBuilderBasics(t *testing.T) {
	b := NewZBuilder(3)
	b.Add(0, 0, 2+1i)
	b.Add(1, 0, -1i)
	b.Add(0, 1, -1i) // symmetric duplicate sums
	a := b.Build()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 0) != -2i || a.At(0, 1) != -2i {
		t.Fatalf("At: %v / %v", a.At(1, 0), a.At(0, 1))
	}
	if a.At(2, 2) != 0 {
		t.Fatal("implicit diagonal should be zero")
	}
	if a.NNZ() != 4 { // (0,0), (1,0), plus zero diagonals 1 and 2
		t.Fatalf("NNZ=%d", a.NNZ())
	}
}

func TestZBuilderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewZBuilder(2).Add(0, 7, 1)
}

func TestZMatVecAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	a := zRandomSym(rng, 14, 0.3)
	x := make([]complex128, a.N)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := make([]complex128, a.N)
	a.MatVec(x, y)
	for i := 0; i < a.N; i++ {
		var want complex128
		for j := 0; j < a.N; j++ {
			want += a.At(i, j) * x[j]
		}
		if cmplx.Abs(y[i]-want) > 1e-12*(1+cmplx.Abs(want)) {
			t.Fatalf("y[%d]=%v want %v", i, y[i], want)
		}
	}
}

func TestZPermuteRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := zRandomSym(rng, n, 0.4)
		perm := rng.Perm(n)
		p := a.Permute(perm)
		if err := p.Validate(); err != nil {
			return false
		}
		for newI := 0; newI < n; newI++ {
			for newJ := 0; newJ <= newI; newJ++ {
				if p.At(newI, newJ) != a.At(perm[newI], perm[newJ]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestZPatternIsSPDSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	a := zRandomSym(rng, 12, 0.3)
	p := a.Pattern()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.N != a.N || p.NNZ() != a.NNZ() {
		t.Fatal("pattern shape mismatch")
	}
	// Strict diagonal dominance of the pattern.
	rowAbs := make([]float64, p.N)
	for j := 0; j < p.N; j++ {
		for q := p.ColPtr[j] + 1; q < p.ColPtr[j+1]; q++ {
			rowAbs[p.RowIdx[q]]++
			rowAbs[j]++
		}
	}
	for j := 0; j < p.N; j++ {
		if p.Val[p.ColPtr[j]] <= rowAbs[j] {
			t.Fatalf("pattern diagonal %d not dominant", j)
		}
	}
}

func TestZResidualZeroForExact(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	a := zRandomSym(rng, 10, 0.4)
	x := make([]complex128, a.N)
	for i := range x {
		x[i] = complex(float64(i), 1)
	}
	b := make([]complex128, a.N)
	a.MatVec(x, b)
	if r := Residual(a, x, b); r > 1e-15 {
		t.Fatalf("residual %g", r)
	}
	// Perturbed solution has a visible residual.
	x[0] += 1
	if r := Residual(a, x, b); r <= 1e-15 {
		t.Fatalf("perturbation invisible: %g", r)
	}
}

func TestZValidateCatchesMalformed(t *testing.T) {
	bad := &ZSymMatrix{N: 2, ColPtr: []int{0, 1, 2}, RowIdx: []int{1, 1}, Val: []complex128{1, 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("missing diagonal accepted")
	}
	bad2 := &ZSymMatrix{N: 1, ColPtr: []int{0, 2}, RowIdx: []int{0}, Val: []complex128{1}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("inconsistent arrays accepted")
	}
}

func TestDiagCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	a := randomSym(rng, 6, 0.5)
	d := a.Diag()
	if len(d) != 6 {
		t.Fatal("diag length")
	}
	for j := 0; j < 6; j++ {
		if d[j] != a.At(j, j) {
			t.Fatalf("diag[%d]", j)
		}
	}
	d[0] = 12345
	if a.At(0, 0) == 12345 {
		t.Fatal("Diag must return a copy")
	}
}

// A column pointer past the stored entries is an error from the complex
// Validate as from the real one, not an index panic.
func TestZValidateColPtrOutOfRange(t *testing.T) {
	a := &ZSymMatrix{N: 3, ColPtr: []int{0, 4, 3, 3}, RowIdx: []int{0, 1, 2}, Val: make([]complex128, 3)}
	if err := a.Validate(); err == nil {
		t.Fatal("out-of-range column pointer accepted")
	}
	if err := (&ZSymMatrix{N: -1}).Validate(); err == nil {
		t.Fatal("negative order accepted")
	}
}
