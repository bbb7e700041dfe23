package sparse

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// Fuzz targets for the two file parsers: arbitrary input must never panic,
// and anything that parses must satisfy the matrix invariants.

// FuzzReadMatrixMarket runs the reader for both value types on each input:
// at most one accepts it (the header names one), and what it accepts is
// valid.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 2.0\n2 2 2.0\n2 1 -1.0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n1 1 1\n1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate complex symmetric\n2 2 3\n1 1 2 1\n2 2 2 -1\n2 1 -1 0.5\n")
	f.Add("%%MatrixMarket matrix coordinate complex general\n2 2 2\n2 1 1 1\n1 2 1 1\n")
	f.Add("garbage")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n-1 -1 -1\n")
	f.Fuzz(func(t *testing.T, in string) {
		a, err := ReadMatrixMarket(strings.NewReader(in))
		if err == nil {
			if err := a.Validate(); err != nil {
				t.Fatalf("parsed matrix violates invariants: %v", err)
			}
		}
		z, zerr := ReadMatrixMarketComplex(strings.NewReader(in))
		if zerr == nil {
			if err == nil {
				t.Fatal("both value types accepted one header")
			}
			if err := z.Validate(); err != nil {
				t.Fatalf("parsed complex matrix violates invariants: %v", err)
			}
		}
	})
}

func FuzzReadHB(f *testing.F) {
	var buf bytes.Buffer
	b := NewBuilder(3)
	b.Add(0, 0, 2)
	b.Add(1, 0, -1)
	b.Add(1, 1, 2)
	b.Add(2, 2, 1)
	_ = WriteHB(&buf, b.Build(), "seed")
	f.Add(buf.String())
	f.Add("short")
	f.Add("title\n 1 1 1 1\nRSA 2 2 2 0\n(1I8) (1I8) (1E10.3)\n")
	f.Fuzz(func(t *testing.T, in string) {
		a, _, err := ReadHB(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("parsed HB matrix violates invariants: %v", err)
		}
	})
}

// FuzzCSR feeds raw bytes decoded as a CSC skeleton straight into the matrix
// invariants and the pattern-level helpers, for both value types: Validate
// must reject (never panic on) arbitrary structure, and anything it accepts
// must survive fingerprinting, adjacency extraction, the norms and a
// mat-vec.
func FuzzCSR(f *testing.F) {
	f.Add([]byte{2, 0, 2, 3, 0, 1, 1, 10, 20, 30})
	f.Add([]byte{1, 0, 1, 0, 5})
	f.Add([]byte{3, 0, 2, 1, 9})
	f.Add([]byte{3, 0, 4, 3, 3, 0, 1, 1, 1, 2, 1}) // column 0 runs past the entries
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0] % 8)
		data = data[1:]
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(int8(data[0]))
			data = data[1:]
			return v
		}
		a := &SymMatrix{N: n, ColPtr: make([]int, n+1)}
		for i := range a.ColPtr {
			a.ColPtr[i] = next()
		}
		nnz := 0
		if n > 0 && a.ColPtr[n] >= 0 && a.ColPtr[n] <= 64 {
			nnz = a.ColPtr[n]
		}
		a.RowIdx = make([]int, nnz)
		a.Val = make([]float64, nnz)
		z := &ZSymMatrix{N: n, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: make([]complex128, nnz)}
		for i := 0; i < nnz; i++ {
			a.RowIdx[i] = next()
			a.Val[i] = float64(next())
			z.Val[i] = complex(a.Val[i], -a.Val[i]/2)
		}
		checkCSR(t, a)
		checkCSR(t, z)
	})
}

// checkCSR runs FuzzCSR's checks on one matrix.
func checkCSR[T Scalar](t *testing.T, a *Sym[T]) {
	if err := a.Validate(); err != nil {
		return
	}
	if a.PatternFingerprint() == "" {
		t.Fatal("empty fingerprint for a valid matrix")
	}
	ptr, adj := a.AdjacencyCSR()
	if len(ptr) != a.N+1 || len(adj) != ptr[a.N] {
		t.Fatalf("adjacency inconsistent: %d ptrs, %d adj", len(ptr), len(adj))
	}
	if n1, mx := a.Norm1(), a.NormMax(); n1 < mx {
		t.Fatalf("‖A‖₁ = %g < ‖A‖_max = %g", n1, mx)
	}
	x := make([]T, a.N)
	y := make([]T, a.N)
	for i := range x {
		x[i] = 1
	}
	a.MatVec(x, y)
}

// FuzzBuilder checks the counting-sort Builder against the map-based
// reference: random triplets in both triangles, with duplicates, signed
// zeros and non-finite values, must give the same ColPtr and RowIdx and the
// same Val bits.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 1, 0, 2, 0, 1, 3, 3, 3, 4, 2, 1, 5, 1, 2, 6})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{9, 8, 0, 255, 0, 8, 7, 8, 0, 128, 3, 3, 130})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%24
		got, want := NewBuilder(n), newRefBuilder(n)
		specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 1e-300, -2.5}
		for k := 1; k+2 < len(data); k += 3 {
			i, j := int(data[k])%n, int(data[k+1])%n
			v := float64(int(data[k+2])-128) / 7
			if data[k+2]%16 == 0 {
				v = specials[int(data[k+2]/16)%len(specials)]
			}
			got.Add(i, j, v)
			want.Add(i, j, v)
		}
		a, r := got.Build(), want.Build()
		if !slices.Equal(a.ColPtr, r.ColPtr) || !slices.Equal(a.RowIdx, r.RowIdx) {
			t.Fatalf("structure %v %v, reference %v %v", a.ColPtr, a.RowIdx, r.ColPtr, r.RowIdx)
		}
		for p := range r.Val {
			if math.Float64bits(a.Val[p]) != math.Float64bits(r.Val[p]) {
				t.Fatalf("Val[%d] = %v, reference %v", p, a.Val[p], r.Val[p])
			}
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
