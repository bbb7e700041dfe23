package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/sparse"
)

// denseSchur computes S = A_ss − A_si·A_ii⁻¹·A_is by dense elimination of
// the interior unknowns (oracle).
func denseSchur(t *testing.T, a [][]float64, schur []int) []float64 {
	t.Helper()
	n := len(a)
	isSchur := make([]bool, n)
	for _, v := range schur {
		isSchur[v] = true
	}
	// Dense copy, eliminate interior pivots in index order.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	for k := 0; k < n; k++ {
		if isSchur[k] {
			continue
		}
		piv := m[k][k]
		for i := 0; i < n; i++ {
			if i == k || (!isSchur[i] && i < k) || m[i][k] == 0 {
				continue
			}
			r := m[i][k] / piv
			for j := 0; j < n; j++ {
				m[i][j] -= r * m[k][j]
			}
		}
	}
	ns := len(schur)
	s := make([]float64, ns*ns)
	for i, gi := range schur {
		for j, gj := range schur {
			s[i+j*ns] = m[gi][gj]
		}
	}
	return s
}

func TestSchurAgainstDenseOracle(t *testing.T) {
	a := laplacian2D(9, 9)
	// Schur set: the middle grid column (a natural interface).
	var schurVars []int
	for j := 0; j < 9; j++ {
		schurVars = append(schurVars, 4+j*9)
	}
	san, err := AnalyzeSchur(a, schurVars, Options{
		Ordering: order.Options{Method: order.ScotchLike, LeafSize: 20},
		Part:     part.Options{BlockSize: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, s, err := san.FactorizeSchur()
	if err != nil {
		t.Fatal(err)
	}
	ns := len(schurVars)
	if len(s) != ns*ns {
		t.Fatalf("schur size %d", len(s))
	}
	// Dense oracle over the ORIGINAL matrix with the ordered Schur list.
	dense := make([][]float64, a.N)
	flat := a.Dense()
	for i := range dense {
		dense[i] = flat[i*a.N : (i+1)*a.N]
	}
	want := denseSchur(t, dense, san.SchurVars)
	for i := range s {
		if math.Abs(s[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("S[%d]=%g want %g", i, s[i], want[i])
		}
	}
	// S must be SPD for an SPD A: factor it densely.
	sc := append([]float64(nil), s...)
	if err := blas.Cholesky(ns, sc, ns); err != nil {
		t.Fatalf("schur complement not SPD: %v", err)
	}
}

func TestSchurErrors(t *testing.T) {
	a := laplacian2D(4, 4)
	if _, err := AnalyzeSchur(a, nil, Options{}); err == nil {
		t.Fatal("empty schur set must error")
	}
	if _, err := AnalyzeSchur(a, []int{99}, Options{}); err == nil {
		t.Fatal("out of range must error")
	}
	if _, err := AnalyzeSchur(a, []int{1, 1}, Options{}); err == nil {
		t.Fatal("duplicate must error")
	}
	all := make([]int, a.N)
	for i := range all {
		all[i] = i
	}
	if _, err := AnalyzeSchur(a, all, Options{}); err == nil {
		t.Fatal("full set must error")
	}
}

func TestSchurVarsOrderMatchesMatrix(t *testing.T) {
	a := laplacian2D(6, 6)
	schurVars := []int{35, 3, 17} // unsorted on purpose
	san, err := AnalyzeSchur(a, schurVars, Options{Ordering: order.Options{LeafSize: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(san.SchurVars) != 3 {
		t.Fatal("schur vars lost")
	}
	seen := map[int]bool{}
	for _, v := range san.SchurVars {
		seen[v] = true
	}
	for _, v := range schurVars {
		if !seen[v] {
			t.Fatalf("schur var %d missing from result order", v)
		}
	}
}

// TestSchurPinned pins the bits of S and the order of its unknowns on the
// Schur test matrices: digests recorded before AnalyzeSchur went through
// the common analysis pipeline and FactorizeSchur through the sequential
// elimination loop.
func TestSchurPinned(t *testing.T) {
	middle := func(nx int) []int {
		var v []int
		for j := 0; j < nx; j++ {
			v = append(v, nx/2+j*nx)
		}
		return v
	}
	for _, c := range []struct {
		name   string
		nx     int
		vars   []int
		opts   Options
		digest string
	}{
		{"9x9-middle", 9, middle(9), Options{}, "e86aad01046ba94c5139951c2517a7a1b78a7ac865398e73e3272aaa4f6bd218"},
		{"9x9-middle-leaf20-bs12", 9, middle(9), Options{
			Ordering: order.Options{Method: order.ScotchLike, LeafSize: 20},
			Part:     part.Options{BlockSize: 12},
		}, "cbf0231ab6ccc5621c05e7c6d4d9930175f33c424c2cd1086d072023a0ec8e08"},
		{"6x6-unsorted", 6, []int{35, 3, 17}, Options{}, "21ae54b33743167d1e035d8fc00c110949d82556e9527d86943b1ad646e7e60c"},
	} {
		san, err := AnalyzeSchur(laplacian2D(c.nx, c.nx), c.vars, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, s, err := san.FactorizeSchur()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		var buf [8]byte
		for _, v := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		for _, v := range san.SchurVars {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
			t.Errorf("%s: S digest %s, want %s", c.name, got, c.digest)
		}
	}
}

// Schur unknowns in separate subtrees of the elimination tree stay last
// through the postorder: on two disconnected 4-vertex chains, every Schur
// set (one unknown in each chain among them) gives the dense oracle's S.
func TestSchurSeparateSubtrees(t *testing.T) {
	b := sparse.NewBuilder(8)
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			v := 4*c + i
			b.Add(v, v, 4+float64(v)/8)
			if i > 0 {
				b.Add(v, v-1, -1-float64(v)/16)
			}
		}
	}
	a := b.Build()
	dense := make([][]float64, a.N)
	flat := a.Dense()
	for i := range dense {
		dense[i] = flat[i*a.N : (i+1)*a.N]
	}
	for _, vars := range [][]int{{1, 5}, {1, 2}, {0, 7}, {6, 1, 4}, {3, 4}} {
		san, err := AnalyzeSchur(a, vars, Options{})
		if err != nil {
			t.Fatalf("%v: %v", vars, err)
		}
		_, s, err := san.FactorizeSchur()
		if err != nil {
			t.Fatalf("%v: %v", vars, err)
		}
		want := denseSchur(t, dense, san.SchurVars)
		if len(s) != len(want) {
			t.Fatalf("%v: S has %d entries, want %d", vars, len(s), len(want))
		}
		for i := range s {
			if math.Abs(s[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("%v: S[%d] = %g, want %g", vars, i, s[i], want[i])
			}
		}
	}
}
