package lowrank

import (
	"encoding/binary"
	"math"
	"testing"
)

// splitmix64 drives the deterministic pseudo-random block generators (no
// math/rand, matching the repo's seeding convention).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a deterministic value in [-1, 1).
func unit(s *uint64) float64 {
	*s = splitmix64(*s)
	return float64(int64(*s>>11))/float64(1<<52) - 1
}

// lowRankPlusNoise builds B = X·Yᵀ + eta·G with X m×r, Y n×r and G a dense
// noise matrix with entries in [-1,1).
func lowRankPlusNoise(m, n, r int, eta float64, seed uint64) []float64 {
	s := seed
	x := make([]float64, m*r)
	y := make([]float64, n*r)
	for i := range x {
		x[i] = unit(&s)
	}
	for i := range y {
		y[i] = unit(&s)
	}
	b := make([]float64, m*n)
	for j := 0; j < n; j++ {
		for k := 0; k < r; k++ {
			yjk := y[j+k*n]
			for i := 0; i < m; i++ {
				b[i+j*m] += x[i+k*m] * yjk
			}
		}
	}
	if eta > 0 {
		for i := range b {
			b[i] += eta * unit(&s)
		}
	}
	return b
}

// TestLRCompressRRQRProperty is the accuracy contract of the reference
// compressor: for random low-rank-plus-noise blocks,
// ‖B − decompress(compress(B))‖_F ≤ Tol·‖B‖_F.
func TestLRCompressRRQRProperty(t *testing.T) {
	cases := []struct {
		m, n, r int
		eta     float64
		tol     float64
	}{
		{48, 32, 4, 0, 1e-8},
		{64, 64, 8, 1e-10, 1e-8},
		{96, 40, 6, 1e-9, 1e-6},
		{33, 57, 10, 1e-12, 1e-10},
		{128, 64, 12, 1e-7, 1e-4},
	}
	for ci, tc := range cases {
		for seed := uint64(1); seed <= 5; seed++ {
			b := lowRankPlusNoise(tc.m, tc.n, tc.r, tc.eta, seed*977+uint64(ci))
			lr := CompressRRQR(tc.m, tc.n, b, tc.m, tc.tol)
			if lr == nil {
				t.Fatalf("case %d seed %d: compression declined a rank-%d block at tol %g", ci, seed, tc.r, tc.tol)
			}
			dec := make([]float64, tc.m*tc.n)
			lr.Decompress(dec, tc.m)
			normB := FrobNorm(tc.m, tc.n, b, tc.m)
			err := FrobDiff(tc.m, tc.n, b, tc.m, dec, tc.m)
			if err > tc.tol*normB*(1+1e-12) {
				t.Errorf("case %d seed %d: ‖B−UVᵀ‖_F = %g > tol·‖B‖_F = %g (rank %d)",
					ci, seed, err, tc.tol*normB, lr.Rank)
			}
			if lr.Rank < tc.r && tc.eta == 0 {
				t.Errorf("case %d seed %d: rank %d under the exact rank %d", ci, seed, lr.Rank, tc.r)
			}
		}
	}
}

// TestLRCompressACAProperty checks the cheap path on the same block family.
// ACA's stopping rule is heuristic, so the contract is verified to a slack
// factor of 10 (the tests pin the family where ACA is known to behave).
func TestLRCompressACAProperty(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		m, n, r := 160, 140, 9
		b := lowRankPlusNoise(m, n, r, 1e-11, seed*31)
		tol := 1e-8
		lr := CompressACA(m, n, b, m, tol)
		if lr == nil {
			t.Fatalf("seed %d: ACA declined a rank-%d block", seed, r)
		}
		dec := make([]float64, m*n)
		lr.Decompress(dec, m)
		normB := FrobNorm(m, n, b, m)
		err := FrobDiff(m, n, b, m, dec, m)
		if err > 10*tol*normB {
			t.Errorf("seed %d: ACA error %g > 10·tol·‖B‖_F = %g (rank %d)", seed, err, 10*tol*normB, lr.Rank)
		}
	}
}

// TestLRCompressDeclinesFullRank: a dense random block has no numerical
// rank structure, so compression must decline (return nil) rather than
// produce an unprofitable representation.
func TestLRCompressDeclinesFullRank(t *testing.T) {
	m, n := 40, 40
	s := uint64(12345)
	b := make([]float64, m*n)
	for i := range b {
		b[i] = unit(&s)
	}
	if lr := CompressRRQR(m, n, b, m, 1e-12); lr != nil {
		t.Errorf("full-rank block compressed to rank %d (max profitable %d)", lr.Rank, maxProfitableRank(m, n))
	}
}

// TestLRCompressZeroBlock: the zero block compresses to rank 0 and
// decompresses to zeros.
func TestLRCompressZeroBlock(t *testing.T) {
	m, n := 32, 28
	lr := CompressRRQR(m, n, make([]float64, m*n), m, 1e-8)
	if lr == nil || lr.Rank != 0 {
		t.Fatalf("zero block: got %+v, want rank 0", lr)
	}
	dec := make([]float64, m*n)
	for i := range dec {
		dec[i] = math.NaN()
	}
	lr.Decompress(dec, m)
	for i, v := range dec {
		if v != 0 {
			t.Fatalf("dec[%d] = %g, want 0", i, v)
		}
	}
}

// TestLRCompressStrided: compression must honour the leading dimension (the
// factor blocks live inside larger cell arrays).
func TestLRCompressStrided(t *testing.T) {
	m, n, lda := 30, 26, 47
	b := lowRankPlusNoise(m, n, 3, 0, 7)
	a := make([]float64, lda*n)
	for j := 0; j < n; j++ {
		copy(a[j*lda:j*lda+m], b[j*m:j*m+m])
	}
	lr := CompressRRQR(m, n, a, lda, 1e-10)
	if lr == nil {
		t.Fatal("strided compression declined")
	}
	dec := make([]float64, m*n)
	lr.Decompress(dec, m)
	if err := FrobDiff(m, n, b, m, dec, m); err > 1e-10*FrobNorm(m, n, b, m) {
		t.Errorf("strided error %g", err)
	}
}

// TestLRAdmit pins the admission gate.
func TestLRAdmit(t *testing.T) {
	o := Options{Tol: 1e-8}
	if o.Admit(DefaultMinBlockSize-1, 100) || o.Admit(100, DefaultMinBlockSize-1) {
		t.Error("admitted a block under the default minimum dimension")
	}
	if !o.Admit(DefaultMinBlockSize, DefaultMinBlockSize) {
		t.Error("refused a block at the default minimum dimension")
	}
	if (Options{}).Admit(1000, 1000) {
		t.Error("disabled options admitted a block")
	}
	o.MinBlockSize = 8
	if !o.Admit(8, 8) || o.Admit(7, 8) {
		t.Error("explicit MinBlockSize not honoured")
	}
}

// TestLROptionsValidate pins the validation errors.
func TestLROptionsValidate(t *testing.T) {
	for _, bad := range []Options{{Tol: -1}, {Tol: 1}, {Tol: 1e-8, MinBlockSize: -2}} {
		if bad.Validate() == nil {
			t.Errorf("options %+v validated", bad)
		}
	}
	for _, good := range []Options{{}, {Tol: 1e-8}, {Tol: 0.5, MinBlockSize: 100}} {
		if err := good.Validate(); err != nil {
			t.Errorf("options %+v failed: %v", good, err)
		}
	}
}

// FuzzLRCompress feeds arbitrary bytes as block dimensions and values
// through the compress/decompress round trip: whatever the input, the
// compressor must not panic, and any block it does produce must satisfy the
// Frobenius contract (RRQR path) and the storage-win invariant.
func FuzzLRCompress(f *testing.F) {
	f.Add([]byte{4, 4, 1, 0, 0, 0, 0, 0, 0, 0})
	seed := lowRankPlusNoise(8, 8, 2, 0, 3)
	raw := make([]byte, 2+8*len(seed))
	raw[0], raw[1] = 8, 8
	for i, v := range seed {
		binary.LittleEndian.PutUint64(raw[2+8*i:], math.Float64bits(v))
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := int(data[0])%48 + 1
		n := int(data[1])%48 + 1
		vals := data[2:]
		b := make([]float64, m*n)
		for i := range b {
			if 8*i+8 <= len(vals) {
				v := math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))
				if math.IsInf(v, 0) || math.IsNaN(v) {
					v = 1
				}
				// Clamp to a sane range so ‖B‖_F stays finite.
				b[i] = math.Max(-1e100, math.Min(1e100, v))
			} else {
				b[i] = float64((i*7)%13) / 13
			}
		}
		tol := 1e-8
		lr := CompressRRQR(m, n, b, m, tol)
		if lr == nil {
			return // declined: dense fallback, nothing to check
		}
		if lr.Rank > maxProfitableRank(m, n) {
			t.Fatalf("unprofitable rank %d accepted for %dx%d", lr.Rank, m, n)
		}
		dec := make([]float64, m*n)
		lr.Decompress(dec, m)
		normB := FrobNorm(m, n, b, m)
		if err := FrobDiff(m, n, b, m, dec, m); err > tol*normB*(1+1e-9)+1e-300 {
			t.Fatalf("error %g > tol·norm %g for %dx%d rank %d", err, tol*normB, m, n, lr.Rank)
		}
	})
}

// Decompress materializes B = U·Vᵀ into dst, an m×n column-major panel with
// leading dimension ld (dst is overwritten, not accumulated into).
func (b *LRBlock) Decompress(dst []float64, ld int) {
	for j := 0; j < b.Cols; j++ {
		col := dst[j*ld : j*ld+b.Rows]
		for i := range col {
			col[i] = 0
		}
		for k := 0; k < b.Rank; k++ {
			vjk := b.V[j+k*b.Cols]
			if vjk == 0 {
				continue
			}
			uk := b.U[k*b.Rows : (k+1)*b.Rows]
			for i := range col {
				col[i] += vjk * uk[i]
			}
		}
	}
}

// FrobNorm returns the Frobenius norm of the m×n column-major block a (lda).
func FrobNorm(m, n int, a []float64, lda int) float64 {
	var s float64
	for j := 0; j < n; j++ {
		for _, v := range a[j*lda : j*lda+m] {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// FrobDiff returns ‖A − B‖_F for two m×n column-major blocks.
func FrobDiff(m, n int, a []float64, lda int, b []float64, ldb int) float64 {
	var s float64
	for j := 0; j < n; j++ {
		ca := a[j*lda : j*lda+m]
		cb := b[j*ldb : j*ldb+m]
		for i := range ca {
			d := ca[i] - cb[i]
			s += d * d
		}
	}
	return math.Sqrt(s)
}
