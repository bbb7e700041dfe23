package cost

import (
	"math"
	"math/rand"
	"testing"
)

func TestKernelModelEvaluation(t *testing.T) {
	km := KernelModel{Coef: [8]float64{1, 2, 3, 4, 5, 6, 7, 8}}
	// t = 1 + 2m + 3n + 4k + 5mn + 6mk + 7nk + 8mnk at (1,1,1) = 36.
	if got := km.Time(1, 1, 1); got != 36 {
		t.Fatalf("got %g", got)
	}
	km = KernelModel{Coef: [8]float64{-5}}
	if got := km.Time(1, 1, 1); got != 0 {
		t.Fatalf("negative prediction not clamped: %g", got)
	}
}

func TestFitLSRecoversExactModel(t *testing.T) {
	true1 := []float64{1e-6, 0, 0, 0, 2e-9, 0, 0, 7e-10}
	var x [][]float64
	var y []float64
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		m := float64(1 + rng.Intn(128))
		n := float64(1 + rng.Intn(128))
		k := float64(1 + rng.Intn(128))
		row := basisRow(m, n, k)
		v := 0.0
		for i := range row {
			v += row[i] * true1[i]
		}
		x = append(x, row)
		y = append(y, v)
	}
	coef, err := FitLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range true1 {
		if math.Abs(coef[i]-true1[i]) > 1e-9*(1+math.Abs(true1[i])) {
			t.Fatalf("coef[%d]=%g want %g", i, coef[i], true1[i])
		}
	}
}

func TestFitLSDegenerateColumn(t *testing.T) {
	// All samples share n=k=0: the ridge must keep the solve alive.
	var x [][]float64
	var y []float64
	for m := 1.0; m <= 32; m++ {
		x = append(x, basisRow(m, 0, 0))
		y = append(y, 3e-6+1e-8*m)
	}
	coef, err := FitLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	km := KernelModel{}
	copy(km.Coef[:], coef)
	for m := 1.0; m <= 32; m++ {
		want := 3e-6 + 1e-8*m
		if got := km.Time(m, 0, 0); math.Abs(got-want) > 1e-9 {
			t.Fatalf("m=%g: %g want %g", m, got, want)
		}
	}
}

func TestFitLSErrors(t *testing.T) {
	if _, err := FitLS(nil, nil); err == nil {
		t.Fatal("expected error on empty input")
	}
	if _, err := FitLS([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if _, err := FitLS([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error on ragged rows")
	}
}

func TestSP2ProfileShape(t *testing.T) {
	m := SP2()
	// The paper: dense 1024² LLᵀ on one node takes ~1.07 s and LDLᵀ ~1.27 s.
	// Our Factor model targets LDLᵀ: 2/3·1024³/260e6 ≈ 2.75 s — note the
	// paper's number is for LLᵀ ops (n³/3 mult-adds); our model counts
	// 2·w³/3 flops at 260 MFlops → w=1024 gives ≈2.75 s, i.e. the same
	// ~280 MFlops effective rate. Sanity-check the rate, not the constant.
	sec := m.FactorTime(1024)
	rate := 2.0 / 3.0 * 1024 * 1024 * 1024 / sec
	if rate < 200e6 || rate > 400e6 {
		t.Fatalf("SP2 factor rate %.0f flops/s out of Power2SC range", rate)
	}
	// Monotonicity.
	if m.GemmTime(64, 64, 64) >= m.GemmTime(128, 128, 128) {
		t.Fatal("gemm time not increasing")
	}
	if m.TrsmTime(64, 32) >= m.TrsmTime(128, 64) {
		t.Fatal("trsm time not increasing")
	}
	// Communication: latency dominates tiny messages, bandwidth large ones.
	if m.SendTime(8) < m.Latency {
		t.Fatal("send cannot be faster than latency")
	}
	if m.SendTime(1<<20) < float64(1<<20)/m.Bandwidth {
		t.Fatal("send cannot beat bandwidth")
	}
	if m.AddTime(1000) <= 0 {
		t.Fatal("aggregation must cost time")
	}
}

func TestCalibrateLocalQuick(t *testing.T) {
	m, err := CalibrateLocal(true)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions over the calibrated range must be non-negative and roughly
	// monotone in total work.
	small := m.GemmTime(8, 8, 8)
	big := m.GemmTime(48, 48, 48)
	if small < 0 || big < 0 {
		t.Fatal("negative predictions")
	}
	if big <= small {
		t.Fatalf("gemm model not increasing: %g vs %g", small, big)
	}
	if m.FactorTime(48) <= 0 {
		t.Fatal("factor model degenerate")
	}
	if m.TrsmTime(48, 32) <= 0 {
		t.Fatal("trsm model degenerate")
	}
}

func TestSMPTopology(t *testing.T) {
	flat := SP2()
	if flat.NodeOf(5) != 5 {
		t.Fatal("flat machine must map processors to themselves")
	}
	smp := flat.WithSMPNodes(4)
	if smp.NodeOf(0) != 0 || smp.NodeOf(3) != 0 || smp.NodeOf(4) != 1 {
		t.Fatal("node grouping wrong")
	}
	intra := smp.SendTimeBetween(0, 3, 1<<20)
	inter := smp.SendTimeBetween(0, 4, 1<<20)
	if intra >= inter {
		t.Fatalf("intra-node send (%g) not cheaper than inter-node (%g)", intra, inter)
	}
	if flat.SendTimeBetween(0, 3, 1024) != flat.SendTime(1024) {
		t.Fatal("flat machine must use the network model everywhere")
	}
	if smp.Name == flat.Name {
		t.Fatal("SMP profile should be renamed")
	}
}

func TestCholRatio(t *testing.T) {
	m := SP2()
	if r := m.CholRatio(); r < 1.15 || r > 1.25 {
		t.Fatalf("SP2 CholRatio %g", r)
	}
	var zero Machine
	if zero.CholRatio() != 1 {
		t.Fatal("unset ratio must default to 1")
	}
}
