package pastix

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	a := gen.Laplacian2D(14, 14)
	an, err := Analyze(a, Options{Processors: 4, BlockSize: 16, Ratio2D: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	x, b := gen.RHSForSolution(a)
	got, err := an.Solve(f, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("x[%d]=%g want %g", i, got[i], x[i])
		}
	}
	if r := Residual(a, got, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

// TestPublicAPISharedMemoryRoundTrip exercises the zero-copy shared-memory
// runtime through the public surface: Runtime: RuntimeShared must route both
// Factorize and the default SolveOpts to it, with the same answers as the
// default message-passing runtime.
func TestPublicAPISharedMemoryRoundTrip(t *testing.T) {
	a := gen.Laplacian2D(14, 14)
	an, err := Analyze(a, Options{Processors: 4, BlockSize: 16, Ratio2D: 2, Runtime: RuntimeShared})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	x, b := gen.RHSForSolution(a)
	for name, solve := range map[string]func(*Factor, []float64) ([]float64, error){
		"Solve": an.Solve,
		"SolveOpts": func(f *Factor, b []float64) ([]float64, error) {
			res, err := an.SolveOpts(context.Background(), f, b, SolveOptions{})
			if err != nil {
				return nil, err
			}
			return res.X, nil
		},
	} {
		got, err := solve(f, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-9 {
				t.Fatalf("%s: x[%d]=%g want %g", name, i, got[i], x[i])
			}
		}
		if r := Residual(a, got, b); r > 1e-12 {
			t.Fatalf("%s: residual %g", name, r)
		}
	}
}

// TestPublicAPIDynamicRoundTrip exercises the work-stealing runtime through
// the public surface: Options.Runtime = RuntimeDynamic must factorize on the
// shared-memory layout and solve with the same answers — and the same bits —
// as the static shared runtime over the same analysis options.
func TestPublicAPIDynamicRoundTrip(t *testing.T) {
	a := gen.Laplacian2D(14, 14)
	an, err := Analyze(a, Options{Processors: 4, BlockSize: 16, Ratio2D: 2, Runtime: RuntimeDynamic})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	x, b := gen.RHSForSolution(a)
	res, err := an.SolveOpts(context.Background(), f, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.X
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("x[%d]=%g want %g", i, got[i], x[i])
		}
	}
	if r := Residual(a, got, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}

	// Bitwise agreement with the static shared runtime through the public API.
	anS, err := Analyze(a, Options{Processors: 4, BlockSize: 16, Ratio2D: 2, Runtime: RuntimeShared})
	if err != nil {
		t.Fatal(err)
	}
	fS, err := anS.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	resS, err := anS.SolveOpts(context.Background(), fS, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotS := resS.X
	for i := range gotS {
		if got[i] != gotS[i] {
			t.Fatalf("x[%d] = %x dynamic vs %x shared (not bit-identical)", i, got[i], gotS[i])
		}
	}
}

// TestParseRuntime pins the public runtime-name surface shared by the CLIs.
func TestParseRuntime(t *testing.T) {
	good := map[string]Runtime{
		"":           RuntimeAuto,
		"auto":       RuntimeAuto,
		"seq":        RuntimeSequential,
		"sequential": RuntimeSequential,
		"mpsim":      RuntimeMPSim,
		"shared":     RuntimeShared,
		"dynamic":    RuntimeDynamic,
	}
	for s, want := range good {
		rt, err := ParseRuntime(s)
		if err != nil || rt != want {
			t.Fatalf("ParseRuntime(%q) = %v, %v; want %v", s, rt, err, want)
		}
	}
	if _, err := ParseRuntime("gpu"); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("ParseRuntime(gpu) = %v, want ErrBadOptions", err)
	}
	// Analyze rejects a runtime outside the enumeration.
	a := gen.Laplacian2D(8, 8)
	if _, err := Analyze(a, Options{Processors: 2, Runtime: Runtime(99)}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("unknown runtime not rejected: %v", err)
	}
}

func TestPublicStats(t *testing.T) {
	a := gen.Laplacian2D(16, 16)
	an, err := Analyze(a, Options{Processors: 8, BlockSize: 16, Ratio2D: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := an.Stats()
	if st.N != a.N || st.NNZA != a.NNZOffDiag() {
		t.Fatal("basic shape stats wrong")
	}
	if st.ScalarNNZL <= 0 || st.ScalarOPC <= 0 || st.BlockNNZL < st.ScalarNNZL {
		t.Fatalf("fill stats inconsistent: %+v", st)
	}
	if st.Processors != 8 || st.Tasks <= st.ColumnBlocks/2 {
		t.Fatalf("schedule stats inconsistent: %+v", st)
	}
	if st.PredictedTime <= 0 {
		t.Fatal("predicted time missing")
	}
	if st.LoadImbalance < 1 || st.MaxMemoryPerProc <= 0 {
		t.Fatalf("balance stats missing: %+v", st)
	}
	if st.CommVolume <= 0 {
		t.Fatal("comm volume missing for P=8")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	if _, err := Analyze(nil, Options{}); err == nil {
		t.Fatal("nil matrix must error")
	}
	a := gen.Laplacian2D(5, 5)
	if _, err := Analyze(a, Options{Ordering: OrderingMethod(99)}); err == nil {
		t.Fatal("unknown ordering must error")
	}
	an, err := Analyze(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Solve(f, make([]float64, 3)); err == nil {
		t.Fatal("wrong rhs length must error")
	}
	other, _ := Analyze(a, Options{})
	if _, err := other.Solve(f, make([]float64, a.N)); err == nil {
		t.Fatal("foreign factor must error")
	}
}

func TestPublicOrderingMethods(t *testing.T) {
	a := gen.Laplacian2D(10, 10)
	_, b := gen.RHSForSolution(a)
	for _, m := range []OrderingMethod{OrderScotchLike, OrderMetisLike, OrderAMD, OrderNatural} {
		an, err := Analyze(a, Options{Ordering: m})
		if err != nil {
			t.Fatalf("%d: %v", m, err)
		}
		f, err := an.Factorize()
		if err != nil {
			t.Fatalf("%d: %v", m, err)
		}
		x, err := an.Solve(f, b)
		if err != nil {
			t.Fatal(err)
		}
		if r := Residual(a, x, b); r > 1e-12 {
			t.Fatalf("%d: residual %g", m, r)
		}
	}
}

func TestRSAThroughPublicAPI(t *testing.T) {
	a := gen.Laplacian2D(6, 6)
	var buf bytes.Buffer
	if err := WriteRSA(&buf, a, "laplacian"); err != nil {
		t.Fatal(err)
	}
	got, title, err := ReadRSA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if title != "laplacian" || got.N != a.N {
		t.Fatalf("round trip: %q n=%d", title, got.N)
	}
}

func TestSolveParallelAndRefined(t *testing.T) {
	a := gen.Laplacian2D(16, 16)
	an, err := Analyze(a, Options{Processors: 4, BlockSize: 16, Ratio2D: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	x, b := gen.RHSForSolution(a)
	seq, err := an.Solve(f, b)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := an.SolveOpts(context.Background(), f, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par := rp.X
	for i := range seq {
		if math.Abs(seq[i]-par[i]) > 1e-11*(1+math.Abs(seq[i])) {
			t.Fatalf("parallel solve differs at %d", i)
		}
	}
	rr, err := an.SolveOpts(context.Background(), f, b,
		SolveOptions{Runtime: RuntimeSequential, Refine: &RefineOptions{MaxIter: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ref := rr.X
	for i := range x {
		if math.Abs(ref[i]-x[i]) > 1e-10 {
			t.Fatalf("refined solve off at %d", i)
		}
	}
	if Residual(a, ref, b) > Residual(a, seq, b)*1.0001 {
		t.Fatal("refinement worsened the residual")
	}
}

func TestComplexPublicAPI(t *testing.T) {
	n := 8 * 8
	zb := NewZBuilder(n)
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			v := i + j*8
			zb.Add(v, v, complex(4.5, 1.0))
			if i+1 < 8 {
				zb.Add(v, v+1, complex(-1, 0.1))
			}
			if j+1 < 8 {
				zb.Add(v, v+8, complex(-1, -0.1))
			}
		}
	}
	az := zb.Build()
	an, err := AnalyzeComplex(az, Options{Processors: 3, BlockSize: 8, Ratio2D: 2})
	if err != nil {
		t.Fatal(err)
	}
	zf, err := an.FactorizeComplex(az)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i%4), -float64(i%3))
	}
	b := make([]complex128, n)
	az.MatVec(x, b)
	got, err := an.SolveComplex(zf, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := got[i] - x[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
			t.Fatalf("x[%d]=%v want %v", i, got[i], x[i])
		}
	}
	if r := ZResidual(az, got, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
	// Error paths.
	other, _ := Analyze(gen.Laplacian2D(8, 8), Options{})
	if _, err := other.SolveComplex(zf, b); err == nil {
		t.Fatal("foreign complex factor must error")
	}
	if _, err := an.SolveComplex(zf, make([]complex128, 3)); err == nil {
		t.Fatal("bad rhs length must error")
	}
}

func TestSolveManyPublic(t *testing.T) {
	a := gen.Laplacian2D(10, 10)
	an, err := Analyze(a, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	n := a.N
	const nrhs = 3
	b := make([]float64, n*nrhs)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	ctx := context.Background()
	seq := SolveOptions{NRHS: nrhs, Runtime: RuntimeSequential}
	res, err := an.SolveOpts(ctx, f, b, seq)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nrhs; r++ {
		want, err := an.Solve(f, b[r*n:(r+1)*n])
		if err != nil {
			t.Fatal(err)
		}
		bitwiseSame(t, fmt.Sprintf("rhs %d", r), res.X[r*n:(r+1)*n], want)
	}
	if _, err := an.SolveOpts(ctx, f, b, SolveOptions{NRHS: -1, Runtime: RuntimeSequential}); !errors.Is(err, ErrShape) {
		t.Fatalf("nrhs=-1: got %v, want ErrShape", err)
	}
	if _, err := an.SolveOpts(ctx, f, b[:n], seq); !errors.Is(err, ErrShape) {
		t.Fatalf("short panel: got %v, want ErrShape", err)
	}
}

func TestSchurComplementPublic(t *testing.T) {
	a := gen.Laplacian2D(8, 8)
	var iface []int
	for j := 0; j < 8; j++ {
		iface = append(iface, 4+j*8) // middle grid column
	}
	s, vars, err := SchurComplement(a, iface, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ns := len(iface)
	if len(s) != ns*ns || len(vars) != ns {
		t.Fatalf("shapes: %d, %d", len(s), len(vars))
	}
	// Symmetric, diagonally positive.
	for i := 0; i < ns; i++ {
		if s[i+i*ns] <= 0 {
			t.Fatalf("S diagonal %d not positive", i)
		}
		for j := 0; j < ns; j++ {
			if math.Abs(s[i+j*ns]-s[j+i*ns]) > 1e-12 {
				t.Fatal("S not symmetric")
			}
		}
	}
}

func TestPublicMiscCoverage(t *testing.T) {
	// Builders.
	eb := NewElementBuilder(3)
	eb.AddElement([]int{0, 1}, []float64{1, -1, -1, 1})
	m := eb.Build()
	if m.At(0, 0) != 1 {
		t.Fatal("element builder")
	}
	nb := NewBuilder(2)
	nb.Add(0, 0, 1)
	nb.Add(1, 1, 1)
	_ = nb.Build()

	// Matrix Market through the facade.
	a := gen.Laplacian2D(5, 5)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a, "mm facade"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != a.N {
		t.Fatal("mm round trip")
	}

	// Schedule reporting + phase times.
	an, err := Analyze(a, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	var g, c, s bytes.Buffer
	if err := an.WriteScheduleGantt(&g, 40); err != nil {
		t.Fatal(err)
	}
	if err := an.WriteScheduleCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := an.WriteScheduleSummary(&s); err != nil {
		t.Fatal(err)
	}
	if g.Len() == 0 || c.Len() == 0 || s.Len() == 0 {
		t.Fatal("empty reports")
	}
	ph := an.PhaseTimes()
	total := ph[0] + ph[1] + ph[2] + ph[3]
	if total <= 0 {
		t.Fatal("phase times missing")
	}

	// AnalyzeComplex error paths.
	if _, err := AnalyzeComplex(nil, Options{}); err == nil {
		t.Fatal("nil complex matrix must error")
	}
	badZ := &ZMatrix{N: 1, ColPtr: []int{0, 0}}
	if _, err := AnalyzeComplex(badZ, Options{}); err == nil {
		t.Fatal("invalid complex matrix must error")
	}
	zf := &ZFactor{}
	if _, err := an.FactorizeComplex(nil); err == nil {
		t.Fatal("nil complex factorize must error")
	}
	if _, err := an.SolveComplex(zf, make([]complex128, a.N)); err == nil {
		t.Fatal("foreign complex factor must error")
	}
}
