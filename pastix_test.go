package pastix

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/solver"
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

// A malformed complex matrix is an error from AnalyzeComplex, as a real one
// is from Analyze.
func TestAnalyzeComplexMalformed(t *testing.T) {
	bad := &ZMatrix{N: 3, ColPtr: []int{0, 4, 3, 3}, RowIdx: []int{0, 1, 2}, Val: make([]complex128, 3)}
	if _, err := AnalyzeComplex(bad, Options{}); err == nil {
		t.Fatal("AnalyzeComplex accepted an out-of-range column pointer")
	}
}

// A malformed matrix of the analysed order and entry count is an error
// from FactorizeValues, not an index panic in the permutation.
func TestFactorizeValuesMalformed(t *testing.T) {
	a := gen.Laplacian2D(4, 4)
	an, err := Analyze(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := &Matrix{N: a.N, ColPtr: slices.Clone(a.ColPtr), RowIdx: slices.Clone(a.RowIdx), Val: slices.Clone(a.Val)}
	b.RowIdx[1] = 99
	if _, err := an.FactorizeValues(context.Background(), b); err == nil {
		t.Fatal("FactorizeValues accepted a row index out of range")
	}
}

// FactorizeComplex rejects a matrix of the analysed order with another
// pattern as FactorizeValues does.
func TestFactorizeComplexPatternMismatch(t *testing.T) {
	az := complexLaplacian(6)
	an, err := AnalyzeComplex(az, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Same order and entry count, one off-diagonal entry moved.
	other := &ZMatrix{N: az.N, ColPtr: slices.Clone(az.ColPtr), RowIdx: slices.Clone(az.RowIdx), Val: slices.Clone(az.Val)}
	last := other.ColPtr[1] - 1
	other.RowIdx[last] = az.N - 1
	if err := other.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := an.FactorizeComplex(other); !errors.Is(err, ErrPatternMismatch) {
		t.Fatalf("FactorizeComplex of another pattern: %v, want ErrPatternMismatch", err)
	}
	if _, err := an.FactorizeComplex(complexLaplacian(5)); !errors.Is(err, ErrPatternMismatch) {
		t.Fatalf("FactorizeComplex of another order: %v, want ErrPatternMismatch", err)
	}
}

// A complex pivot with NaN in one part and ±Inf in the other is a NaN pivot
// (cmplx.IsNaN reports false for it): the factorization must fail with the
// typed zero-pivot error at the global column, on the sequential and the
// parallel runtime alike. The first pivot of [[x,1],[1,x]] is x under either
// ordering, so the column is 0.
func TestComplexNaNPivot(t *testing.T) {
	for _, x := range []complex128{complex(math.Inf(1), math.NaN()), complex(math.NaN(), math.Inf(-1))} {
		zb := NewZBuilder(2)
		zb.Add(0, 0, x)
		zb.Add(1, 1, x)
		zb.Add(1, 0, 1)
		az := zb.Build()
		for _, p := range []int{1, 3} {
			an, err := AnalyzeComplex(az, Options{Processors: p})
			if err != nil {
				t.Fatal(err)
			}
			_, err = an.FactorizeComplex(az)
			if !errors.Is(err, ErrNotSPD) {
				t.Fatalf("pivot %v P=%d: got %v, want ErrNotSPD", x, p, err)
			}
			var zp *ZeroPivotError
			if !errors.As(err, &zp) || zp.Column != 0 {
				t.Fatalf("pivot %v P=%d: got %v, want *ZeroPivotError at column 0", x, p, err)
			}
		}
	}
}

// FactorizeComplex runs Factorize's dispatch: Options.Runtime selects the
// engine (shared and dynamic reproduce the sequential bits, auto at P > 1 is
// the message-passing runtime), Options.Faults reaches that runtime's
// reliability layer, and the options without a complex path fail with
// ErrBadOptions.
func TestFactorizeComplexOptions(t *testing.T) {
	az := complexLaplacian(12)
	factor := func(o Options) (*ZFactor, error) {
		o.Processors, o.BlockSize, o.Ratio2D = 2, 8, 2
		an, err := AnalyzeComplex(az, o)
		if err != nil {
			t.Fatal(err)
		}
		return an.FactorizeComplex(az)
	}
	same := func(a, b *ZFactor) bool {
		for k := range a.inner.Data {
			for i := range a.inner.Data[k] {
				if a.inner.Data[k][i] != b.inner.Data[k][i] {
					return false
				}
			}
		}
		return true
	}
	seq, err := factor(Options{Runtime: RuntimeSequential})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := factor(Options{Runtime: RuntimeMPSim})
	if err != nil {
		t.Fatal(err)
	}
	if same(seq, mp) {
		t.Fatal("fixture cannot tell the runtimes apart: mpsim reproduces the sequential bits")
	}
	hopeless := &FaultPlan{Seed: 2, Drop: 0.999}
	hopeless.Reliability.RTO = 100 * time.Microsecond
	hopeless.Reliability.MaxRTO = 200 * time.Microsecond
	hopeless.Reliability.RetryLimit = 2
	hopeless.Reliability.Tick = 50 * time.Microsecond
	for _, tc := range []struct {
		name string
		opts Options
		want *ZFactor // bits the factor must reproduce
		err  error
	}{
		{"auto", Options{}, mp, nil},
		{"shared", Options{Runtime: RuntimeShared}, seq, nil},
		{"dynamic", Options{Runtime: RuntimeDynamic}, seq, nil},
		{"faults", Options{Faults: &FaultPlan{Seed: 3, Drop: 0.1, Dup: 0.1, CrashAtStep: map[int]int{1: 1}}}, mp, nil},
		{"faults-budget", Options{Faults: hopeless}, nil, ErrFaultBudget},
		{"static-pivot", Options{StaticPivot: StaticPivotOptions{Epsilon: 1e-10}}, nil, ErrBadOptions},
		{"blr", Options{BLR: BLROptions{Tol: 1e-8}}, nil, ErrBadOptions},
	} {
		zf, err := factor(tc.opts)
		if tc.err != nil {
			if !errors.Is(err, tc.err) {
				t.Fatalf("%s: got %v, want %v", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !same(zf, tc.want) {
			t.Fatalf("%s: factor bits differ from the expected runtime's", tc.name)
		}
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
	// The bits of S and the order of its unknowns, recorded before the
	// Schur analysis ran through the common analysis pipeline.
	if got, want := schurDigest(s, vars), "77427b00a9ac79486d73cdc52c36aa393d913c482d5dd4e4e4618d0630c34388"; got != want {
		t.Fatalf("S digest %s, want %s", got, want)
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

// The Schur analysis is scheduled for one processor: S does not depend on
// Options.Processors, and the analysis carries a one-processor schedule.
func TestSchurComplementProcessors(t *testing.T) {
	a := gen.Laplacian2D(10, 10)
	var iface []int
	for j := 0; j < 10; j++ {
		iface = append(iface, 5+j*10)
	}
	var ref string
	for _, p := range []int{1, 2, 4} {
		s, vars, err := SchurComplement(a, iface, Options{Processors: p})
		if err != nil {
			t.Fatal(err)
		}
		d := schurDigest(s, vars)
		if p == 1 {
			ref = d
		} else if d != ref {
			t.Fatalf("Processors %d: S digest %s, Processors 1 %s", p, d, ref)
		}
		san, err := analyzeSchur(a, iface, Options{Processors: p})
		if err != nil {
			t.Fatal(err)
		}
		if san.Sched.P != 1 {
			t.Fatalf("Processors %d: Schur schedule for %d processors", p, san.Sched.P)
		}
	}
}

// schurDigest is the sha256 of S's bits followed by its unknowns.
func schurDigest(s []float64, vars []int) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range vars {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SchurComplement checks its Options as Analyze does, and the fields that
// shape an analysis reach the Schur analysis.
func TestSchurComplementOptions(t *testing.T) {
	a := gen.Laplacian2D(8, 8)
	var iface []int
	for j := 0; j < 8; j++ {
		iface = append(iface, 4+j*8)
	}
	if _, _, err := SchurComplement(nil, iface, Options{}); err == nil {
		t.Fatal("SchurComplement(nil) returned no error")
	}
	for _, o := range []Options{{BlockSize: -1}, {LeafSize: -1}, {Ordering: OrderingMethod(99)}} {
		if _, _, err := SchurComplement(a, iface, o); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("SchurComplement(%+v) = %v, want ErrBadOptions", o, err)
		}
	}

	def, err := analyzeSchur(a, iface, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noAmalg, err := analyzeSchur(a, iface, Options{NoAmalgamation: true})
	if err != nil {
		t.Fatal(err)
	}
	if noAmalg.Sym.NumCB() <= def.Sym.NumCB() {
		t.Fatalf("NoAmalgamation: %d column blocks, default %d", noAmalg.Sym.NumCB(), def.Sym.NumCB())
	}
	nat, err := analyzeSchur(a, iface, Options{Ordering: OrderNatural})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := solver.AnalyzeSchur(a, iface, solver.Options{Ordering: order.Options{Method: order.Natural}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(nat.Perm, ref.Perm) || slices.Equal(nat.Perm, def.Perm) {
		t.Fatal("OrderNatural did not reach the Schur analysis")
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

// TestResidualLengthMismatch checks Residual and ZResidual return +Inf, not a
// panic, when x or b is not of the matrix order, so a residual > tol check
// rejects the pair.
func TestResidualLengthMismatch(t *testing.T) {
	rb, zb := NewBuilder(3), NewZBuilder(3)
	for i := 0; i < 3; i++ {
		rb.Add(i, i, 4)
		zb.Add(i, i, complex(4, 1))
		if i > 0 {
			rb.Add(i, i-1, -1)
			zb.Add(i, i-1, complex(-1, 0.5))
		}
	}
	ra, za := rb.Build(), zb.Build()
	for _, c := range []struct {
		name   string
		nx, nb int
	}{{"short x", 2, 3}, {"short b", 3, 1}, {"long b", 3, 4}, {"matching", 3, 3}} {
		want := math.Inf(1)
		if c.nx == 3 && c.nb == 3 {
			want = 0 // x = 0 solves A·x = 0
		}
		if got := Residual(ra, make([]float64, c.nx), make([]float64, c.nb)); got != want {
			t.Errorf("float64 %s: residual %g, want %g", c.name, got, want)
		}
		if got := ZResidual(za, make([]complex128, c.nx), make([]complex128, c.nb)); got != want {
			t.Errorf("complex128 %s: residual %g, want %g", c.name, got, want)
		}
	}
}
