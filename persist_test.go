package pastix

import (
	"context"
	"errors"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/solver"
)

// TestPersistRoundTripDense is the durability contract for dense factors:
// export → (codec elsewhere) → restore against a fresh Analysis of the same
// pattern and options yields bitwise-identical solves without refactorizing.
func TestPersistRoundTripDense(t *testing.T) {
	a := gen.Laplacian3D(8, 8, 8)
	opts := Options{Processors: 4, Runtime: RuntimeDynamic}
	an, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.ExportPayload()
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(a)
	want, err := an.Solve(f, b)
	if err != nil {
		t.Fatal(err)
	}

	// A different Analysis instance, as a restarted process would build.
	an2, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := an2.RestoreFactor(a, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := an2.Solve(f2, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("x[%d]: restored solve %x differs from original %x", i, got[i], want[i])
		}
	}
	// Refinement binds to the restored matrix values too.
	if _, err := an2.SolveOpts(context.Background(), f2, b, SolveOptions{Refine: &RefineOptions{}}); err != nil {
		t.Fatalf("refined solve on restored factor: %v", err)
	}
}

// TestPersistRoundTripBLR does the same for a BLR-compressed factor: the
// compressed cells survive export/restore and solves stay bitwise-identical.
func TestPersistRoundTripBLR(t *testing.T) {
	a := gen.Laplacian3D(9, 9, 9)
	opts := Options{Processors: 4, BLR: BLROptions{Tol: 1e-8, MinBlockSize: 8}}
	an, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	if !f.Compressed() {
		t.Fatal("expected a compressed factor")
	}
	p, err := f.ExportPayload()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Compressed() {
		t.Fatal("payload lost the compressed form")
	}
	_, b := gen.RHSForSolution(a)
	want, err := an.SolveOpts(context.Background(), f, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	an2, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := an2.RestoreFactor(a, p)
	if err != nil {
		t.Fatal(err)
	}
	if !f2.Compressed() {
		t.Fatal("restored factor lost compression")
	}
	if st, st2 := f.CompressionStats(), f2.CompressionStats(); st2 == nil || st2.CompressedBytes != st.CompressedBytes {
		t.Fatalf("compression stats diverged: %+v vs %+v", st2, st)
	}
	got, err := an2.SolveOpts(context.Background(), f2, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bitwiseSame(t, "restored solve", got.X, want.X)
}

// TestRestoreFactorRejects pins the failure modes: wrong pattern, wrong
// payload shape, nil payload.
func TestRestoreFactorRejects(t *testing.T) {
	a := gen.Laplacian2D(12, 12)
	an, err := Analyze(a, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.ExportPayload()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := an.RestoreFactor(a, nil); err == nil {
		t.Error("nil payload accepted")
	}
	other := gen.Laplacian2D(13, 13)
	if _, err := an.RestoreFactor(other, p); !errors.Is(err, ErrPatternMismatch) {
		t.Errorf("pattern mismatch: err = %v", err)
	}
	anOther, err := Analyze(other, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := anOther.RestoreFactor(other, p); err == nil {
		t.Error("payload shaped for a different symbol accepted")
	}
	// Truncating one cell must be caught by length validation.
	bad := &FactorPayload{Cells: make([][]float64, len(p.Cells)), Layout: p.Layout, Pivots: p.Pivots}
	copy(bad.Cells, p.Cells)
	bad.Cells[0] = bad.Cells[0][:len(bad.Cells[0])-1]
	if _, err := an.RestoreFactor(a, bad); err == nil {
		t.Error("truncated cell accepted")
	}
	// A strided and a packed cell have the same length, so a dense payload
	// that does not state its layout, or states an unknown one, is refused.
	for _, layout := range []solver.CellLayout{0, solver.LayoutPacked + 1} {
		q := *p
		q.Layout = layout
		if _, err := an.RestoreFactor(a, &q); !errors.Is(err, ErrPayloadLayout) {
			t.Errorf("layout %d: err = %v, want ErrPayloadLayout", layout, err)
		}
	}
}

// TestPersistPivotReport verifies the perturbation report rides along.
func TestPersistPivotReport(t *testing.T) {
	a := gen.GradedPivot(4, 8, 1e-2, 0.05, true)
	an, err := Analyze(a, Options{Processors: 2, StaticPivot: StaticPivotOptions{Epsilon: 1e-12}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	rep := f.Perturbations()
	if rep == nil || len(rep.Perturbed) == 0 {
		t.Skip("matrix did not trigger static pivoting")
	}
	p, err := f.ExportPayload()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := an.RestoreFactor(a, p)
	if err != nil {
		t.Fatal(err)
	}
	rep2 := f2.Perturbations()
	if rep2 == nil || len(rep2.Perturbed) != len(rep.Perturbed) || rep2.Threshold != rep.Threshold {
		t.Fatalf("pivot report lost in round trip: %+v vs %+v", rep2, rep)
	}
}
