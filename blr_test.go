package pastix

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
)

// TestBLRDisabledBitwiseAcrossRuntimes is the zero-value guarantee: with
// Options.BLR unset, every runtime produces exactly the factor it produced
// before the compression subsystem existed — bitwise against the sequential
// reference for the bitwise runtimes, to rounding for mpsim.
func TestBLRDisabledBitwiseAcrossRuntimes(t *testing.T) {
	a := gen.Laplacian3D(8, 8, 8)
	refAn, err := Analyze(a, Options{Processors: 4, Runtime: RuntimeSequential})
	if err != nil {
		t.Fatal(err)
	}
	refF, err := refAn.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	ref := refF.inner
	cases := []struct {
		name    string
		rt      Runtime
		bitwise bool
	}{
		{"seq", RuntimeSequential, true},
		{"shared", RuntimeShared, true},
		{"dynamic", RuntimeDynamic, true},
		{"mpsim", RuntimeMPSim, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			an, err := Analyze(a, Options{Processors: 4, Runtime: tc.rt})
			if err != nil {
				t.Fatal(err)
			}
			f, err := an.Factorize()
			if err != nil {
				t.Fatal(err)
			}
			if f.Compressed() || f.CompressionStats() != nil {
				t.Fatal("BLR-disabled factor reports compression")
			}
			refCells, got := ref.ExportPayload().Cells, f.inner.ExportPayload().Cells
			if len(refCells) == 0 || len(got) != len(refCells) {
				t.Fatalf("%d dense cells, reference has %d", len(got), len(refCells))
			}
			for k := range refCells {
				if len(refCells[k]) != len(got[k]) {
					t.Fatalf("cell %d: storage shape diverged", k)
				}
				for i := range refCells[k] {
					if tc.bitwise {
						if refCells[k][i] != got[k][i] {
							t.Fatalf("cell %d elem %d: %x vs reference %x", k, i, got[k][i], refCells[k][i])
						}
					} else if math.Abs(refCells[k][i]-got[k][i]) > 1e-11*(1+math.Abs(refCells[k][i])) {
						t.Fatalf("cell %d elem %d: %g vs reference %g", k, i, got[k][i], refCells[k][i])
					}
				}
			}
		})
	}
}

// TestBLROptionsValidation pins the Option-level rejections, and that BLR
// combines with every runtime and with fault injection.
func TestBLROptionsValidation(t *testing.T) {
	bad := []Options{
		{BLR: BLROptions{Tol: -1e-8}},
		{BLR: BLROptions{Tol: 1}},
		{BLR: BLROptions{Tol: 1e-8, MinBlockSize: -1}},
	}
	for i, o := range bad {
		if err := o.Validate(); !errors.Is(err, ErrBadOptions) {
			t.Errorf("case %d: Validate() = %v, want ErrBadOptions", i, err)
		}
	}
	good := []Options{
		{BLR: BLROptions{Tol: 1e-8, MinBlockSize: 16}, Processors: 2},
		{BLR: BLROptions{Tol: 1e-8}, Runtime: RuntimeMPSim},
		{BLR: BLROptions{Tol: 1e-8}, Faults: &FaultPlan{Seed: 1, Drop: 0.5}},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("case %d: valid BLR options rejected: %v", i, err)
		}
	}
}

// TestBLRFactorizeSolveRefine is the end-to-end contract: analysis-level BLR
// compresses every Factorize* product — also on an mpsim-pinned analysis and
// under fault injection — every solve engine returns the bits of the
// RuntimeShared solve, and refinement recovers the backward error.
func TestBLRFactorizeSolveRefine(t *testing.T) {
	a := gen.Laplacian3D(10, 10, 10)
	x, b := gen.RHSForSolution(a)
	blr := BLROptions{Tol: 1e-8, MinBlockSize: 8}
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"auto", Options{Processors: 4, BLR: blr}},
		{"mpsim", Options{Processors: 4, BLR: blr, Runtime: RuntimeMPSim}},
		{"faults", Options{Processors: 4, BLR: blr, Faults: &FaultPlan{Seed: 3, Dup: 0.1, Delay: 0.1}}},
	} {
		an, err := Analyze(a, cfg.opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		f, err := an.Factorize()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if !f.Compressed() {
			t.Fatalf("%s: analysis-level BLR did not compress the factor", cfg.name)
		}
		st := f.CompressionStats()
		if st == nil || st.BlocksCompressed == 0 || st.CompressedBytes >= st.DenseBytes {
			t.Fatalf("%s: compression stats %+v", cfg.name, st)
		}
		if f.MemoryBytes() != st.CompressedBytes {
			t.Fatalf("%s: MemoryBytes %d != CompressedBytes %d", cfg.name, f.MemoryBytes(), st.CompressedBytes)
		}
		shared, err := an.SolveOpts(context.Background(), f, b, SolveOptions{Runtime: RuntimeShared})
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		for _, rt := range []Runtime{RuntimeAuto, RuntimeSequential, RuntimeShared, RuntimeDynamic, RuntimeMPSim} {
			raw, err := an.SolveOpts(context.Background(), f, b, SolveOptions{Runtime: rt})
			if err != nil {
				t.Fatalf("%s runtime %v: %v", cfg.name, rt, err)
			}
			bitwiseSame(t, cfg.name+" "+rt.String(), raw.X, shared.X)
			res, err := an.SolveOpts(context.Background(), f, b, SolveOptions{Runtime: rt, Refine: &RefineOptions{}})
			if err != nil {
				t.Fatalf("%s runtime %v: %v", cfg.name, rt, err)
			}
			if res.Refine.BackwardError > 1e-10 {
				t.Errorf("%s runtime %v: refined backward error %g", cfg.name, rt, res.Refine.BackwardError)
			}
			for i := range x {
				if math.Abs(res.X[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
					t.Fatalf("%s runtime %v: x[%d] = %g, want %g", cfg.name, rt, i, res.X[i], x[i])
				}
			}
		}
	}
}

// TestBLRExplicitCompress covers the per-factor path a serving layer uses:
// factorize dense, compress explicitly, and verify validation; an
// mpsim-pinned analysis compresses too and solves to the RuntimeShared bits.
func TestBLRExplicitCompress(t *testing.T) {
	a := gen.Laplacian3D(8, 8, 8)
	an, err := Analyze(a, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	before := f.MemoryBytes()
	if _, err := f.Compress(BLROptions{Tol: -1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("negative Tol: err = %v", err)
	}
	if _, err := f.Compress(BLROptions{}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("zero Tol: err = %v", err)
	}
	st, err := f.Compress(BLROptions{Tol: 1e-8, MinBlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.DenseBytes != before || f.MemoryBytes() >= before {
		t.Errorf("explicit compress accounting: dense %d (resident before %d), now %d",
			st.DenseBytes, before, f.MemoryBytes())
	}
	// Robust factorization with BLR at analysis level compresses too.
	anb, err := Analyze(a, Options{Processors: 2, BLR: BLROptions{Tol: 1e-8, MinBlockSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	fr, _, err := anb.FactorizeRobust(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Compressed() {
		t.Error("FactorizeRobust skipped the compression pass")
	}
	// An mpsim-pinned analysis compresses explicitly, and its solve (the
	// analysis runtime) returns the bits of the RuntimeShared solve.
	anm, err := Analyze(a, Options{Processors: 2, Runtime: RuntimeMPSim})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := anm.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.Compress(BLROptions{Tol: 1e-8}); err != nil {
		t.Fatalf("mpsim-pinned compress: %v", err)
	}
	_, b := gen.RHSForSolution(a)
	got, err := anm.SolveOpts(context.Background(), fm, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := anm.SolveOpts(context.Background(), fm, b, SolveOptions{Runtime: RuntimeShared})
	if err != nil {
		t.Fatal(err)
	}
	bitwiseSame(t, "mpsim-pinned compressed solve", got.X, want.X)
}
