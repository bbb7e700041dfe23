package service

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

// TestServerDynamicRuntime runs the full analyze → factorize → solve HTTP
// round trip with the work-stealing runtime configured as the service's
// solver backend, checking that solves come back with the usual accuracy.
func TestServerDynamicRuntime(t *testing.T) {
	s, err := New(Config{
		Solver:  pastix.Options{Processors: 4, Runtime: pastix.RuntimeDynamic},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := gen.Laplacian2D(13, 13)
	mm := mmString(t, a)

	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	if fr.Handle == "" {
		t.Fatal("empty factor handle")
	}

	x, b := gen.RHSForSolution(a)
	var sr solveResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: b}, &sr); st != http.StatusOK {
		t.Fatalf("solve status %d", st)
	}
	for i := range x {
		if math.Abs(sr.X[i]-x[i]) > 1e-9 {
			t.Fatalf("x[%d]=%g want %g", i, sr.X[i], x[i])
		}
	}
}

// TestServerSequentialRuntime pins that a service configured with the
// sequential runtime, which records no execution trace, factorizes: its
// solve is bit-identical to the library's Solve on FactorizeValues of the
// same matrix under the same options.
func TestServerSequentialRuntime(t *testing.T) {
	a := gen.Laplacian2D(13, 13)
	mm := mmString(t, a)
	_, b := gen.RHSForSolution(a)
	for _, p := range []int{1, 2} {
		opts := pastix.Options{Processors: p, Runtime: pastix.RuntimeSequential}
		s, err := New(Config{Solver: opts, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())

		var fr factorizeResponse
		if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &fr); st != http.StatusOK {
			t.Fatalf("P=%d: factorize status %d", p, st)
		}
		var sr solveResponse
		if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: b}, &sr); st != http.StatusOK {
			t.Fatalf("P=%d: solve status %d", p, st)
		}
		ts.Close()
		s.Close()

		an, err := pastix.Analyze(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		f, err := an.FactorizeValues(context.Background(), a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := an.Solve(f, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.X) != len(want) {
			t.Fatalf("P=%d: solution length %d, want %d", p, len(sr.X), len(want))
		}
		for i := range want {
			if sr.X[i] != want[i] {
				t.Fatalf("P=%d: x[%d] = %x, want %x — not bit-identical", p, i, sr.X[i], want[i])
			}
		}
	}
}

// TestConfigRejectsDynamicWithFaults pins the config-level chaos interplay:
// a service configured with both fault injection and the dynamic runtime
// must fail Validate with the solver's typed options error.
func TestConfigRejectsDynamicWithFaults(t *testing.T) {
	cfg := Config{Solver: pastix.Options{
		Processors: 2,
		Runtime:    pastix.RuntimeDynamic,
		Faults:     &pastix.FaultPlan{Drop: 0.1},
	}}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("dynamic runtime + active faults passed config validation")
	}
	if !errors.Is(err, pastix.ErrBadOptions) {
		t.Fatalf("error %v does not wrap pastix.ErrBadOptions", err)
	}
}
