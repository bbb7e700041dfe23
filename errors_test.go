package pastix_test

import (
	"context"
	"errors"
	"testing"

	"github.com/pastix-go/pastix"
)

// notSPD builds the 2×2 matrix [[1,1],[1,1]]: the first pivot is 1, the
// second elimination step hits a zero pivot, so the unpivoted LDLᵀ breaks
// down deterministically.
func notSPD() *pastix.Matrix {
	b := pastix.NewBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	b.Add(1, 0, 1)
	return b.Build()
}

func TestErrNotSPDIsAs(t *testing.T) {
	an, err := pastix.Analyze(notSPD(), pastix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = an.Factorize()
	if err == nil {
		t.Fatal("factorizing a singular matrix succeeded")
	}
	if !errors.Is(err, pastix.ErrNotSPD) {
		t.Fatalf("errors.Is(err, ErrNotSPD) false for %v", err)
	}
	var zp *pastix.ZeroPivotError
	if !errors.As(err, &zp) {
		t.Fatalf("errors.As(*ZeroPivotError) false for %v", err)
	}
	if zp.Column != 1 {
		t.Fatalf("offending column %d, want 1", zp.Column)
	}
	// The sentinels must stay distinguishable.
	if errors.Is(err, pastix.ErrShape) || errors.Is(err, pastix.ErrBadOptions) || errors.Is(err, pastix.ErrFactorMismatch) {
		t.Fatalf("pivot error matches an unrelated sentinel: %v", err)
	}
}

func TestErrShapeAndFactorMismatch(t *testing.T) {
	a := pastix.NewBuilder(3)
	a.Add(0, 0, 4)
	a.Add(1, 1, 4)
	a.Add(2, 2, 4)
	a.Add(1, 0, -1)
	a.Add(2, 1, -1)
	m := a.Build()
	an, err := pastix.Analyze(m, pastix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Solve(f, make([]float64, 2)); !errors.Is(err, pastix.ErrShape) {
		t.Fatalf("short rhs: got %v, want ErrShape", err)
	}
	an2, err := pastix.Analyze(m, pastix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an2.Solve(f, make([]float64, 3)); !errors.Is(err, pastix.ErrFactorMismatch) {
		t.Fatalf("foreign factor: got %v, want ErrFactorMismatch", err)
	}
	if _, err := an2.SolveOpts(context.Background(), f, make([]float64, 3), pastix.SolveOptions{}); !errors.Is(err, pastix.ErrFactorMismatch) {
		t.Fatalf("foreign factor (parallel): got %v, want ErrFactorMismatch", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (pastix.Options{}).Validate(); err != nil {
		t.Fatalf("zero-value options invalid: %v", err)
	}
	bad := []pastix.Options{
		{Processors: -1},
		{BlockSize: -8},
		{Ratio2D: -2},
		{LeafSize: -1},
		{Ordering: pastix.OrderingMethod(99)},
	}
	for i, o := range bad {
		if err := o.Validate(); !errors.Is(err, pastix.ErrBadOptions) {
			t.Fatalf("case %d: Validate() = %v, want ErrBadOptions", i, err)
		}
		if _, err := pastix.Analyze(notSPD(), o); !errors.Is(err, pastix.ErrBadOptions) {
			t.Fatalf("case %d: Analyze = %v, want ErrBadOptions", i, err)
		}
	}
}
