package service

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

// newSolveOptsServer boots a server and factorizes a Poisson problem,
// returning the test server URL and the factor handle.
func newSolveOptsServer(t *testing.T, opts pastix.Options) (*Server, *httptest.Server, string, *pastix.Matrix) {
	t.Helper()
	s, err := New(Config{
		Solver:     opts,
		MaxBatch:   8,
		Workers:    4,
		QueueDepth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	a := gen.Laplacian2D(14, 14)
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mmString(t, a)}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	if fr.SolvePlan == nil || fr.SolvePlan.Cells == 0 {
		t.Fatalf("factorize did not prewarm a solve plan: %+v", fr.SolvePlan)
	}
	return s, ts, fr.Handle, a
}

// TestServerSolveOptions exercises the options-bearing /v1/solve body: a
// panel request with refinement and a pinned runtime, checked against the
// reference sequential solve of each column.
func TestServerSolveOptions(t *testing.T) {
	_, ts, handle, a := newSolveOptsServer(t, pastix.Options{Processors: 3})
	an, err := pastix.Analyze(a, pastix.Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(a)
	n := a.N
	const nrhs = 3
	panel := make([]float64, n*nrhs)
	for r := 0; r < nrhs; r++ {
		for i := 0; i < n; i++ {
			panel[i+r*n] = b[i] * float64(r+1)
		}
	}

	var sr solveResponse
	st := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		Handle:  handle,
		B:       panel,
		Options: &solveRequestOptions{NRHS: nrhs, Refine: &refineRequestOptions{}},
	}, &sr)
	if st != http.StatusOK {
		t.Fatalf("solve status %d", st)
	}
	if sr.NRHS != nrhs || len(sr.X) != n*nrhs {
		t.Fatalf("panel response nrhs=%d len(x)=%d", sr.NRHS, len(sr.X))
	}
	if sr.Plan == nil || sr.Plan.Cells == 0 {
		t.Fatalf("level-set solve reported no plan: %+v", sr.Plan)
	}
	for r := 0; r < nrhs; r++ {
		col := sr.X[r*n : (r+1)*n]
		if res := pastix.Residual(a, col, panel[r*n:(r+1)*n]); res > 1e-10 {
			t.Fatalf("column %d residual %g", r, res)
		}
	}

	// Pinning the sequential engine must reproduce the library's Solve bit
	// for bit (no plan reported — the level-set engine did not run).
	ref, err := an.Solve(f, b)
	if err != nil {
		t.Fatal(err)
	}
	var seq solveResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		Handle:  handle,
		B:       b,
		Options: &solveRequestOptions{Runtime: "seq"},
	}, &seq); st != http.StatusOK {
		t.Fatalf("seq solve status %d", st)
	}
	if seq.Plan != nil {
		t.Fatalf("sequential solve reported a plan: %+v", seq.Plan)
	}
	for i := range ref {
		if seq.X[i] != ref[i] {
			t.Fatalf("seq x[%d] = %x, library %x", i, seq.X[i], ref[i])
		}
	}

	// Old-style body (no options) still works and reports the batch plan.
	var legacy solveResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{Handle: handle, B: b}, &legacy); st != http.StatusOK {
		t.Fatalf("legacy solve status %d", st)
	}
	if len(legacy.X) != n || legacy.Batched < 1 {
		t.Fatalf("legacy response: len(x)=%d batched=%d", len(legacy.X), legacy.Batched)
	}
	for i := range ref {
		if legacy.X[i] != ref[i] {
			t.Fatalf("legacy x[%d] = %x, library %x (level-set batch must match sequential)", i, legacy.X[i], ref[i])
		}
	}
	if legacy.Plan == nil || legacy.Plan.Cells == 0 {
		t.Fatalf("batched solve reported no plan: %+v", legacy.Plan)
	}
}

// TestServerSolveOptionsErrors pins the error mapping of the options path.
func TestServerSolveOptionsErrors(t *testing.T) {
	_, ts, handle, a := newSolveOptsServer(t, pastix.Options{Processors: 2})
	_, b := gen.RHSForSolution(a)
	var er errorResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		Handle: handle, B: b,
		Options: &solveRequestOptions{Runtime: "warp-drive"},
	}, &er); st != http.StatusBadRequest {
		t.Fatalf("unknown runtime: status %d (%+v)", st, er)
	}
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		Handle: handle, B: b,
		Options: &solveRequestOptions{NRHS: 2},
	}, &er); st != http.StatusBadRequest {
		t.Fatalf("short panel: status %d (%+v)", st, er)
	}
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		Handle: handle, B: b,
		Options: &solveRequestOptions{Refine: &refineRequestOptions{Tol: -1}},
	}, &er); st != http.StatusBadRequest {
		t.Fatalf("negative tolerance: status %d (%+v)", st, er)
	}
}
