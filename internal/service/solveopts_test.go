package service

import (
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// An options-bearing panel solve against a perturbed factor gets the same
// degraded-success repair as option-free solves: with no refine block, every
// column comes back bit for bit as the option-free solve of that column, and
// the reply aggregates the per-column refinement as SolveOpts does (worst
// iteration count, worst backward error).
func TestServerDegradedOptionsSolve(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{
		Processors:  2,
		StaticPivot: pastix.StaticPivotOptions{Epsilon: 1e-12},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := gen.GradedPivot(3, 8, 1e-2, 0.05, true)
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mmString(t, a)}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	if len(fr.PerturbedColumns) == 0 {
		t.Fatalf("factor not perturbed: %+v", fr)
	}
	n := a.N
	const nrhs = 3
	// Consistent right-hand sides b = A·x of distinct solutions, so each
	// column's refinement has real work to do.
	panel := make([]float64, n*nrhs)
	x := make([]float64, n)
	for r := 0; r < nrhs; r++ {
		for i := range x {
			x[i] = 1 + math.Sin(float64(1+i*(r+2)))
		}
		a.MatVec(x, panel[r*n:(r+1)*n])
	}

	var wantIters int
	var wantBE float64
	solo := make([]solveResponse, nrhs)
	for r := range solo {
		if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: panel[r*n : (r+1)*n]}, &solo[r]); st != http.StatusOK {
			t.Fatalf("solo solve %d status %d", r, st)
		}
		if !solo[r].Degraded {
			t.Fatalf("solo solve %d not degraded: %+v", r, solo[r])
		}
		wantIters = max(wantIters, solo[r].RefineIters)
		wantBE = max(wantBE, solo[r].BackwardError)
	}

	var sr solveResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		Handle:  fr.Handle,
		B:       panel,
		Options: &solveRequestOptions{NRHS: nrhs},
	}, &sr); st != http.StatusOK {
		t.Fatalf("panel solve status %d", st)
	}
	if sr.NRHS != nrhs || len(sr.X) != n*nrhs || sr.Batched != 0 {
		t.Fatalf("panel reply nrhs=%d len(x)=%d batched=%d", sr.NRHS, len(sr.X), sr.Batched)
	}
	for r := range solo {
		for i, want := range solo[r].X {
			if got := sr.X[r*n+i]; got != want {
				t.Fatalf("column %d: x[%d] = %x, option-free solve %x", r, i, got, want)
			}
		}
	}
	if !sr.Degraded || !reflect.DeepEqual(sr.PerturbedColumns, fr.PerturbedColumns) {
		t.Fatalf("panel reply degraded=%v perturbed=%v, want true and %v", sr.Degraded, sr.PerturbedColumns, fr.PerturbedColumns)
	}
	if sr.BackwardError > 1e-10 || sr.BackwardError != wantBE {
		t.Fatalf("backward error %g, want %g (worst column) and ≤ 1e-10", sr.BackwardError, wantBE)
	}
	if sr.RefineIters != wantIters {
		t.Fatalf("refine iterations %d, want %d (worst column)", sr.RefineIters, wantIters)
	}
}

// TestServerSolveMetrics pins the solve counters the serving benchmark reads:
// each engine call observes the solve latency once, a coalesced batch of k
// adds one batch and k right-hand sides, and an options-bearing solve is not
// a coalesced batch.
func TestServerSolveMetrics(t *testing.T) {
	s, err := New(Config{
		Solver:     pastix.Options{Processors: 2},
		MaxBatch:   8,
		Workers:    1,
		QueueDepth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	a := gen.Laplacian2D(10, 10)
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mmString(t, a)}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	_, b := gen.RHSForSolution(a)
	m := s.Metrics()
	type sample struct{ batches, rhs, sizes, solves int64 }
	read := func() sample {
		return sample{m.Batches.Value(), m.BatchedRHS.Value(), m.BatchSize.Count(), m.SolveSeconds.Count()}
	}
	step := func(what string, do func(), want sample) {
		t.Helper()
		before := read()
		do()
		after := read()
		got := sample{after.batches - before.batches, after.rhs - before.rhs, after.sizes - before.sizes, after.solves - before.solves}
		if got != want {
			t.Fatalf("%s: counter deltas %+v, want %+v", what, got, want)
		}
	}

	step("options panel", func() {
		panel := append(append([]float64(nil), b...), b...)
		var sr solveResponse
		if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: panel, Options: &solveRequestOptions{NRHS: 2}}, &sr); st != http.StatusOK {
			t.Fatalf("options solve status %d", st)
		}
	}, sample{solves: 1})
	step("option-free solve", func() {
		var sr solveResponse
		if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: b}, &sr); st != http.StatusOK {
			t.Fatalf("solve status %d", st)
		}
	}, sample{batches: 1, rhs: 1, sizes: 1, solves: 1})
	// Four parked solves run as a batch of one and a coalesced batch of three.
	step("parked solves", func() {
		solveParked(t, s, ts.URL, fr.Handle, [][]float64{b, b, b, b})
	}, sample{batches: 2, rhs: 4, sizes: 2, solves: 2})
}
