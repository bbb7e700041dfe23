package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/sparse"
)

// A numerically singular matrix with no pivoting configured must fail with a
// structured 422 naming the offending column — not a generic 400 or 500.
func TestServerNotSPD422(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{Processors: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mm := mmString(t, gen.GradedPivot(2, 6, 1e-2, 0.05, true))
	var er errorResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &er); st != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", st)
	}
	if er.Code != "not_spd" {
		t.Fatalf("code %q, want not_spd", er.Code)
	}
	if er.Column == nil {
		t.Fatalf("422 body carries no offending column: %+v", er)
	}
}

// A matrix no ε_piv can save (all-zero ⇒ ‖A‖_max = 0 ⇒ τ = 0 at every
// escalation) must exhaust the robust retries and return a structured 422
// with the attempt count.
func TestServerPivotExhausted422(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{
		Processors:  1,
		StaticPivot: pastix.StaticPivotOptions{Epsilon: 1e-12, MaxRetries: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	zb := sparse.NewBuilder(4)
	for i := 0; i < 4; i++ {
		zb.Add(i, i, 0)
	}
	mm := mmString(t, zb.Build())
	var er errorResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &er); st != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", st)
	}
	if er.Code != "pivot_exhausted" {
		t.Fatalf("code %q, want pivot_exhausted", er.Code)
	}
	if er.Attempts < 2 {
		t.Fatalf("attempts %d, want ≥ 2", er.Attempts)
	}
}

// With static pivoting configured up front, a singular matrix factorizes as a
// degraded success: 200 with the perturbed columns on the factorize reply,
// and solves refined to the backward-error target with diagnostics attached.
func TestServerDegradedSuccess(t *testing.T) {
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
	mm := mmString(t, a)
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d, want 200 (degraded success)", st)
	}
	if len(fr.PerturbedColumns) == 0 {
		t.Fatalf("no perturbed columns reported: %+v", fr)
	}
	if fr.PivotEpsilon != 1e-12 {
		t.Fatalf("pivot epsilon %g, want 1e-12", fr.PivotEpsilon)
	}

	_, b := gen.RHSForSolution(a)
	var sr solveResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: b}, &sr); st != http.StatusOK {
		t.Fatalf("solve status %d, want 200", st)
	}
	if !sr.Degraded {
		t.Fatalf("solve against a perturbed factor not marked degraded: %+v", sr)
	}
	if len(sr.PerturbedColumns) == 0 {
		t.Fatal("degraded solve carries no perturbed columns")
	}
	if sr.BackwardError <= 0 || sr.BackwardError > 1e-10 {
		t.Fatalf("backward error %g outside (0, 1e-10]", sr.BackwardError)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text := readAll(t, resp)
	if !metricAtLeast(t, text, "pastix_pivot_perturbations_total", 1) {
		t.Errorf("pastix_pivot_perturbations_total < 1 in:\n%s", text)
	}
	if !metricAtLeast(t, text, "pastix_degraded_solves_total", 1) {
		t.Errorf("pastix_degraded_solves_total < 1 in:\n%s", text)
	}
}

// With pivoting off but retries allowed, a breakdown triggers the robust
// ε-escalation fallback: the factorize reply reports the attempts taken and
// the probe backward error instead of an error status.
func TestServerRobustFallback(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{
		Processors:  2,
		StaticPivot: pastix.StaticPivotOptions{MaxRetries: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mm := mmString(t, gen.GradedPivot(3, 8, 1e-2, 0.05, true))
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d, want 200 (robust fallback)", st)
	}
	if fr.PivotAttempts < 2 {
		t.Fatalf("pivot attempts %d, want ≥ 2 (unpivoted try + escalation)", fr.PivotAttempts)
	}
	if len(fr.PerturbedColumns) == 0 {
		t.Fatalf("robust fallback reported no perturbed columns: %+v", fr)
	}
	if fr.BackwardError <= 0 || fr.BackwardError > 1e-10 {
		t.Fatalf("probe backward error %g outside (0, 1e-10]", fr.BackwardError)
	}
	if s.Metrics().PivotRetries.Value() < 1 {
		t.Fatal("pivot retries not counted")
	}
}

// Graceful shutdown: BeginDrain flips /readyz to 503 (while /healthz stays a
// 200 liveness signal) and sheds new requests with 503, while a solve already
// parked behind the busy worker pool completes and Drain returns once it has.
func TestServerDrain(t *testing.T) {
	s, err := New(Config{
		Solver:  pastix.Options{Processors: 2},
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := gen.Laplacian3D(4, 4, 4)
	mm := mmString(t, a)
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}

	e, err := s.store.Get(fr.Handle)
	if err != nil {
		t.Fatal(err)
	}

	// Park a solve: the test holds the only worker slot, so the solve's batch
	// waits for it in flight. Then start draining under it.
	_, b := gen.RHSForSolution(a)
	var (
		wg     sync.WaitGroup
		status int
		sr     solveResponse
	)
	s.active <- struct{}{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		status = postJSON(t, ts.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: b}, &sr)
	}()
	waitParked(t, e.batch, 0)
	s.BeginDrain()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	text := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz status %d while draining, want 503", resp.StatusCode)
	}
	if !strings.Contains(text, `"draining"`) {
		t.Fatalf("readyz body %q does not report draining", text)
	}
	// Liveness is unaffected by draining: the process is healthy, just not
	// routable.
	live, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	live.Body.Close()
	if live.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d while draining, want 200 (liveness)", live.StatusCode)
	}
	if st := postJSON(t, ts.URL+"/v1/analyze", matrixRequest{MatrixMarket: mm}, nil); st != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: status %d, want 503", st)
	}

	// Drain waits for the parked solve, which cannot run while the worker
	// slot is held.
	short, cancelShort := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelShort()
	if err := s.Drain(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with a parked solve returned %v, want a deadline error", err)
	}
	<-s.active
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	wg.Wait()
	if status != http.StatusOK {
		t.Fatalf("parked solve finished with status %d, want 200", status)
	}
	if len(sr.X) != a.N {
		t.Fatalf("parked solve returned %d values, want %d", len(sr.X), a.N)
	}
}
