package service

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

// TestServerBLRFactorize exercises the compressed-factor serving path end to
// end: a factorize request carrying a blr block returns compression
// accounting, solves against the compressed handle recover full accuracy
// under refinement, the mpsim engine is refused, and the /metrics gauges
// report the store's resident bytes and compression ratio.
func TestServerBLRFactorize(t *testing.T) {
	s, err := New(Config{
		Solver:     pastix.Options{Processors: 3},
		Workers:    4,
		QueueDepth: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := gen.Laplacian3D(10, 10, 10)
	mm := mmString(t, a)

	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{
		MatrixMarket: mm,
		BLR:          &blrRequestOptions{Tol: 1e-8, MinBlockSize: 8},
	}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	if fr.Compression == nil {
		t.Fatal("blr factorize response carries no compression stats")
	}
	if fr.Compression.CompressedBytes >= fr.Compression.DenseBytes ||
		fr.Compression.Ratio <= 1 || fr.Compression.BlocksCompressed == 0 {
		t.Fatalf("implausible compression stats: %+v", fr.Compression)
	}

	// A refined solve against the compressed handle reaches the dense-path
	// solution despite the lossy storage.
	x, b := gen.RHSForSolution(a)
	var sr solveResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		Handle:  fr.Handle,
		B:       b,
		Options: &solveRequestOptions{Refine: &refineRequestOptions{}},
	}, &sr); st != http.StatusOK {
		t.Fatalf("solve status %d", st)
	}
	if sr.BackwardError > 1e-10 {
		t.Errorf("refined backward error %g", sr.BackwardError)
	}
	for i := range x {
		if math.Abs(sr.X[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, sr.X[i], x[i])
		}
	}

	// The message-passing engine needs dense factors: pinning it against a
	// compressed handle is a client error.
	var er errorResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{
		Handle:  fr.Handle,
		B:       b,
		Options: &solveRequestOptions{Runtime: "mpsim"},
	}, &er); st != http.StatusBadRequest {
		t.Fatalf("mpsim solve on compressed handle: status %d, body %+v", st, er)
	}

	// The metrics gauges sample the store: resident bytes equal the compressed
	// size and the ratio matches the factorize response.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	wantBytes := "pastix_factor_store_bytes " + strconv.FormatInt(fr.Compression.CompressedBytes, 10)
	if !strings.Contains(text, wantBytes) {
		t.Errorf("metrics missing %q", wantBytes)
	}
	if !strings.Contains(text, "pastix_factor_store_compression_ratio ") {
		t.Error("metrics missing pastix_factor_store_compression_ratio")
	}
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "pastix_factor_store_compression_ratio "); ok {
			got, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				t.Fatalf("parse ratio %q: %v", v, err)
			}
			if math.Abs(got-fr.Compression.Ratio) > 1e-9*fr.Compression.Ratio {
				t.Errorf("metrics ratio %g, factorize reported %g", got, fr.Compression.Ratio)
			}
		}
	}

	// Release the handle: the gauges fall back to the empty-store baseline.
	if st := postJSON(t, ts.URL+"/v1/release", releaseRequest{Handle: fr.Handle}, nil); st != http.StatusOK {
		t.Fatalf("release status %d", st)
	}
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body2), "pastix_factor_store_bytes 0") {
		t.Error("released store still reports resident factor bytes")
	}
	if !strings.Contains(string(body2), "pastix_factor_store_compression_ratio 1") {
		t.Error("empty store does not report the neutral ratio 1")
	}
}

// TestServerBLRValidation pins the request-level rejections: a blr block with
// a bad (or missing) tolerance is a 400, and a server whose solver options
// conflict with compression refuses the request rather than corrupting the
// handle's solve contract.
func TestServerBLRValidation(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{Processors: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mm := mmString(t, gen.Laplacian3D(5, 5, 5))

	for _, blr := range []*blrRequestOptions{
		{Tol: 0},                      // present but disabled: client error, not a silent no-op
		{Tol: -1e-8},                  // negative
		{Tol: 1},                      // ≥ 1 keeps nothing
		{Tol: 1e-8, MinBlockSize: -4}, // negative admission floor
	} {
		var er errorResponse
		if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm, BLR: blr}, &er); st != http.StatusBadRequest {
			t.Errorf("blr %+v: status %d, want 400 (%+v)", blr, st, er)
		}
	}

	// A server pinned to the message-passing runtime cannot honor blr: its
	// solves read dense factors.
	sm, err := New(Config{Solver: pastix.Options{Processors: 2, Runtime: pastix.RuntimeMPSim}})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	tsm := httptest.NewServer(sm.Handler())
	defer tsm.Close()
	var er errorResponse
	if st := postJSON(t, tsm.URL+"/v1/factorize", matrixRequest{
		MatrixMarket: mm, BLR: &blrRequestOptions{Tol: 1e-8},
	}, &er); st != http.StatusBadRequest {
		t.Errorf("mpsim-pinned server accepted blr: status %d (%+v)", st, er)
	}
}

// TestServerBLRBatchedSolves drives plain (options-free) solve requests
// against a compressed handle: they ride the multi-RHS batcher and the
// level-set panel engine on compressed kernels, matching an independent
// library-level compressed solve bit for bit.
func TestServerBLRBatchedSolves(t *testing.T) {
	s, err := New(Config{
		Solver:     pastix.Options{Processors: 3},
		MaxBatch:   4,
		Workers:    4,
		QueueDepth: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := gen.Laplacian3D(7, 7, 7)
	mm := mmString(t, a)
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{
		MatrixMarket: mm,
		BLR:          &blrRequestOptions{Tol: 1e-10, MinBlockSize: 8},
	}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	if fr.Compression == nil {
		t.Fatal("no compression stats")
	}

	// Independent reference: the same compressed factor solved through the
	// library (sequential compressed path — the level-set engine is per-column
	// bit-identical to it).
	an, err := pastix.Analyze(a, pastix.Options{
		Processors: 3,
		BLR:        pastix.BLROptions{Tol: 1e-10, MinBlockSize: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for j := range b {
		b[j] = math.Sin(float64(j + 1))
	}
	ref, err := an.Solve(f, b)
	if err != nil {
		t.Fatal(err)
	}
	var sr solveResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: b}, &sr); st != http.StatusOK {
		t.Fatalf("solve status %d", st)
	}
	for i := range ref {
		if sr.X[i] != ref[i] {
			t.Fatalf("x[%d] = %x, library reference %x", i, sr.X[i], ref[i])
		}
	}
}
