package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

func mmString(t *testing.T, a *pastix.Matrix) string {
	t.Helper()
	var sb strings.Builder
	if err := pastix.WriteMatrixMarket(&sb, a, "service test"); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func postJSON(t *testing.T, url string, body, into any) (status int) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// End-to-end over real HTTP: analyze twice (second is a cache hit),
// factorize against the cached analysis, park k concurrent solves behind a
// busy worker pool so they coalesce, and check every returned column is
// bit-identical to an independent single-RHS SolveOpts call against the
// same factor.
func TestServerEndToEnd(t *testing.T) {
	s, err := New(Config{
		Solver:     pastix.Options{Processors: 3},
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

	a := gen.Laplacian3D(6, 6, 6)
	mm := mmString(t, a)

	var ar analyzeResponse
	if st := postJSON(t, ts.URL+"/v1/analyze", matrixRequest{MatrixMarket: mm}, &ar); st != http.StatusOK {
		t.Fatalf("analyze status %d", st)
	}
	if ar.Cached {
		t.Fatal("first analyze reported cached=true")
	}
	if ar.N != a.N || ar.Fingerprint == "" || ar.Tasks <= 0 {
		t.Fatalf("bad analyze response: %+v", ar)
	}
	var ar2 analyzeResponse
	if st := postJSON(t, ts.URL+"/v1/analyze", matrixRequest{MatrixMarket: mm}, &ar2); st != http.StatusOK {
		t.Fatalf("second analyze status %d", st)
	}
	if !ar2.Cached {
		t.Fatal("second analyze for the same pattern was not a cache hit")
	}
	if ar2.Fingerprint != ar.Fingerprint {
		t.Fatalf("fingerprint changed: %s vs %s", ar.Fingerprint, ar2.Fingerprint)
	}
	if s.Metrics().CacheHits.Value() < 1 {
		t.Fatal("cache hit not counted")
	}

	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	if !fr.AnalysisCached {
		t.Fatal("factorize did not reuse the cached analysis")
	}
	if fr.Handle == "" {
		t.Fatal("empty factor handle")
	}

	// k concurrent solves against one handle, coalesced behind a held worker
	// slot.
	const k = 4
	n := a.N
	bs := make([][]float64, k)
	for i := range bs {
		bs[i] = make([]float64, n)
		for j := range bs[i] {
			bs[i][j] = math.Cos(float64(1+j*(i+2))) + float64(i)
		}
	}
	e, err := s.store.Get(fr.Handle)
	if err != nil {
		t.Fatal(err)
	}
	xs := solveParked(t, s, ts.URL, fr.Handle, bs)

	// Bit-identity: each batched column must equal an independent
	// single-RHS SolveOpts against the very same analysis and factor.
	for i := 0; i < k; i++ {
		res, err := e.an.SolveOpts(context.Background(), e.f, bs[i], pastix.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := res.X
		if len(xs[i]) != n {
			t.Fatalf("solve %d returned %d values, want %d", i, len(xs[i]), n)
		}
		for j := range want {
			if xs[i][j] != want[j] {
				t.Fatalf("solve %d: x[%d] = %v, independent SolveOpts = %v (not bit-identical)",
					i, j, xs[i][j], want[j])
			}
		}
	}

	// Metrics scrape reflects the traffic.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text := readAll(t, resp)
	for _, want := range []string{
		"pastix_cache_hits_total",
		"pastix_cache_misses_total 1",
		"pastix_batches_total",
		"pastix_batched_rhs_total",
		"pastix_factors_live 1",
		`pastix_phase_latency_seconds_count{phase="solve"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if !metricAtLeast(t, text, "pastix_cache_hits_total", 1) {
		t.Errorf("pastix_cache_hits_total < 1 in:\n%s", text)
	}

	// Release the handle; further solves 404.
	if st := postJSON(t, ts.URL+"/v1/release", releaseRequest{Handle: fr.Handle}, nil); st != http.StatusOK {
		t.Fatalf("release status %d", st)
	}
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: bs[0]}, nil); st != http.StatusNotFound {
		t.Fatalf("solve after release: status %d, want 404", st)
	}
}

// TestServerFactorStoreBytesDense: pastix_factor_store_bytes of a dense
// handle equals the factor values the handle holds, and nothing of the
// factor's size lives beside them (a solve-layout copy would double the
// live heap the handle adds).
func TestServerFactorStoreBytesDense(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{Processors: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mm := mmString(t, gen.Laplacian3D(16, 16, 16))
	// Analyze first, so the measured window adds only the handle.
	if st := postJSON(t, ts.URL+"/v1/analyze", matrixRequest{MatrixMarket: mm}, nil); st != http.StatusOK {
		t.Fatalf("analyze status %d", st)
	}
	before := liveHeap()
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	after := liveHeap()
	e, err := s.store.Get(fr.Handle)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.f.ExportPayload()
	if err != nil {
		t.Fatal(err)
	}
	var held int64
	for _, c := range p.Cells {
		held += 8 * int64(len(c))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text := readAll(t, resp)
	if held == 0 || !strings.Contains(text, fmt.Sprintf("pastix_factor_store_bytes %d\n", held)) {
		t.Fatalf("pastix_factor_store_bytes is not the %d bytes of factor values the handle holds", held)
	}
	if grew := int64(after) - int64(before); grew > held+held/4 {
		t.Fatalf("the handle added %d live bytes for %d bytes of factor values", grew, held)
	}
}

// liveHeap returns the bytes of reachable heap objects. One GC is not enough:
// a sync.Pool keeps what it held before a GC in its victim cache until the
// next one, and the request-body pool (wireBufs) holds buffers of up to
// 1 MiB. Which buffer a Get returns depends on the P it runs on, so a
// factorize body may be freshly allocated inside a measured window and still
// pooled at its end, adding its size (about 0.5 MB for a 16³ Laplacian) to
// the window. A second GC empties every pool's victim cache as well.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// At Processors 1 a coalesced batch runs on the sequential engine. Each
// rider must still get the bits a solo Analysis.Solve returns: three solves
// parked behind a held worker slot coalesce into one panel, and every column
// is compared bit for bit with the single-RHS reference.
func TestServerBatchP1BitIdentical(t *testing.T) {
	s, err := New(Config{
		Solver:     pastix.Options{Processors: 1},
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

	a := gen.Laplacian3D(6, 6, 6)
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mmString(t, a)}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	e, err := s.store.Get(fr.Handle)
	if err != nil {
		t.Fatal(err)
	}

	const k = 4
	n := a.N
	bs := make([][]float64, k)
	for i := range bs {
		bs[i] = make([]float64, n)
		for j := range bs[i] {
			bs[i][j] = math.Sin(float64(1+j*(i+3))) + float64(i)
		}
	}
	xs := solveParked(t, s, ts.URL, fr.Handle, bs)
	for i := 0; i < k; i++ {
		want, err := e.an.Solve(e.f, bs[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(xs[i]) != n {
			t.Fatalf("solve %d returned %d values, want %d", i, len(xs[i]), n)
		}
		for j := range want {
			if xs[i][j] != want[j] {
				t.Fatalf("solve %d: x[%d] = %x, solo Solve = %x (not bit-identical)", i, j, xs[i][j], want[j])
			}
		}
	}
}

// solveParked posts one solve per right-hand side against handle while the
// test holds the only worker slot: the first solve's batch waits for the
// slot in flight while the rest queue behind it, so freeing the slot runs
// them as one panel. It asserts that coalescing and returns each answer.
func solveParked(t *testing.T, s *Server, url, handle string, bs [][]float64) [][]float64 {
	t.Helper()
	e, err := s.store.Get(handle)
	if err != nil {
		t.Fatal(err)
	}
	k := len(bs)
	xs := make([][]float64, k)
	batched := make([]int, k)
	var wg sync.WaitGroup
	s.active <- struct{}{}
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sr solveResponse
			if st := postJSON(t, url+"/v1/solve", solveRequest{Handle: handle, B: bs[i]}, &sr); st != http.StatusOK {
				t.Errorf("solve %d status %d", i, st)
				return
			}
			xs[i] = sr.X
			batched[i] = sr.Batched
		}(i)
	}
	waitParked(t, e.batch, k-1)
	<-s.active
	wg.Wait()

	sort.Ints(batched)
	want := []int{1}
	for i := 1; i < k; i++ {
		want = append(want, k-1)
	}
	if !reflect.DeepEqual(batched, want) {
		t.Fatalf("batch sizes %v, want %v: the parked solves did not coalesce", batched, want)
	}
	return xs
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		m, err := resp.Body.Read(buf)
		sb.Write(buf[:m])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// metricAtLeast parses a single un-labelled counter line from Prometheus
// text and checks its value.
func metricAtLeast(t *testing.T, text, name string, min float64) bool {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v >= min
		}
	}
	return false
}

// A full admission queue sheds with 429 and counts the shed.
func TestServerAdmissionShed(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{Processors: 1}, QueueDepth: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only queue slot so the next request sheds immediately.
	s.queue <- struct{}{}
	defer func() { <-s.queue }()

	mm := mmString(t, gen.Laplacian3D(3, 3, 3))
	if st := postJSON(t, ts.URL+"/v1/analyze", matrixRequest{MatrixMarket: mm}, nil); st != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", st)
	}
	if s.Metrics().Shed.Value() != 1 {
		t.Fatalf("shed counter %d, want 1", s.Metrics().Shed.Value())
	}
}

func TestServerRequestErrors(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{Processors: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Unknown handle → 404.
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{Handle: "nope", B: []float64{1}}, nil); st != http.StatusNotFound {
		t.Fatalf("unknown handle: status %d, want 404", st)
	}
	// Unparsable matrix → 400.
	if st := postJSON(t, ts.URL+"/v1/analyze", matrixRequest{MatrixMarket: "not a matrix"}, nil); st != http.StatusBadRequest {
		t.Fatalf("bad matrix: status %d, want 400", st)
	}
	// Wrong RHS length → 400.
	mm := mmString(t, gen.Laplacian3D(3, 3, 3))
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	if st := postJSON(t, ts.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: []float64{1, 2}}, nil); st != http.StatusBadRequest {
		t.Fatalf("short rhs: status %d, want 400", st)
	}
	if s.Metrics().RequestErrors.Value() < 3 {
		t.Fatalf("request errors %d, want ≥ 3", s.Metrics().RequestErrors.Value())
	}
}

// A client deadline too short for the analysis surfaces as 504 gateway
// timeout via the context-aware API.
func TestServerDeadline(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{Processors: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mm := mmString(t, gen.Laplacian3D(16, 16, 16))
	st := postJSON(t, ts.URL+"/v1/analyze", matrixRequest{MatrixMarket: mm, DeadlineMS: 1}, nil)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", st)
	}
}

// A solve whose solution overflows is a structured 422 "non_finite", on the
// batched and the direct path alike, not a 200 with an empty body; a finite
// solve carries its Content-Length. Any other value JSON cannot carry is a 500.
func TestServerNonFiniteSolution(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{Processors: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// n = 512: the response outgrows net/http's buffer, which used to send
	// it chunked.
	a := gen.Laplacian3D(8, 8, 8)
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mmString(t, a)}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	buf, err := json.Marshal(solveRequest{Handle: fr.Handle, B: b})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("finite solve: status %d, Content-Length %d for %d bytes, transfer encoding %v",
			resp.StatusCode, resp.ContentLength, len(body), resp.TransferEncoding)
	}

	for i := range b {
		b[i] = 1.7e308
	}
	for _, req := range []solveRequest{
		{Handle: fr.Handle, B: b},
		{Handle: fr.Handle, B: b, Options: &solveRequestOptions{NRHS: 1}},
	} {
		var er errorResponse
		if st := postJSON(t, ts.URL+"/v1/solve", req, &er); st != http.StatusUnprocessableEntity || er.Code != "non_finite" {
			t.Fatalf("overflowing solve (options %v): status %d code %q, want 422 non_finite", req.Options, st, er.Code)
		}
	}

	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, analyzeResponse{PredictedTime: math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable response: status %d, want 500", rec.Code)
	}
}

// Every endpoint decodes the whole body: bytes other than whitespace after
// the JSON value are a 400, where a streaming decoder used to ignore them.
func TestServerRejectsTrailingBytes(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{Processors: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := gen.Laplacian3D(3, 3, 3)
	mm := mmString(t, a)
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	post := func(path string, body any, tail string) int {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(string(buf)+tail))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	solve := solveRequest{Handle: fr.Handle, B: make([]float64, a.N)}
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/analyze", matrixRequest{MatrixMarket: mm}},
		{"/v1/factorize", matrixRequest{MatrixMarket: mm}},
		{"/v1/solve", solve},
		{"/v1/solve", solveRequest{Handle: fr.Handle, B: solve.B, Options: &solveRequestOptions{NRHS: 1}}},
		{"/v1/stat", statRequest{Handle: fr.Handle}},
		{"/v1/replicate", replicateRequest{Handle: fr.Handle}},
		{"/v1/release", releaseRequest{Handle: fr.Handle}},
	} {
		if st := post(c.path, c.body, " junk"); st != http.StatusBadRequest {
			t.Errorf("%s with trailing bytes: status %d, want 400", c.path, st)
		}
	}
	if st := post("/v1/solve", solve, " \r\n\t"); st != http.StatusOK {
		t.Errorf("solve with trailing whitespace: status %d, want 200", st)
	}
}
