package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

func durableConfig(dir string) Config {
	return Config{Solver: pastix.Options{Processors: 2}, DataDir: dir}
}

func waitReady(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitRecovered(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDurableFactorizeSurvivesRestart is the core durability contract: a
// factorize acknowledged "durable": true survives a restart of the server
// (same data dir, fresh process state), and solves against the recovered
// handle are bitwise-identical to solves before the restart. The idempotency
// store is journaled too, so a retried factorize replays across the restart.
func TestDurableFactorizeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	a := gen.Laplacian3D(5, 5, 5)
	mm := mmString(t, a)
	_, b := gen.RHSForSolution(a)

	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, s1)
	ts1 := httptest.NewServer(s1.Handler())

	var fr factorizeResponse
	if st := postJSON(t, ts1.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm, IdempotencyKey: "dur-1"}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	if !fr.Durable {
		t.Fatal("factorize on a durable server did not report durable")
	}
	var sr1 solveResponse
	if st := postJSON(t, ts1.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: b}, &sr1); st != http.StatusOK {
		t.Fatalf("solve status %d", st)
	}
	ts1.Close()
	s1.Close()

	// Restart: a fresh server over the same data dir replays the journal.
	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	waitReady(t, s2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	if s2.Instance() == s1.Instance() {
		t.Fatal("restarted server kept the instance id")
	}
	var sr2 solveResponse
	if st := postJSON(t, ts2.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: b}, &sr2); st != http.StatusOK {
		t.Fatalf("solve against recovered handle: status %d", st)
	}
	if len(sr1.X) != len(sr2.X) {
		t.Fatal("solution length changed across restart")
	}
	for i := range sr1.X {
		if sr1.X[i] != sr2.X[i] {
			t.Fatalf("x[%d]: recovered solve %x differs from pre-restart %x", i, sr2.X[i], sr1.X[i])
		}
	}
	// The journaled idempotency entry replays across the restart.
	var fr2 factorizeResponse
	if st := postJSON(t, ts2.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm, IdempotencyKey: "dur-1"}, &fr2); st != http.StatusOK {
		t.Fatalf("retried factorize status %d", st)
	}
	if !fr2.IdempotentReplay || fr2.Handle != fr.Handle {
		t.Fatalf("idempotency lost across restart: %+v", fr2)
	}
	// New handles issued after recovery never collide with recovered ones.
	var fr3 factorizeResponse
	if st := postJSON(t, ts2.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &fr3); st != http.StatusOK {
		t.Fatalf("fresh factorize status %d", st)
	}
	if fr3.Handle == fr.Handle {
		t.Fatal("fresh handle collided with a recovered one")
	}
}

// TestDurableReleaseSurvivesRestart: a released handle stays dead after
// restart (the tombstone is journaled).
func TestDurableReleaseSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	a := gen.Laplacian2D(9, 9)
	mm := mmString(t, a)

	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, s1)
	ts1 := httptest.NewServer(s1.Handler())
	var keep, drop factorizeResponse
	if st := postJSON(t, ts1.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &keep); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	if st := postJSON(t, ts1.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &drop); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	if st := postJSON(t, ts1.URL+"/v1/release", releaseRequest{Handle: drop.Handle}, nil); st != http.StatusOK {
		t.Fatal("release failed")
	}
	ts1.Close()
	s1.Close()

	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	waitReady(t, s2)
	if _, err := s2.store.Get(keep.Handle); err != nil {
		t.Fatalf("kept handle lost: %v", err)
	}
	if _, err := s2.store.Get(drop.Handle); err == nil {
		t.Fatal("released handle resurrected by replay")
	}
}

// TestDurableBLRFactorSurvivesRestart: a BLR-compressed factor round-trips
// through the journal in compressed form.
func TestDurableBLRFactorSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	a := gen.Laplacian3D(7, 7, 7)
	mm := mmString(t, a)
	_, b := gen.RHSForSolution(a)

	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, s1)
	ts1 := httptest.NewServer(s1.Handler())
	var fr factorizeResponse
	req := matrixRequest{MatrixMarket: mm, BLR: &blrRequestOptions{Tol: 1e-8, MinBlockSize: 8}}
	if st := postJSON(t, ts1.URL+"/v1/factorize", req, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	if fr.Compression == nil {
		t.Fatal("BLR factorize reported no compression")
	}
	var sr1 solveResponse
	if st := postJSON(t, ts1.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: b}, &sr1); st != http.StatusOK {
		t.Fatalf("solve status %d", st)
	}
	ts1.Close()
	s1.Close()

	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	waitReady(t, s2)
	e, err := s2.store.Get(fr.Handle)
	if err != nil {
		t.Fatal(err)
	}
	if !e.f.Compressed() {
		t.Fatal("recovered factor lost BLR compression")
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var sr2 solveResponse
	if st := postJSON(t, ts2.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: b}, &sr2); st != http.StatusOK {
		t.Fatalf("recovered solve status %d", st)
	}
	for i := range sr1.X {
		if sr1.X[i] != sr2.X[i] {
			t.Fatalf("x[%d]: recovered BLR solve differs bitwise", i)
		}
	}
}

// TestReplicateTransfer: export from one node, import into another, solves
// bitwise-identical, and a retried import replays instead of duplicating.
func TestReplicateTransfer(t *testing.T) {
	src, err := New(Config{Solver: pastix.Options{Processors: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	waitReady(t, dst)
	tsSrc := httptest.NewServer(src.Handler())
	defer tsSrc.Close()
	tsDst := httptest.NewServer(dst.Handler())
	defer tsDst.Close()

	a := gen.Laplacian3D(5, 5, 5)
	mm := mmString(t, a)
	_, b := gen.RHSForSolution(a)
	var fr factorizeResponse
	if st := postJSON(t, tsSrc.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	var srcSolve solveResponse
	if st := postJSON(t, tsSrc.URL+"/v1/solve", solveRequest{Handle: fr.Handle, B: b}, &srcSolve); st != http.StatusOK {
		t.Fatalf("source solve status %d", st)
	}

	// Export.
	buf, _ := json.Marshal(replicateRequest{Handle: fr.Handle})
	resp, err := http.Post(tsSrc.URL+"/v1/replicate", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	transfer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("export content type %q", ct)
	}

	// Import twice: the second must replay, not duplicate.
	var imp1, imp2 factorizeResponse
	for i, into := range []*factorizeResponse{&imp1, &imp2} {
		resp, err := http.Post(tsDst.URL+"/v1/replicate", "application/octet-stream", bytes.NewReader(transfer))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("import %d status %d: %s", i, resp.StatusCode, body)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if !imp1.Imported || !imp1.Durable {
		t.Fatalf("import response %+v, want imported+durable", imp1)
	}
	if !imp2.IdempotentReplay || imp2.Handle != imp1.Handle {
		t.Fatalf("retried import duplicated: %+v vs %+v", imp2, imp1)
	}
	if dst.store.Len() != 1 {
		t.Fatalf("%d live factors on destination, want 1", dst.store.Len())
	}

	var dstSolve solveResponse
	if st := postJSON(t, tsDst.URL+"/v1/solve", solveRequest{Handle: imp1.Handle, B: b}, &dstSolve); st != http.StatusOK {
		t.Fatalf("destination solve status %d", st)
	}
	for i := range srcSolve.X {
		if srcSolve.X[i] != dstSolve.X[i] {
			t.Fatalf("x[%d]: imported factor solves differently (bitwise)", i)
		}
	}

	// /v1/stat sees the imported handle.
	var stat statResponse
	if st := postJSON(t, tsDst.URL+"/v1/stat", statRequest{Handle: imp1.Handle}, &stat); st != http.StatusOK {
		t.Fatalf("stat status %d", st)
	}
	if stat.Fingerprint != fr.Fingerprint || !stat.Durable {
		t.Fatalf("stat %+v", stat)
	}
	if st := postJSON(t, tsDst.URL+"/v1/stat", statRequest{Handle: "f-000099-nope"}, nil); st != http.StatusNotFound {
		t.Fatalf("stat of unknown handle: status %d, want 404", st)
	}
}

// TestReplicateExportRefused: NoFactorExport turns export into a structured
// 403 the gateway recognizes as "fall back to re-factorize".
func TestReplicateExportRefused(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{Processors: 2}, NoFactorExport: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	a := gen.Laplacian2D(8, 8)
	var fr factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mmString(t, a)}, &fr); st != http.StatusOK {
		t.Fatalf("factorize status %d", st)
	}
	var er errorResponse
	buf, _ := json.Marshal(replicateRequest{Handle: fr.Handle})
	resp, err := http.Post(ts.URL+"/v1/replicate", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("export status %d, want 403", resp.StatusCode)
	}
	if json.NewDecoder(resp.Body).Decode(&er); er.Code != "export_refused" {
		t.Fatalf("403 code %q, want export_refused", er.Code)
	}
}

// TestRecoveringReadyz: while the startup replay runs, /readyz reports
// "recovering" with 503 and requests are refused; after replay it flips to
// "ok" and the store serves.
func TestRecoveringReadyz(t *testing.T) {
	dir := t.TempDir()
	a := gen.Laplacian3D(6, 6, 6)
	mm := mmString(t, a)
	s1, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, s1)
	ts1 := httptest.NewServer(s1.Handler())
	for i := 0; i < 3; i++ {
		if st := postJSON(t, ts1.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, nil); st != http.StatusOK {
			t.Fatalf("factorize status %d", st)
		}
	}
	ts1.Close()
	s1.Close()

	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	// Race the replay: whatever we observe must be consistent — either 503
	// "recovering" (refusing requests) or a fully recovered store.
	resp, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var st ReadyState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusServiceUnavailable:
		if st.Status != "recovering" {
			t.Fatalf("503 readyz status %q", st.Status)
		}
	case http.StatusOK:
		if st.Status != "ok" {
			t.Fatalf("200 readyz status %q", st.Status)
		}
	default:
		t.Fatalf("readyz status code %d", resp.StatusCode)
	}
	waitReady(t, s2)
	if s2.store.Len() != 3 {
		t.Fatalf("%d live factors after replay, want 3", s2.store.Len())
	}
	var rdy ReadyState
	resp2, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&rdy); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || rdy.Status != "ok" || !rdy.Durable || rdy.Instance == "" {
		t.Fatalf("post-replay readyz %d %+v", resp2.StatusCode, rdy)
	}
}

// TestIdemStoreTTL: entries expire after the TTL; expired keys run fresh.
func TestIdemStoreTTL(t *testing.T) {
	st := newIdemStore(8, time.Minute)
	now := time.Unix(1000, 0)
	st.now = func() time.Time { return now }

	st.put("k1", "h1", factorizeResponse{Handle: "h1"})
	if _, ok := st.get("k1"); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(59 * time.Second)
	if _, ok := st.get("k1"); !ok {
		t.Fatal("entry expired before the TTL")
	}
	now = now.Add(2 * time.Second)
	if _, ok := st.get("k1"); ok {
		t.Fatal("entry survived past the TTL")
	}
	if st.len() != 0 {
		t.Fatalf("expired entry still resident: len %d", st.len())
	}
	// put-side sweep: expired entries are collected without a get.
	st.put("k2", "h2", factorizeResponse{Handle: "h2"})
	now = now.Add(2 * time.Minute)
	st.put("k3", "h3", factorizeResponse{Handle: "h3"})
	if st.len() != 1 {
		t.Fatalf("put did not sweep expired entries: len %d", st.len())
	}
	if _, ok := st.get("k3"); !ok {
		t.Fatal("live entry swept")
	}
}

// TestDurableAppendFailureUnputs: when the journal append fails, factorize
// and replicate import answer with a server error and leave no live handle
// behind, and the failed request's idempotency key is not remembered — so a
// handle is never acknowledged "durable" without being journaled.
func TestDurableAppendFailureUnputs(t *testing.T) {
	src, err := New(Config{Solver: pastix.Options{Processors: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	s, err := New(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitReady(t, s)
	tsSrc := httptest.NewServer(src.Handler())
	defer tsSrc.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := gen.Laplacian2D(8, 8)
	mm := mmString(t, a)
	var fr factorizeResponse
	if st := postJSON(t, tsSrc.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm}, &fr); st != http.StatusOK {
		t.Fatalf("source factorize status %d", st)
	}
	buf, _ := json.Marshal(replicateRequest{Handle: fr.Handle})
	resp, err := http.Post(tsSrc.URL+"/v1/replicate", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	transfer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d err %v", resp.StatusCode, err)
	}

	s.journal.Close()
	for try := 0; try < 2; try++ {
		var er errorResponse
		if st := postJSON(t, ts.URL+"/v1/factorize", matrixRequest{MatrixMarket: mm, IdempotencyKey: "append-fails"}, &er); st < 500 {
			t.Fatalf("factorize try %d with a closed journal: status %d (%+v), want 5xx", try, st, er)
		}
		resp, err := http.Post(ts.URL+"/v1/replicate", "application/octet-stream", bytes.NewReader(transfer))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode < 500 {
			t.Fatalf("import try %d with a closed journal: status %d (%s), want 5xx", try, resp.StatusCode, body)
		}
		if n := s.store.Len(); n != 0 {
			t.Fatalf("try %d: %d live handles after failed appends, want 0", try, n)
		}
		if n := s.idem.len(); n != 0 {
			t.Fatalf("try %d: %d idempotency entries remembered for failed requests", try, n)
		}
	}
}

// get returns the remembered response for key, if any and not expired.
func (s *idemStore) get(key string) (factorizeResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(key)
}

// len reports the live (unexpired-at-last-touch) entry count.
func (s *idemStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
