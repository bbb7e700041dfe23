package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

// /readyz reports the routing-relevant load signals as JSON and /healthz is
// liveness-only, so a gateway's health model can tell "busy or draining"
// apart from "dead".
func TestServerReadyz(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{Processors: 2}, QueueDepth: 7, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d, want 200", resp.StatusCode)
	}
	var st ReadyState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" || st.Draining {
		t.Fatalf("idle readyz reports %+v", st)
	}
	if st.QueueCapacity != 7 || st.Workers != 3 {
		t.Fatalf("readyz capacities %+v, want queue 7 workers 3", st)
	}

	// A held queue slot shows up as queue depth.
	s.queue <- struct{}{}
	defer func() { <-s.queue }()
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st2 ReadyState
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if st2.QueueDepth != 1 {
		t.Fatalf("readyz queue depth %d with one held slot, want 1", st2.QueueDepth)
	}
}

// An oversized request body is refused with a structured 413 by
// MaxBytesReader, not buffered into memory.
func TestServerBodyLimit(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{Processors: 1}, MaxBodyBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := matrixRequest{MatrixMarket: strings.Repeat("x", 4096)}
	buf, _ := json.Marshal(big)
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(string(buf)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Code != "body_too_large" {
		t.Fatalf("413 code %q, want body_too_large", er.Code)
	}

	// A body under the cap still works.
	mm := mmString(t, gen.Laplacian3D(3, 3, 3))
	if int64(len(mm)) >= 1024 {
		t.Skip("test matrix larger than the cap")
	}
	if st := postJSON(t, ts.URL+"/v1/analyze", matrixRequest{MatrixMarket: mm}, nil); st != http.StatusOK {
		t.Fatalf("small body: status %d, want 200", st)
	}
}

// A duplicate factorize carrying the same idempotency key replays the
// original response: same handle, exactly one live factor — retries are not
// double-applied.
func TestServerFactorizeIdempotent(t *testing.T) {
	s, err := New(Config{Solver: pastix.Options{Processors: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := gen.Laplacian3D(4, 4, 4)
	mm := mmString(t, a)
	req := matrixRequest{MatrixMarket: mm, IdempotencyKey: "idem-test-1"}

	var fr1, fr2 factorizeResponse
	if st := postJSON(t, ts.URL+"/v1/factorize", req, &fr1); st != http.StatusOK {
		t.Fatalf("first factorize status %d", st)
	}
	if fr1.IdempotentReplay {
		t.Fatal("first factorize marked as replay")
	}
	if st := postJSON(t, ts.URL+"/v1/factorize", req, &fr2); st != http.StatusOK {
		t.Fatalf("duplicate factorize status %d", st)
	}
	if !fr2.IdempotentReplay {
		t.Fatal("duplicate factorize was not replayed")
	}
	if fr2.Handle != fr1.Handle {
		t.Fatalf("duplicate factorize handle %q, want %q", fr2.Handle, fr1.Handle)
	}
	if s.store.Len() != 1 {
		t.Fatalf("%d live factors after duplicate factorize, want 1 (double-applied)", s.store.Len())
	}
	if s.Metrics().FactorizeRequests.Value() != 1 {
		t.Fatalf("factorize compute ran %d times, want 1", s.Metrics().FactorizeRequests.Value())
	}

	// A different key factorizes fresh.
	var fr3 factorizeResponse
	req.IdempotencyKey = "idem-test-2"
	if st := postJSON(t, ts.URL+"/v1/factorize", req, &fr3); st != http.StatusOK {
		t.Fatalf("fresh-key factorize status %d", st)
	}
	if fr3.IdempotentReplay || fr3.Handle == fr1.Handle {
		t.Fatalf("fresh key replayed old response: %+v", fr3)
	}

	// Releasing the handle invalidates its idempotency entry: the key no
	// longer resurrects a dead handle.
	if st := postJSON(t, ts.URL+"/v1/release", releaseRequest{Handle: fr1.Handle}, nil); st != http.StatusOK {
		t.Fatal("release failed")
	}
	var fr4 factorizeResponse
	req.IdempotencyKey = "idem-test-1"
	if st := postJSON(t, ts.URL+"/v1/factorize", req, &fr4); st != http.StatusOK {
		t.Fatalf("post-release factorize status %d", st)
	}
	if fr4.IdempotentReplay || fr4.Handle == fr1.Handle {
		t.Fatalf("released handle came back from the idempotency store: %+v", fr4)
	}
}

// The idempotency store evicts FIFO beyond its bound.
func TestIdemStoreEviction(t *testing.T) {
	st := newIdemStore(2, time.Hour)
	st.put("k1", "h1", factorizeResponse{Handle: "h1"})
	st.put("k2", "h2", factorizeResponse{Handle: "h2"})
	st.put("k3", "h3", factorizeResponse{Handle: "h3"})
	if _, ok := st.get("k1"); ok {
		t.Fatal("oldest key survived beyond the bound")
	}
	for _, k := range []string{"k2", "k3"} {
		if _, ok := st.get(k); !ok {
			t.Fatalf("key %s evicted early", k)
		}
	}
	st.dropHandle("h2")
	if _, ok := st.get("k2"); ok {
		t.Fatal("dropHandle left the entry behind")
	}
}

// Concurrent duplicates are single-flight: while one request holds a key, a
// second waits and then replays the first's response; if the first fails,
// the waiter takes the claim and runs; a waiter whose context ends gives up.
func TestIdemStoreClaimSingleFlight(t *testing.T) {
	st := newIdemStore(8, time.Hour)
	ctx := context.Background()
	if _, replay, err := st.claim(ctx, "k"); err != nil || replay {
		t.Fatalf("first claim: replay %v err %v", replay, err)
	}
	type claimed struct {
		resp   factorizeResponse
		replay bool
		err    error
	}
	waiter := make(chan claimed, 1)
	go func() {
		resp, replay, err := st.claim(ctx, "k")
		waiter <- claimed{resp, replay, err}
	}()
	select {
	case c := <-waiter:
		t.Fatalf("duplicate claim returned while the key was held: %+v", c)
	case <-time.After(20 * time.Millisecond):
	}
	st.put("k", "h1", factorizeResponse{Handle: "h1"})
	st.unclaim("k")
	if c := <-waiter; c.err != nil || !c.replay || c.resp.Handle != "h1" {
		t.Fatalf("waiter after commit: %+v, want a replay of h1", c)
	}

	// A holder that fails hands the claim to the next duplicate.
	if _, replay, err := st.claim(ctx, "j"); err != nil || replay {
		t.Fatalf("claim j: replay %v err %v", replay, err)
	}
	go func() {
		resp, replay, err := st.claim(ctx, "j")
		waiter <- claimed{resp, replay, err}
	}()
	st.unclaim("j")
	if c := <-waiter; c.err != nil || c.replay {
		t.Fatalf("waiter after a failed holder: %+v, want a fresh claim", c)
	}

	// The key is still held: a waiter whose context ends returns its error.
	cctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, _, err := st.claim(cctx, "j"); err != context.DeadlineExceeded {
		t.Fatalf("claim under an expiring context: %v, want DeadlineExceeded", err)
	}
	st.unclaim("j")
}
