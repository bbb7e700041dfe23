package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/service"
)

// postRawJSON is postJSON without the testing.T, for goroutines.
func postRawJSON(url string, body any) (int, map[string]json.RawMessage, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

// gatedWriter runs gate before the response status goes out, which lets a
// test hold a handler at its final write.
type gatedWriter struct {
	http.ResponseWriter
	gate func()
}

func (w *gatedWriter) WriteHeader(code int) {
	w.gate()
	w.ResponseWriter.WriteHeader(code)
}

// Full round trip through the gateway: analyze, replicated factorize, a solve
// that is bit-identical to a fault-free single-node run, release fanned out
// to every replica.
func TestGatewayEndToEnd(t *testing.T) {
	nodes := []*node{startNode(t, svcConfig()), startNode(t, svcConfig())}
	_, ts := startGateway(t, nodes, nil)

	a, mm := testMatrix(t)
	_, b := gen.RHSForSolution(a)
	want := referenceSolve(t, a, b)

	st, ar := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"matrix_market": mm})
	if st != http.StatusOK {
		t.Fatalf("analyze status %d: %v", st, ar)
	}
	if fp := field[string](t, ar, "fingerprint"); fp == "" {
		t.Fatal("analyze returned an empty fingerprint")
	}

	st, fr := postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
	if st != http.StatusOK {
		t.Fatalf("factorize status %d: %v", st, fr)
	}
	handle := field[string](t, fr, "handle")
	if len(handle) < 2 || handle[:2] != "g-" {
		t.Fatalf("handle %q is not a gateway handle", handle)
	}
	if r := field[int](t, fr, "replicas"); r != 2 {
		t.Fatalf("replicas %d, want 2", r)
	}
	if pb := field[int](t, fr, "primary_backend"); pb != 0 && pb != 1 {
		t.Fatalf("primary_backend %d out of range", pb)
	}
	if k := field[string](t, fr, "idempotency_key"); k == "" {
		t.Fatal("gateway did not inject an idempotency key")
	}
	if nodes[0].liveFactors() != 1 || nodes[1].liveFactors() != 1 {
		t.Fatalf("replication did not reach both nodes: %d and %d live factors",
			nodes[0].liveFactors(), nodes[1].liveFactors())
	}

	st, sr := postJSON(t, ts.URL+"/v1/solve", map[string]any{"handle": handle, "b": b})
	if st != http.StatusOK {
		t.Fatalf("solve status %d: %v", st, sr)
	}
	bitIdentical(t, field[[]float64](t, sr, "x"), want, "gateway solve")
	if sb := field[int](t, sr, "served_by"); sb != 0 && sb != 1 {
		t.Fatalf("served_by %d out of range", sb)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status   string `json:"status"`
		Handles  int    `json:"handles"`
		Backends []BackendStatus
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Handles != 1 {
		t.Fatalf("gateway healthz: status %q handles %d, want ok/1", hz.Status, hz.Handles)
	}

	st, rr := postJSON(t, ts.URL+"/v1/release", map[string]any{"handle": handle})
	if st != http.StatusOK {
		t.Fatalf("release status %d: %v", st, rr)
	}
	if r := field[int](t, rr, "replicas"); r != 2 {
		t.Fatalf("release reached %d replicas, want 2", r)
	}
	if nodes[0].liveFactors() != 0 || nodes[1].liveFactors() != 0 {
		t.Fatal("release left factors live on a replica")
	}
	if st, er := postJSON(t, ts.URL+"/v1/solve", map[string]any{"handle": handle, "b": b}); st != http.StatusNotFound {
		t.Fatalf("solve on a released handle: status %d %v, want 404", st, er)
	}
}

// Killing the primary mid-session must not lose the factor: the solve fails
// over to the replica and returns the same bits.
func TestGatewayFailoverKilledPrimary(t *testing.T) {
	nodes := []*node{startNode(t, svcConfig()), startNode(t, svcConfig())}
	// A huge probe interval: only the initial sweep runs, so the gateway
	// cannot learn about the kill from probes — the solve itself must
	// discover it and fail over.
	g, ts := startGateway(t, nodes, func(c *Config) { c.ProbeInterval = time.Hour })

	a, mm := testMatrix(t)
	_, b := gen.RHSForSolution(a)
	want := referenceSolve(t, a, b)

	st, fr := postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
	if st != http.StatusOK {
		t.Fatalf("factorize status %d: %v", st, fr)
	}
	handle := field[string](t, fr, "handle")
	pb := field[int](t, fr, "primary_backend")

	nodes[pb].down.Store(true)

	st, sr := postJSON(t, ts.URL+"/v1/solve", map[string]any{"handle": handle, "b": b})
	if st != http.StatusOK {
		t.Fatalf("solve after primary kill: status %d %v", st, sr)
	}
	bitIdentical(t, field[[]float64](t, sr, "x"), want, "failover solve")
	if sb := field[int](t, sr, "served_by"); sb != 1-pb {
		t.Fatalf("served_by %d, want replica %d", sb, 1-pb)
	}
	if g.Stats().Failovers < 1 {
		t.Fatalf("failover not counted: %+v", g.Stats())
	}
}

// A restarted primary answers requests but has lost its stores; its stale
// 404 must route the solve to the replica, not surface to the client.
func TestGatewayStaleHandleFailover(t *testing.T) {
	nodes := []*node{startNode(t, svcConfig()), startNode(t, svcConfig())}
	g, ts := startGateway(t, nodes, nil)

	a, mm := testMatrix(t)
	_, b := gen.RHSForSolution(a)
	want := referenceSolve(t, a, b)

	st, fr := postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
	if st != http.StatusOK {
		t.Fatalf("factorize status %d: %v", st, fr)
	}
	handle := field[string](t, fr, "handle")
	pb := field[int](t, fr, "primary_backend")

	nodes[pb].restart()
	waitRoutable(t, g, 2)
	if nodes[pb].liveFactors() != 0 {
		t.Fatal("restart did not clear the primary's store")
	}

	st, sr := postJSON(t, ts.URL+"/v1/solve", map[string]any{"handle": handle, "b": b})
	if st != http.StatusOK {
		t.Fatalf("solve after primary restart: status %d %v", st, sr)
	}
	bitIdentical(t, field[[]float64](t, sr, "x"), want, "stale-handle solve")
	if sb := field[int](t, sr, "served_by"); sb != 1-pb {
		t.Fatalf("served_by %d, want replica %d", sb, 1-pb)
	}
	if g.Stats().StaleRoutes < 1 {
		t.Fatalf("stale route not counted: %+v", g.Stats())
	}
}

// The idempotency key makes factorize retries exactly-once: a node that
// committed but whose response was lost replays instead of factoring again.
func TestGatewayIdempotentFactorizeRetry(t *testing.T) {
	nodes := []*node{startNode(t, svcConfig()), startNode(t, svcConfig())}
	_, ts := startGateway(t, nodes, nil)

	a, mm := testMatrix(t)
	_, b := gen.RHSForSolution(a)
	want := referenceSolve(t, a, b)

	// The first factorize to arrive anywhere is committed for real, but its
	// response is swallowed into an injected 502 — the classic lost-ack.
	var dropOnce atomic.Bool
	intercept := func(w http.ResponseWriter, r *http.Request, h http.Handler) bool {
		if r.URL.Path == "/v1/factorize" && dropOnce.CompareAndSwap(false, true) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadGateway)
			_, _ = w.Write([]byte(`{"error":"injected: response lost after commit"}`))
			return true
		}
		return false
	}
	for _, n := range nodes {
		n.intercept.Store(intercept)
	}

	body := map[string]any{"matrix_market": mm, "idempotency_key": "idem-test-1"}
	st, fr := postJSON(t, ts.URL+"/v1/factorize", body)
	if st != http.StatusOK {
		t.Fatalf("factorize status %d: %v", st, fr)
	}
	// One replica answered 502 (after committing), so only one is recorded.
	if r := field[int](t, fr, "replicas"); r != 1 {
		t.Fatalf("first factorize recorded %d replicas, want 1 (one ack lost)", r)
	}
	if nodes[0].liveFactors() != 1 || nodes[1].liveFactors() != 1 {
		t.Fatalf("after lost ack: %d and %d live factors, want 1 and 1",
			nodes[0].liveFactors(), nodes[1].liveFactors())
	}

	// The retry with the same key must not double-apply anywhere: both nodes
	// replay their committed response.
	st, fr2 := postJSON(t, ts.URL+"/v1/factorize", body)
	if st != http.StatusOK {
		t.Fatalf("retry factorize status %d: %v", st, fr2)
	}
	if r := field[int](t, fr2, "replicas"); r != 2 {
		t.Fatalf("retry recorded %d replicas, want 2", r)
	}
	if !field[bool](t, fr2, "idempotent_replay") {
		t.Fatal("retry's primary response was not an idempotent replay")
	}
	if nodes[0].liveFactors() != 1 || nodes[1].liveFactors() != 1 {
		t.Fatalf("retry double-applied: %d and %d live factors, want 1 and 1",
			nodes[0].liveFactors(), nodes[1].liveFactors())
	}

	st, sr := postJSON(t, ts.URL+"/v1/solve", map[string]any{"handle": field[string](t, fr2, "handle"), "b": b})
	if st != http.StatusOK {
		t.Fatalf("solve status %d: %v", st, sr)
	}
	bitIdentical(t, field[[]float64](t, sr, "x"), want, "post-retry solve")
}

// With every replica of a shard down, factorize degrades gracefully: a
// bounded queue parks it, overflow and expiry get structured 503s, and a
// recovered node picks the parked request up.
func TestGatewayDegradedQueue(t *testing.T) {
	n0 := startNode(t, svcConfig())
	g, ts := startGateway(t, []*node{n0}, func(c *Config) {
		c.Replicas = 1
		c.QueueDepth = 1
		c.QueueWait = 700 * time.Millisecond
		c.RetryAfter = 50 * time.Millisecond
	})
	_, mm := testMatrix(t)

	n0.down.Store(true)
	waitFor(t, 5*time.Second, "backend marked down", func() bool {
		return !g.backends[0].routable(time.Now())
	})

	// Expiry: the park times out and reports a retry hint.
	t0 := time.Now()
	st, er := postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
	if st != http.StatusServiceUnavailable {
		t.Fatalf("degraded factorize status %d: %v", st, er)
	}
	if code := field[string](t, er, "code"); code != "shard_unavailable" {
		t.Fatalf("degraded code %q, want shard_unavailable", code)
	}
	if ra := field[int64](t, er, "retry_after_ms"); ra <= 0 {
		t.Fatalf("retry_after_ms %d, want positive", ra)
	}
	if e := time.Since(t0); e < 200*time.Millisecond {
		t.Fatalf("expiry came back in %v — did not wait in the queue", e)
	}

	// Overflow: one parked request holds the only slot; the next is rejected
	// immediately rather than parked behind it.
	type result struct {
		st  int
		out map[string]json.RawMessage
		err error
	}
	parked := make(chan result, 1)
	go func() {
		st, out, err := postRawJSON(ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
		parked <- result{st, out, err}
	}()
	time.Sleep(100 * time.Millisecond) // let it take the slot
	t0 = time.Now()
	st, er = postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
	if st != http.StatusServiceUnavailable || time.Since(t0) > 200*time.Millisecond {
		t.Fatalf("queue overflow: status %d after %v, want an immediate 503", st, time.Since(t0))
	}

	// Recovery: the node comes back while the parked request waits.
	n0.down.Store(false)
	res := <-parked
	if res.err != nil {
		t.Fatalf("parked factorize failed: %v", res.err)
	}
	if res.st != http.StatusOK {
		t.Fatalf("parked factorize status %d after recovery: %v", res.st, res.out)
	}
	if g.Stats().Queued < 2 {
		t.Fatalf("queue admissions not counted: %+v", g.Stats())
	}
}

// A hedged solve escapes a stalled primary: the duplicate fired after
// HedgeDelay wins long before the primary's stall clears.
func TestGatewayHedgedSolve(t *testing.T) {
	nodes := []*node{startNode(t, svcConfig()), startNode(t, svcConfig())}
	g, ts := startGateway(t, nodes, func(c *Config) {
		c.HedgeDelay = 40 * time.Millisecond
	})

	a, mm := testMatrix(t)
	_, b := gen.RHSForSolution(a)
	want := referenceSolve(t, a, b)

	st, fr := postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
	if st != http.StatusOK {
		t.Fatalf("factorize status %d: %v", st, fr)
	}
	handle := field[string](t, fr, "handle")
	pb := field[int](t, fr, "primary_backend")

	nodes[pb].stallNS.Store(int64(800 * time.Millisecond))
	t0 := time.Now()
	st, sr := postJSON(t, ts.URL+"/v1/solve", map[string]any{"handle": handle, "b": b})
	elapsed := time.Since(t0)
	if st != http.StatusOK {
		t.Fatalf("hedged solve status %d: %v", st, sr)
	}
	if sb := field[int](t, sr, "served_by"); sb != 1-pb {
		t.Fatalf("served_by %d, want the hedged replica %d", sb, 1-pb)
	}
	if elapsed > 600*time.Millisecond {
		t.Fatalf("hedged solve took %v — the hedge did not escape the %v stall", elapsed, 800*time.Millisecond)
	}
	bitIdentical(t, field[[]float64](t, sr, "x"), want, "hedged solve")
	if g.Stats().Hedges < 1 {
		t.Fatalf("hedge not counted: %+v", g.Stats())
	}
}

// A hedged solve whose primary answers a definite failure (a stale 404)
// before HedgeDelay moves on after the backoff, not the hedge timer: the
// replica serves, one retry is counted and no hedge.
func TestGatewayHedgedSolveDefiniteFailure(t *testing.T) {
	nodes := []*node{startNode(t, svcConfig()), startNode(t, svcConfig())}
	const hedge = 2 * time.Second
	g, ts := startGateway(t, nodes, func(c *Config) {
		c.HedgeDelay = hedge
		c.RepairInterval = -1 // keep the stale replica in the handle table
	})

	a, mm := testMatrix(t)
	_, b := gen.RHSForSolution(a)
	want := referenceSolve(t, a, b)

	st, fr := postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
	if st != http.StatusOK {
		t.Fatalf("factorize status %d: %v", st, fr)
	}
	handle := field[string](t, fr, "handle")
	pb := field[int](t, fr, "primary_backend")
	nodes[pb].restart()
	waitRoutable(t, g, 2)

	before := g.Stats()
	t0 := time.Now()
	st, sr := postJSON(t, ts.URL+"/v1/solve", map[string]any{"handle": handle, "b": b})
	elapsed := time.Since(t0)
	if st != http.StatusOK {
		t.Fatalf("solve after primary restart: status %d %v", st, sr)
	}
	if elapsed >= hedge {
		t.Fatalf("solve took %v, not before the %v hedge delay", elapsed, hedge)
	}
	if sb := field[int](t, sr, "served_by"); sb != 1-pb {
		t.Fatalf("served_by %d, want replica %d", sb, 1-pb)
	}
	bitIdentical(t, field[[]float64](t, sr, "x"), want, "hedged solve after a stale 404")
	after := g.Stats()
	if r, h := after.Retries-before.Retries, after.Hedges-before.Hedges; r != 1 || h != 0 {
		t.Fatalf("solve counted %d retries and %d hedges, want 1 and 0", r, h)
	}
	if after.StaleRoutes-before.StaleRoutes != 1 {
		t.Fatalf("stale route not counted: %+v", after)
	}
}

// Satellite: draining the primary mid-batch must not lose or duplicate the
// parked riders, and new traffic re-routes to the replica.
func TestGatewayDrainVsBatchTwoNodes(t *testing.T) {
	cfg := svcConfig()
	cfg.MaxBatch = 8
	cfg.Workers = 1
	nodes := []*node{startNode(t, cfg), startNode(t, cfg)}
	g, ts := startGateway(t, nodes, nil)

	a, mm := testMatrix(t)
	st, fr := postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
	if st != http.StatusOK {
		t.Fatalf("factorize status %d: %v", st, fr)
	}
	handle := field[string](t, fr, "handle")
	pb := field[int](t, fr, "primary_backend")

	// Hold the primary's only worker slot: an analyze sent straight to it
	// blocks in writing its response, which the service does before it
	// frees the slot.
	hold, held := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release)
	nodes[pb].intercept.Store(func(w http.ResponseWriter, r *http.Request, h http.Handler) bool {
		if r.URL.Path != "/v1/analyze" {
			return false
		}
		h.ServeHTTP(&gatedWriter{ResponseWriter: w, gate: func() { close(held); <-hold }}, r)
		return true
	})
	go postRawJSON(nodes[pb].ts.URL+"/v1/analyze", map[string]any{"matrix_market": mm})
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the analyze never took the primary's worker slot")
	}

	// k riders reach the primary and park behind the held slot...
	const k = 4
	bs := make([][]float64, k)
	wants := make([][]float64, k)
	for i := range bs {
		bs[i] = make([]float64, a.N)
		for j := range bs[i] {
			bs[i][j] = float64(1+j%7) + float64(i)*0.5
		}
		wants[i] = referenceSolve(t, a, bs[i])
	}
	type result struct {
		st  int
		out map[string]json.RawMessage
		err error
	}
	results := make(chan result, k)
	var (
		wg       sync.WaitGroup
		answered atomic.Int64
	)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, out, err := postRawJSON(ts.URL+"/v1/solve", map[string]any{"handle": handle, "b": bs[i]})
			results <- result{st, out, err}
			answered.Add(1)
		}(i)
	}
	// Every rider is either parked on the primary, holding a queue slot
	// beside the analyze, or already answered by the replica...
	waitFor(t, 10*time.Second, "riders parked on the primary", func() bool {
		parked := nodes[pb].readyState().QueueDepth - 1
		return parked >= 1 && parked+int(answered.Load()) == k
	})
	// ...when the primary starts draining under them.
	nodes[pb].svc.Load().(*service.Server).BeginDrain()
	release()
	wg.Wait()
	close(results)

	// Every rider finishes exactly once — either on the draining primary
	// (admitted before the drain) or failed over to the replica — with the
	// reference bits.
	got := 0
	for res := range results {
		if res.err != nil || res.st != http.StatusOK {
			t.Fatalf("rider lost to the drain: status %d err %v out %v", res.st, res.err, res.out)
		}
		var x []float64
		if err := json.Unmarshal(res.out["x"], &x); err != nil {
			t.Fatal(err)
		}
		matched := -1
		for i := range wants {
			if len(x) == len(wants[i]) && x[0] == wants[i][0] && x[len(x)-1] == wants[i][len(x)-1] {
				same := true
				for j := range x {
					if x[j] != wants[i][j] {
						same = false
						break
					}
				}
				if same {
					matched = i
					break
				}
			}
		}
		if matched < 0 {
			t.Fatal("a rider's solution matches no reference bit-for-bit")
		}
		wants[matched] = nil // each reference consumed exactly once
		got++
	}
	if got != k {
		t.Fatalf("%d riders finished, want %d", got, k)
	}

	// The drain becomes visible to the prober; new solves route to the
	// replica.
	waitFor(t, 5*time.Second, "primary marked draining", func() bool {
		return !g.backends[pb].routable(time.Now())
	})
	_, b := gen.RHSForSolution(a)
	st, sr := postJSON(t, ts.URL+"/v1/solve", map[string]any{"handle": handle, "b": b})
	if st != http.StatusOK {
		t.Fatalf("post-drain solve status %d: %v", st, sr)
	}
	if sb := field[int](t, sr, "served_by"); sb != 1-pb {
		t.Fatalf("post-drain solve served by %d, want replica %d", sb, 1-pb)
	}
}

// Structured error shapes: bad bodies, oversized bodies, unknown handles,
// and a fully-dead fleet.
func TestGatewayErrorShapes(t *testing.T) {
	n0 := startNode(t, svcConfig())
	g, ts := startGateway(t, []*node{n0}, func(c *Config) {
		c.Replicas = 1
		c.QueueWait = 100 * time.Millisecond
		c.MaxBodyBytes = 16 << 10
	})

	st, er := postJSON(t, ts.URL+"/v1/analyze", map[string]any{"matrix_market": "not a matrix"})
	if st != http.StatusBadRequest || field[string](t, er, "code") != "bad_request" {
		t.Fatalf("junk matrix: status %d code %v", st, er)
	}

	big := map[string]any{"matrix_market": string(bytes.Repeat([]byte("x"), 32<<10))}
	st, er = postJSON(t, ts.URL+"/v1/analyze", big)
	if st != http.StatusRequestEntityTooLarge || field[string](t, er, "code") != "body_too_large" {
		t.Fatalf("oversized body: status %d %v", st, er)
	}

	st, er = postJSON(t, ts.URL+"/v1/solve", map[string]any{"handle": "g-999999-nope", "b": []float64{1}})
	if st != http.StatusNotFound || field[string](t, er, "code") != "unknown_handle" {
		t.Fatalf("unknown handle: status %d %v", st, er)
	}

	n0.down.Store(true)
	waitFor(t, 5*time.Second, "backend marked down", func() bool {
		return !g.backends[0].routable(time.Now())
	})
	_, mm := testMatrix(t)
	st, er = postJSON(t, ts.URL+"/v1/analyze", map[string]any{"matrix_market": mm})
	if st != http.StatusServiceUnavailable {
		t.Fatalf("dead fleet analyze: status %d %v", st, er)
	}
	if ra := field[int64](t, er, "retry_after_ms"); ra <= 0 {
		t.Fatalf("dead fleet 503 lacks retry_after_ms: %v", er)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gateway healthz with dead fleet: %d, want 503", resp.StatusCode)
	}
}

// A factorize's replication walk counts a retry only when a further attempt
// starts after a failed one, and a failover only when a candidate after the
// first becomes the primary: both replicas answering 502 is one retry and
// no failover; a 502 then a 200 is one retry and one failover.
func TestGatewayFactorizeCounters(t *testing.T) {
	for _, c := range []struct {
		name               string
		fail               int64 // factorize attempts answered 502, in arrival order
		status             int
		retries, failovers int64
	}{
		{"both-502", 2, http.StatusServiceUnavailable, 1, 0},
		{"502-then-200", 1, http.StatusOK, 1, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			nodes := []*node{startNode(t, svcConfig()), startNode(t, svcConfig())}
			var attempts atomic.Int64
			for _, n := range nodes {
				n.intercept.Store(func(w http.ResponseWriter, r *http.Request, _ http.Handler) bool {
					if r.URL.Path != "/v1/factorize" || attempts.Add(1) > c.fail {
						return false
					}
					w.WriteHeader(http.StatusBadGateway)
					return true
				})
			}
			g, ts := startGateway(t, nodes, func(cfg *Config) { cfg.ProbeInterval = time.Hour })
			_, mm := testMatrix(t)
			before := g.Stats()
			st, fr := postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
			if st != c.status {
				t.Fatalf("factorize status %d %v, want %d", st, fr, c.status)
			}
			after := g.Stats()
			r, f := after.Retries-before.Retries, after.Failovers-before.Failovers
			if r != c.retries || f != c.failovers {
				t.Fatalf("factorize counted Retries:%d Failovers:%d, want Retries:%d Failovers:%d",
					r, f, c.retries, c.failovers)
			}
		})
	}
}

// A node that answers /readyz but fails every request keeps its breaker out
// of closed through its cooldown: a good probe ends the cooldown early at
// most into half-open, and only a request the node serves closes it.
func TestGatewayProbeKeepsBreakerOpen(t *testing.T) {
	n := startNode(t, svcConfig())
	var failing atomic.Bool
	failing.Store(true)
	n.intercept.Store(func(w http.ResponseWriter, r *http.Request, _ http.Handler) bool {
		if r.URL.Path != "/v1/analyze" || !failing.Load() {
			return false
		}
		w.WriteHeader(http.StatusInternalServerError)
		return true
	})
	const cooldown = 500 * time.Millisecond
	g, ts := startGateway(t, []*node{n}, func(cfg *Config) {
		cfg.BreakerCooldown = cooldown
		cfg.ProbeInterval = 20 * time.Millisecond
		cfg.RepairInterval = -1 // no background request reaches the node
	})
	_, mm := testMatrix(t)
	analyze := map[string]any{"matrix_market": mm}
	breaker := func() string { return g.backends[0].status(time.Now()).Breaker }

	// A probe between two failures resets the streak, so post until the
	// breaker opens.
	deadline := time.Now().Add(5 * time.Second)
	for breaker() != "open" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker %s after 5 s of failing requests, want open", breaker())
		}
		postJSON(t, ts.URL+"/v1/analyze", analyze)
	}
	opened := time.Now()
	for time.Since(opened) < cooldown+100*time.Millisecond {
		if s := breaker(); s == "closed" {
			t.Fatalf("breaker closed %v after it opened (cooldown %v) with no request served",
				time.Since(opened).Round(time.Millisecond), cooldown)
		}
		time.Sleep(5 * time.Millisecond)
	}

	failing.Store(false)
	if st, ar := postJSON(t, ts.URL+"/v1/analyze", analyze); st != http.StatusOK {
		t.Fatalf("trial analyze status %d %v, want 200", st, ar)
	}
	if s := breaker(); s != "closed" {
		t.Fatalf("breaker %s after a served trial request, want closed", s)
	}
}
