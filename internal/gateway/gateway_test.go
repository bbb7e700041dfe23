package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gateway/client"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/service"
)

// node is one pastix-serve backend under test: a real service.Server behind
// an httptest front that can be killed (connections abort mid-request),
// stalled, restarted with an empty store, or intercepted.
type node struct {
	t       *testing.T
	ts      *httptest.Server
	svcCfg  service.Config
	handler atomic.Value // http.Handler
	svc     atomic.Value // *service.Server
	down    atomic.Bool
	stallNS atomic.Int64 // sleep on /v1/solve, simulating a slow node
	// intercept, when set, gets first crack at each request; returning true
	// means it wrote the response.
	intercept atomic.Value // func(http.ResponseWriter, *http.Request, http.Handler) bool
}

func svcConfig() service.Config {
	return service.Config{
		Solver:     pastix.Options{Processors: 2},
		Workers:    4,
		QueueDepth: 32,
	}
}

func startNode(t *testing.T, cfg service.Config) *node {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := &node{t: t, svcCfg: cfg}
	n.svc.Store(svc)
	n.handler.Store(svc.Handler())
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.down.Load() {
			panic(http.ErrAbortHandler) // connection abort: a killed node, not a clean 5xx
		}
		if d := n.stallNS.Load(); d > 0 && r.URL.Path == "/v1/solve" {
			time.Sleep(time.Duration(d))
		}
		h := n.handler.Load().(http.Handler)
		if f := n.intercept.Load(); f != nil {
			if f.(func(http.ResponseWriter, *http.Request, http.Handler) bool)(w, r, h) {
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		n.ts.Close()
		n.svc.Load().(*service.Server).Close()
	})
	return n
}

// restart replaces the service with a fresh one at the same URL — a new
// process instance. Without a DataDir the stores come back empty and old
// handles are stale 404s; with one, the journal replays them. The old
// service closes before the new one opens so the journal file hands over
// cleanly, exactly like a real process restart.
func (n *node) restart() {
	n.t.Helper()
	old := n.svc.Load().(*service.Server)
	old.Close()
	svc, err := service.New(n.svcCfg)
	if err != nil {
		n.t.Fatal(err)
	}
	n.svc.Store(svc)
	n.handler.Store(svc.Handler())
	n.down.Store(false)
}

func (n *node) liveFactors() int {
	n.t.Helper()
	return n.readyState().LiveFactors
}

// readyState reads the node's /readyz body.
func (n *node) readyState() service.ReadyState {
	n.t.Helper()
	resp, err := http.Get(n.ts.URL + "/readyz")
	if err != nil {
		n.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.ReadyState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		n.t.Fatal(err)
	}
	return st
}

func startGateway(t *testing.T, nodes []*node, mutate func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	cfg := Config{
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		Retry:         clientPolicyFast(),
		Seed:          7,
	}
	for _, n := range nodes {
		cfg.Backends = append(cfg.Backends, n.ts.URL)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})
	return g, ts
}

func postJSON(t *testing.T, url string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	var buf []byte
	switch b := body.(type) {
	case []byte:
		buf = b
	default:
		var err error
		if buf, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode, out
}

func field[T any](t *testing.T, m map[string]json.RawMessage, key string) T {
	t.Helper()
	var v T
	raw, ok := m[key]
	if !ok {
		t.Fatalf("response missing %q: %v", key, keysOf(m))
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("field %q: %v", key, err)
	}
	return v
}

func keysOf(m map[string]json.RawMessage) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// waitRoutable blocks until the gateway's health model marks want backends
// routable.
func waitRoutable(t *testing.T, g *Gateway, want int) {
	t.Helper()
	waitFor(t, 5*time.Second, fmt.Sprintf("%d routable backends", want), func() bool {
		now := time.Now()
		n := 0
		for _, b := range g.backends {
			if b.routable(now) {
				n++
			}
		}
		return n == want
	})
}

func testMatrix(t *testing.T) (*pastix.Matrix, string) {
	t.Helper()
	a := gen.Laplacian3D(5, 5, 5)
	var sb strings.Builder
	if err := pastix.WriteMatrixMarket(&sb, a, "gateway test"); err != nil {
		t.Fatal(err)
	}
	return a, sb.String()
}

// referenceSolve computes the fault-free single-node answer the gateway must
// reproduce bitwise regardless of which replica serves.
func referenceSolve(t *testing.T, a *pastix.Matrix, b []float64) []float64 {
	t.Helper()
	an, err := pastix.Analyze(a, pastix.Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := an.FactorizeValues(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.SolveOpts(context.Background(), f, b, pastix.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.X
}

func bitIdentical(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: x[%d] = %x, want %x — not bit-identical", what, i, got[i], want[i])
		}
	}
}

func clientPolicyFast() client.Policy {
	return client.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 7}
}
