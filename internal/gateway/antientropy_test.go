package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/gen"
)

// repairConfig speeds the probe and repair cadences up for tests.
func repairConfig(cfg *Config) {
	cfg.RepairInterval = 20 * time.Millisecond
}

func gatewayHealthz(t *testing.T, url string) (minRepl, under int) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		MinReplication  int `json:"min_replication"`
		UnderReplicated int `json:"under_replicated"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	return hz.MinReplication, hz.UnderReplicated
}

// liveReplicas counts the handle's replicas sitting on currently routable
// backends.
func liveReplicas(g *Gateway, handle string) int {
	e, ok := g.handles.get(handle)
	if !ok {
		return -1
	}
	now := time.Now()
	live := 0
	for _, rep := range e.replicas {
		if g.backends[rep.Backend].routable(now) {
			live++
		}
	}
	return live
}

// A restarted (store-losing) replica node erodes replication; the repair
// loop must detect the lost copy via the instance change, drop it, and
// re-replicate onto a surviving node by factor transfer — after which a
// solve succeeds bitwise even with the other original replica dead.
func TestAntiEntropyRestoresReplication(t *testing.T) {
	nodes := []*node{startNode(t, svcConfig()), startNode(t, svcConfig()), startNode(t, svcConfig())}
	g, ts := startGateway(t, nodes, repairConfig)

	a, mm := testMatrix(t)
	_, b := gen.RHSForSolution(a)
	want := referenceSolve(t, a, b)

	st, fr := postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
	if st != http.StatusOK {
		t.Fatalf("factorize status %d: %v", st, fr)
	}
	handle := field[string](t, fr, "handle")
	e, ok := g.handles.get(handle)
	if !ok || len(e.replicas) != 2 {
		t.Fatalf("gateway handle %q has %d replicas, want 2", handle, len(e.replicas))
	}
	victim := e.replicas[0].Backend
	survivor := e.replicas[1].Backend

	// The victim restarts without a data dir: new instance, empty store.
	nodes[victim].restart()

	waitFor(t, 10*time.Second, "replication repaired to 2", func() bool {
		return liveReplicas(g, handle) >= 2 && g.Stats().Repairs >= 1
	})
	if g.Stats().ReplicasDropped == 0 {
		t.Fatal("repair never dropped the verifiably lost replica")
	}
	if minRepl, under := gatewayHealthz(t, ts.URL); minRepl != 2 || under != 0 {
		t.Fatalf("healthz reports min_replication %d under_replicated %d after repair, want 2/0", minRepl, under)
	}

	// The repaired copy must carry the same bits: kill the surviving original
	// replica so only the repaired one can serve.
	nodes[survivor].down.Store(true)
	waitRoutable(t, g, 2)
	st, sr := postJSON(t, ts.URL+"/v1/solve", map[string]any{"handle": handle, "b": b})
	if st != http.StatusOK {
		t.Fatalf("solve after repair status %d: %v", st, sr)
	}
	bitIdentical(t, field[[]float64](t, sr, "x"), want, "solve served by repaired replica")
}

// With factor export disabled fleet-wide, the repair loop falls back to
// re-factorizing from the original request body — deterministic
// factorization makes the rebuilt replica bitwise-identical.
func TestAntiEntropyRefactorizeFallback(t *testing.T) {
	var nodes []*node
	for i := 0; i < 3; i++ {
		cfg := svcConfig()
		cfg.NoFactorExport = true
		nodes = append(nodes, startNode(t, cfg))
	}
	g, ts := startGateway(t, nodes, repairConfig)

	a, mm := testMatrix(t)
	_, b := gen.RHSForSolution(a)
	want := referenceSolve(t, a, b)

	st, fr := postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
	if st != http.StatusOK {
		t.Fatalf("factorize status %d: %v", st, fr)
	}
	handle := field[string](t, fr, "handle")
	e, _ := g.handles.get(handle)
	victim := e.replicas[0].Backend
	survivor := e.replicas[1].Backend
	nodes[victim].restart()

	waitFor(t, 10*time.Second, "refactorize repair", func() bool {
		return liveReplicas(g, handle) >= 2 && g.Stats().Refactorizes >= 1
	})

	nodes[survivor].down.Store(true)
	waitRoutable(t, g, 2)
	st, sr := postJSON(t, ts.URL+"/v1/solve", map[string]any{"handle": handle, "b": b})
	if st != http.StatusOK {
		t.Fatalf("solve after refactorize repair status %d: %v", st, sr)
	}
	bitIdentical(t, field[[]float64](t, sr, "x"), want, "solve served by re-factorized replica")
}

// A durable node that restarts replays its journal: the repair loop's stat
// check finds the handle intact and adopts the new instance instead of
// dropping and rebuilding the replica.
func TestAntiEntropyDurableRestartKeepsReplica(t *testing.T) {
	var nodes []*node
	for i := 0; i < 2; i++ {
		cfg := svcConfig()
		cfg.DataDir = t.TempDir()
		nodes = append(nodes, startNode(t, cfg))
	}
	g, ts := startGateway(t, nodes, repairConfig)

	a, mm := testMatrix(t)
	_, b := gen.RHSForSolution(a)
	want := referenceSolve(t, a, b)

	st, fr := postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
	if st != http.StatusOK {
		t.Fatalf("factorize status %d: %v", st, fr)
	}
	handle := field[string](t, fr, "handle")
	e, _ := g.handles.get(handle)
	victim := e.replicas[0].Backend
	oldInst := e.replicas[0].Inst
	if oldInst == "" {
		t.Fatal("replica recorded no process instance")
	}
	nodes[victim].restart()

	// Wait for the probe to see the new instance and a repair pass to verify.
	waitFor(t, 10*time.Second, "instance re-verified after durable restart", func() bool {
		e, ok := g.handles.get(handle)
		if !ok {
			return false
		}
		for _, rep := range e.replicas {
			if rep.Backend == victim && rep.Inst != "" && rep.Inst != oldInst {
				return true
			}
		}
		return false
	})
	if s := g.Stats(); s.ReplicasDropped != 0 || s.Refactorizes != 0 {
		t.Fatalf("durable restart triggered repair work: %+v", s)
	}

	// The replayed replica serves: kill the other node.
	other := e.replicas[1].Backend
	nodes[other].down.Store(true)
	waitRoutable(t, g, 1)
	st, sr := postJSON(t, ts.URL+"/v1/solve", map[string]any{"handle": handle, "b": b})
	if st != http.StatusOK {
		t.Fatalf("solve after durable restart status %d: %v", st, sr)
	}
	bitIdentical(t, field[[]float64](t, sr, "x"), want, "solve served by replayed replica")
}

// A factor import answered 500 counts against the destination's breaker
// like any other attempt: repair passes whose import fails open it at the
// threshold. The destination also refuses the re-factorize fallback with a
// 429, which leaves the breaker alone, so only the imports charge it.
func TestAntiEntropyImportFailureChargesBreaker(t *testing.T) {
	nodes := []*node{startNode(t, svcConfig()), startNode(t, svcConfig()), startNode(t, svcConfig())}
	g, ts := startGateway(t, nodes, func(c *Config) {
		c.Replicas = 3
		c.ProbeInterval = time.Hour // no probe success resets the breaker
		c.RepairInterval = -1       // the test runs the repair passes
	})
	dst := nodes[2]
	dst.intercept.Store(func(w http.ResponseWriter, r *http.Request, h http.Handler) bool {
		switch {
		case r.URL.Path == "/v1/factorize":
			w.WriteHeader(http.StatusTooManyRequests)
		case r.URL.Path == "/v1/replicate" && r.Header.Get("Content-Type") == "application/octet-stream":
			w.WriteHeader(http.StatusInternalServerError)
		default:
			return false
		}
		return true
	})

	_, mm := testMatrix(t)
	st, fr := postJSON(t, ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
	if st != http.StatusOK {
		t.Fatalf("factorize status %d: %v", st, fr)
	}
	if r := field[int](t, fr, "replicas"); r != 2 {
		t.Fatalf("factorize reached %d replicas, want 2 (the destination refused)", r)
	}

	b := g.backends[2]
	fails := func() int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.fails
	}
	for pass := 1; pass < g.cfg.BreakerThreshold; pass++ {
		g.repairOnce(context.Background())
		if n := fails(); n != pass {
			t.Fatalf("after repair pass %d the destination has %d consecutive failures, want %d", pass, n, pass)
		}
	}
	g.repairOnce(context.Background())
	if st := b.status(time.Now()); st.Breaker != "open" {
		t.Fatalf("destination breaker %s after %d failed imports, want open (last error %q)",
			st.Breaker, g.cfg.BreakerThreshold, st.LastError)
	}
	if s := g.Stats(); s.Repairs != 0 || s.Refactorizes != 0 {
		t.Fatalf("a refused repair was counted: %+v", s)
	}
}

// A factorize parked for a dead shard wakes promptly when a backend flips
// back to routable — the prober's wakeup broadcast, not a poll, unparks it.
func TestAwaitShardWakeup(t *testing.T) {
	n := startNode(t, svcConfig())
	g, ts := startGateway(t, []*node{n}, func(cfg *Config) {
		repairConfig(cfg)
		cfg.QueueWait = 20 * time.Second
	})
	n.down.Store(true)
	waitRoutable(t, g, 0)

	_, mm := testMatrix(t)
	type result struct {
		st  int
		fr  map[string]json.RawMessage
		err error
		dur time.Duration
	}
	done := make(chan result, 1)
	t0 := time.Now()
	go func() {
		st, fr, err := postRawJSON(ts.URL+"/v1/factorize", map[string]any{"matrix_market": mm})
		done <- result{st, fr, err, time.Since(t0)}
	}()
	waitFor(t, 5*time.Second, "factorize parked", func() bool {
		return g.Stats().Queued >= 1
	})
	n.down.Store(false)

	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("parked factorize: %v", res.err)
		}
		if res.st != http.StatusOK {
			t.Fatalf("parked factorize status %d: %v", res.st, res.fr)
		}
		if res.dur >= g.cfg.QueueWait {
			t.Fatalf("parked factorize took %v, at or beyond the %v queue wait", res.dur, g.cfg.QueueWait)
		}
	case <-time.After(15 * time.Second):
		t.Fatal(fmt.Sprintf("parked factorize still blocked 15s after the backend returned (queue wait %v)", g.cfg.QueueWait))
	}
}
