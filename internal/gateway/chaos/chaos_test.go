package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gateway"
	"github.com/pastix-go/pastix/internal/gateway/client"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/service"
)

func svcConfig() service.Config {
	return service.Config{
		Solver:     pastix.Options{Processors: 2},
		Workers:    4,
		QueueDepth: 32,
	}
}

// A plan is a pure function of its seed: same seed, same schedule; different
// seed, different schedule. Every kill has a later restart of the same node.
func TestChaosPlanDeterministic(t *testing.T) {
	p1 := NewPlan(5, 3, 2, time.Second, true)
	p2 := NewPlan(5, 3, 2, time.Second, true)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same seed produced different plans:\n%+v\n%+v", p1, p2)
	}
	diff := false
	for s := int64(6); s < 16 && !diff; s++ {
		if !reflect.DeepEqual(p1.Events, NewPlan(s, 3, 2, time.Second, true).Events) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("ten different seeds all produced the seed-5 plan")
	}
	for i := 1; i < len(p1.Events); i++ {
		if p1.Events[i].At < p1.Events[i-1].At {
			t.Fatalf("plan not sorted by time: %+v", p1.Events)
		}
	}
	for _, ev := range p1.Events {
		if ev.Kind != Kill {
			continue
		}
		restarted := false
		for _, ev2 := range p1.Events {
			if ev2.Kind == Restart && ev2.Node == ev.Node && ev2.At > ev.At {
				restarted = true
			}
		}
		if !restarted {
			t.Fatalf("kill of node %d at %v has no later restart: %+v", ev.Node, ev.At, p1.Events)
		}
	}
}

func postJSON(url string, body any) (int, map[string]json.RawMessage, error) {
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

func jsonField[T any](t *testing.T, m map[string]json.RawMessage, key string) T {
	t.Helper()
	var v T
	raw, ok := m[key]
	if !ok {
		t.Fatalf("response missing %q", key)
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("field %q: %v", key, err)
	}
	return v
}

// The acceptance soak: 3 nodes, R=2 replication, a seeded plan that kills a
// node mid-load (the factorize primary on even seeds) and restarts it empty.
// Every accepted solve must be bit-identical to a fault-free single-node
// run; the duplicate factorize with the original idempotency key must not
// double-apply on any node.
func TestChaosNodeKillSoak(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:3]
	}

	a := gen.Laplacian3D(5, 5, 5)
	var sb strings.Builder
	if err := pastix.WriteMatrixMarket(&sb, a, "chaos soak"); err != nil {
		t.Fatal(err)
	}
	mm := sb.String()

	// Fault-free reference, computed once: the bits every replica must
	// reproduce no matter which one serves.
	an, err := pastix.Analyze(a, pastix.Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	fFree, err := an.FactorizeValues(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 8
	bs := make([][]float64, clients*perClient)
	refs := make([][]float64, len(bs))
	for i := range bs {
		bs[i] = make([]float64, a.N)
		for j := range bs[i] {
			bs[i][j] = float64(1+(i*31+j*7)%13) - 6.0
		}
		res, err := an.SolveOpts(context.Background(), fFree, bs[i], pastix.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res.X
	}

	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cl, err := NewCluster(3, svcConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			g, err := gateway.New(gateway.Config{
				Backends:      cl.URLs(),
				Replicas:      2,
				ProbeInterval: 15 * time.Millisecond,
				Retry:         client.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: seed},
				Seed:          seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			gts := httptest.NewServer(g.Handler())
			defer gts.Close()

			idemKey := fmt.Sprintf("soak-%d", seed)
			st, fr, err := postJSON(gts.URL+"/v1/factorize",
				map[string]any{"matrix_market": mm, "idempotency_key": idemKey})
			if err != nil || st != http.StatusOK {
				t.Fatalf("factorize: status %d err %v: %v", st, err, fr)
			}
			handle := jsonField[string](t, fr, "handle")
			pb := jsonField[int](t, fr, "primary_backend")
			if r := jsonField[int](t, fr, "replicas"); r != 2 {
				t.Fatalf("replication degree %d, want 2", r)
			}

			// Seeded plan, one kill mid-load. Even seeds override the hashed
			// victim with the factorize primary so the kill provably lands on
			// a replica-bearing node.
			plan := NewPlan(seed, 3, 1, 500*time.Millisecond, true)
			if seed%2 == 0 {
				victim := -1
				for i, ev := range plan.Events {
					if ev.Kind == Kill {
						victim = ev.Node
					}
					_ = i
				}
				for i := range plan.Events {
					if plan.Events[i].Node == victim && plan.Events[i].Kind != StallEvent {
						plan.Events[i].Node = pb
					}
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			planDone := make(chan error, 1)
			go func() {
				_, err := cl.Apply(ctx, plan)
				planDone <- err
			}()

			// The load: clients solving through the whole chaos window.
			type result struct {
				idx int
				st  int
				out map[string]json.RawMessage
				err error
			}
			results := make(chan result, len(bs))
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for k := 0; k < perClient; k++ {
						i := c*perClient + k
						st, out, err := postJSON(gts.URL+"/v1/solve",
							map[string]any{"handle": handle, "b": bs[i]})
						results <- result{i, st, out, err}
						time.Sleep(time.Duration(50+10*c) * time.Millisecond / time.Duration(perClient))
					}
				}(c)
			}
			wg.Wait()
			close(results)
			if err := <-planDone; err != nil {
				t.Fatalf("chaos plan failed: %v", err)
			}

			// No request lost: with one kill and R=2 every solve has a live
			// replica, so every one must be accepted — and bit-identical.
			for res := range results {
				if res.err != nil {
					t.Fatalf("solve %d lost: %v", res.idx, res.err)
				}
				if res.st != http.StatusOK {
					t.Fatalf("solve %d rejected with status %d: %v", res.idx, res.st, res.out)
				}
				x := jsonField[[]float64](t, res.out, "x")
				want := refs[res.idx]
				if len(x) != len(want) {
					t.Fatalf("solve %d: %d values, want %d", res.idx, len(x), len(want))
				}
				for j := range x {
					if x[j] != want[j] {
						t.Fatalf("seed %d solve %d: x[%d] = %x, want %x — not bit-identical to the fault-free run",
							seed, res.idx, j, x[j], want[j])
					}
				}
			}

			// Not double-applied: replaying the factorize with the original
			// idempotency key must leave every node with at most one factor —
			// survivors replay, only the wiped restarted node recommits.
			st, _, err = postJSON(gts.URL+"/v1/factorize",
				map[string]any{"matrix_market": mm, "idempotency_key": idemKey})
			if err != nil || st != http.StatusOK {
				t.Fatalf("duplicate factorize: status %d err %v", st, err)
			}
			for i, n := range cl.Nodes {
				lf, err := n.LiveFactors()
				if err != nil {
					t.Fatalf("node %d readyz: %v", i, err)
				}
				if lf > 1 {
					t.Fatalf("node %d holds %d factors for one idempotency key — double-applied", i, lf)
				}
			}
		})
	}
}

// The durable acceptance soak: 3 durable nodes (per-node data dirs), R=2, a
// seeded mid-load kill followed by a restart that REPLAYS the journal
// instead of coming back empty. Three guarantees, per seed:
//
//  1. Zero lost accepted handles: every solve issued through the window is
//     accepted and bit-identical to the fault-free single-node run, and the
//     handle still solves after the dust settles.
//  2. Replication is restored to R=2 before the soak ends — by the durable
//     replay, the anti-entropy repair, or both.
//  3. The duplicate factorize with the original idempotency key does not
//     double-apply anywhere: the restarted node's journaled idempotency
//     record replays the original response.
func TestChaosDurableNodeKillSoak(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:3]
	}

	a := gen.Laplacian3D(5, 5, 5)
	var sb strings.Builder
	if err := pastix.WriteMatrixMarket(&sb, a, "durable chaos soak"); err != nil {
		t.Fatal(err)
	}
	mm := sb.String()

	an, err := pastix.Analyze(a, pastix.Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	fFree, err := an.FactorizeValues(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 6
	bs := make([][]float64, clients*perClient)
	refs := make([][]float64, len(bs))
	for i := range bs {
		bs[i] = make([]float64, a.N)
		for j := range bs[i] {
			bs[i][j] = float64(1+(i*17+j*5)%11) - 5.0
		}
		res, err := an.SolveOpts(context.Background(), fFree, bs[i], pastix.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res.X
	}

	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := svcConfig()
			cfg.DataDir = t.TempDir()
			cl, err := NewCluster(3, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			g, err := gateway.New(gateway.Config{
				Backends:       cl.URLs(),
				Replicas:       2,
				ProbeInterval:  15 * time.Millisecond,
				RepairInterval: 20 * time.Millisecond,
				Retry:          client.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: seed},
				Seed:           seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			gts := httptest.NewServer(g.Handler())
			defer gts.Close()

			idemKey := fmt.Sprintf("durable-soak-%d", seed)
			st, fr, err := postJSON(gts.URL+"/v1/factorize",
				map[string]any{"matrix_market": mm, "idempotency_key": idemKey})
			if err != nil || st != http.StatusOK {
				t.Fatalf("factorize: status %d err %v: %v", st, err, fr)
			}
			handle := jsonField[string](t, fr, "handle")
			pb := jsonField[int](t, fr, "primary_backend")
			if !jsonField[bool](t, fr, "durable") {
				t.Fatal("factorize against a durable node did not ack durable")
			}

			// Kill the factorize primary mid-load on even seeds; the hashed
			// victim otherwise.
			plan := NewPlan(seed, 3, 1, 500*time.Millisecond, true)
			if seed%2 == 0 {
				victim := -1
				for _, ev := range plan.Events {
					if ev.Kind == Kill {
						victim = ev.Node
					}
				}
				for i := range plan.Events {
					if plan.Events[i].Node == victim && plan.Events[i].Kind != StallEvent {
						plan.Events[i].Node = pb
					}
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			planDone := make(chan error, 1)
			go func() {
				_, err := cl.Apply(ctx, plan)
				planDone <- err
			}()

			type result struct {
				idx int
				st  int
				out map[string]json.RawMessage
				err error
			}
			results := make(chan result, len(bs))
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for k := 0; k < perClient; k++ {
						i := c*perClient + k
						st, out, err := postJSON(gts.URL+"/v1/solve",
							map[string]any{"handle": handle, "b": bs[i]})
						results <- result{i, st, out, err}
						time.Sleep(time.Duration(50+10*c) * time.Millisecond / time.Duration(perClient))
					}
				}(c)
			}
			wg.Wait()
			close(results)
			if err := <-planDone; err != nil {
				t.Fatalf("chaos plan failed: %v", err)
			}

			for res := range results {
				if res.err != nil {
					t.Fatalf("solve %d lost: %v", res.idx, res.err)
				}
				if res.st != http.StatusOK {
					t.Fatalf("solve %d rejected with status %d: %v", res.idx, res.st, res.out)
				}
				x := jsonField[[]float64](t, res.out, "x")
				want := refs[res.idx]
				if len(x) != len(want) {
					t.Fatalf("solve %d: %d values, want %d", res.idx, len(x), len(want))
				}
				for j := range x {
					if x[j] != want[j] {
						t.Fatalf("seed %d solve %d: x[%d] = %x, want %x — not bit-identical to the fault-free run",
							seed, res.idx, j, x[j], want[j])
					}
				}
			}

			// Replication restored to R=2 before the soak ends: the restarted
			// node replayed its journal and/or the repair loop re-replicated.
			deadline := time.Now().Add(15 * time.Second)
			for {
				resp, err := http.Get(gts.URL + "/healthz")
				if err != nil {
					t.Fatal(err)
				}
				var hz struct {
					MinReplication  int `json:"min_replication"`
					UnderReplicated int `json:"under_replicated"`
				}
				err = json.NewDecoder(resp.Body).Decode(&hz)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if hz.MinReplication >= 2 && hz.UnderReplicated == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("seed %d: replication not restored to 2 (min %d, under-replicated %d)",
						seed, hz.MinReplication, hz.UnderReplicated)
				}
				time.Sleep(20 * time.Millisecond)
			}

			// The handle still solves after kill, restart and repair.
			st, out, err := postJSON(gts.URL+"/v1/solve", map[string]any{"handle": handle, "b": bs[0]})
			if err != nil || st != http.StatusOK {
				t.Fatalf("post-recovery solve: status %d err %v: %v", st, err, out)
			}
			x := jsonField[[]float64](t, out, "x")
			for j := range x {
				if x[j] != refs[0][j] {
					t.Fatalf("post-recovery solve: x[%d] = %x, want %x", j, x[j], refs[0][j])
				}
			}

			// Not double-applied, even through the durable restart.
			st, _, err = postJSON(gts.URL+"/v1/factorize",
				map[string]any{"matrix_market": mm, "idempotency_key": idemKey})
			if err != nil || st != http.StatusOK {
				t.Fatalf("duplicate factorize: status %d err %v", st, err)
			}
			total := 0
			for i, n := range cl.Nodes {
				lf, err := n.LiveFactors()
				if err != nil {
					t.Fatalf("node %d readyz: %v", i, err)
				}
				if lf > 1 {
					t.Fatalf("node %d holds %d factors for one idempotency key — double-applied", i, lf)
				}
				total += lf
			}
			if total < 2 {
				t.Fatalf("only %d live factors across the fleet after recovery, want >= 2", total)
			}
		})
	}
}
