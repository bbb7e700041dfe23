package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSameSeedSameRequestBodies(t *testing.T) {
	ctx := context.Background()
	bodies := func(seed uint64) [][]byte {
		inst, err := setupServeSolve(ctx, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		return inst.(*serveSolveBench).bodies
	}
	a, b, c := bodies(7), bodies(7), bodies(8)
	for k := range a {
		if !bytes.Equal(a[k], b[k]) {
			t.Fatalf("serve-solve body %d differs between two set-ups with seed 7", k)
		}
		if bytes.Equal(a[k], c[k]) {
			t.Fatalf("serve-solve body %d is the same for seeds 7 and 8", k)
		}
	}

	_, fa, ra, err := refactorInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	_, fb, rb, err := refactorInputs(7)
	if err != nil {
		t.Fatal(err)
	}
	_, fc, _, err := refactorInputs(8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, rb) {
		t.Fatal("refactorize right-hand side differs for one seed")
	}
	for k := range fa {
		if !bytes.Equal(fa[k], fb[k]) {
			t.Fatalf("refactorize body %d differs for one seed", k)
		}
		if bytes.Equal(fa[k], fc[k]) {
			t.Fatalf("refactorize body %d is the same for seeds 7 and 8", k)
		}
	}
}

// corruptAnswers passes requests through to inner and moves the first
// entry of every solve answer by one ulp.
func corruptAnswers(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == "/v1/solve" && rec.Code == http.StatusOK {
			var reply solveReply
			if err := json.Unmarshal(body, &reply); err == nil && len(reply.X) > 0 {
				reply.X[0] = math.Nextafter(reply.X[0], math.Inf(1))
				body, _ = json.Marshal(reply)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

func TestCorruptedAnswerCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	inst, err := setupServeSolve(ctx, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	var ops atomic.Int64
	const perCaller = 6
	if w := closedLoop(ctx, inst, 2, 0, perCaller, nil, &ops); w.failed() != 0 {
		t.Fatalf("honest server: %d of %d ops failed, first: %v", w.failed(), len(w.samples), firstErr(w))
	}

	// Put a corrupting proxy in front of the same service.
	b := inst.(*serveSolveBench)
	b.s.hs.Close()
	b.s.hs = httptest.NewServer(corruptAnswers(b.s.srv.Handler()))
	w := closedLoop(ctx, inst, 2, 0, perCaller, nil, &ops)
	if len(w.samples) != 2*perCaller || w.failed() != len(w.samples) {
		t.Fatalf("corrupted answers: %d of %d ops failed, want all", w.failed(), len(w.samples))
	}
	if err := firstErr(w); !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("failure %v does not name the oracle", err)
	}
}

func TestRefactorizeReplayMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("factorizes MT1")
	}
	var ops atomic.Int64
	lm := newLayerMetrics()
	w, err := replayRefactorize(context.Background(), 5, newTracer(), &ops, lm)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.samples) != refactorSteps || w.failed() != 0 {
		t.Fatalf("replay: %d of %d steps failed, want %d steps, first: %v", w.failed(), len(w.samples), refactorSteps, firstErr(w))
	}
	for _, name := range []string{"solver.factorize_ms", "dynsched.factorize_ms", "solver.prepare_solve_ms", "sparse.mm_parse_ms"} {
		if lm.get(name) <= 0 {
			t.Errorf("replay left %s at %v", name, lm.get(name))
		}
	}
}
