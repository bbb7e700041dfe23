package pastix_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

// TestFactorizeTracedEndToEnd is the acceptance path: a traced P=4 3D
// Poisson factorization must produce well-formed Chrome trace JSON with one
// complete task event per schedule task, and a consistent divergence
// summary — under both runtimes.
func TestFactorizeTracedEndToEnd(t *testing.T) {
	a := gen.Laplacian3D(8, 8, 8)
	for _, rt := range []struct {
		name    string
		runtime pastix.Runtime
	}{{"mpsim", pastix.RuntimeAuto}, {"shared", pastix.RuntimeShared}} {
		t.Run(rt.name, func(t *testing.T) {
			an, err := pastix.Analyze(a, pastix.Options{Processors: 4, Runtime: rt.runtime})
			if err != nil {
				t.Fatal(err)
			}
			f, tr, err := an.FactorizeTraced(context.Background(), pastix.TraceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			st := an.Stats()

			sum, err := tr.Summary()
			if err != nil {
				t.Fatal(err)
			}
			if sum.Tasks != st.Tasks {
				t.Fatalf("summary covers %d tasks, schedule has %d", sum.Tasks, st.Tasks)
			}
			if sum.Processors != 4 || sum.MeasuredMakespan <= 0 || sum.TimeScale <= 0 {
				t.Fatalf("implausible summary: %+v", sum)
			}
			if rt.runtime == pastix.RuntimeShared && sum.Messages != 0 {
				t.Fatalf("shared runtime reported %d messages", sum.Messages)
			}

			var buf bytes.Buffer
			if err := tr.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string   `json:"name"`
					Cat  string   `json:"cat"`
					Ph   string   `json:"ph"`
					Ts   *float64 `json:"ts"`
					Pid  *int     `json:"pid"`
					Tid  *int     `json:"tid"`
				} `json:"traceEvents"`
				DisplayTimeUnit string `json:"displayTimeUnit"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("invalid Chrome trace JSON: %v", err)
			}
			taskEvents := 0
			for _, e := range doc.TraceEvents {
				if e.Ts == nil || e.Pid == nil || e.Tid == nil || e.Name == "" {
					t.Fatalf("event missing required field: %+v", e)
				}
				if e.Ph == "X" && e.Cat == "task" {
					taskEvents++
				}
			}
			if taskEvents != st.Tasks {
				t.Fatalf("Chrome trace holds %d task events, schedule has %d", taskEvents, st.Tasks)
			}

			var rep bytes.Buffer
			if err := tr.WriteReport(&rep); err != nil {
				t.Fatal(err)
			}
			if rep.Len() == 0 {
				t.Fatal("empty divergence report")
			}

			// The traced factor must still solve, and a traced solve appends
			// its events to the same trace.
			b := make([]float64, a.N)
			for i := range b {
				b[i] = 1
			}
			x, err := an.SolveParallelTraced(context.Background(), f, b, tr)
			if err != nil {
				t.Fatal(err)
			}
			if r := pastix.Residual(a, x, b); r > 1e-10 {
				t.Fatalf("residual %g after traced solve", r)
			}
		})
	}
}

// TestFactorizeContextCancelled: the public context entry points abort on a
// cancelled context without leaking worker goroutines.
func TestFactorizeContextCancelled(t *testing.T) {
	a := gen.Laplacian3D(8, 8, 8)
	for _, rt := range []pastix.Runtime{pastix.RuntimeAuto, pastix.RuntimeShared} {
		an, err := pastix.Analyze(a, pastix.Options{Processors: 4, Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := an.FactorizeContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: got %v, want context.Canceled", rt, err)
		}
		f, err := an.Factorize()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := an.SolveOpts(ctx, f, make([]float64, a.N), pastix.SolveOptions{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v solve: got %v, want context.Canceled", rt, err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines leaked: %d now, %d before", runtime.NumGoroutine(), base)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestAnalyzeContextCancelled: analysis observes cancellation at phase
// boundaries.
func TestAnalyzeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pastix.AnalyzeContext(ctx, gen.Laplacian3D(6, 6, 6), pastix.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
