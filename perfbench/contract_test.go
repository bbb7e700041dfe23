package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecListsEveryWorkloadAndLayer(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, benchmark %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// lastResult runs the benchmark with args and decodes its last stdout line,
// insisting on exactly the four result keys.
func lastResult(t *testing.T, args ...string) result {
	t.Helper()
	var out bytes.Buffer
	if code := run(append(args, "--span-dir", t.TempDir()), &out, io.Discard); code != 0 {
		t.Fatalf("run %v exited %d; output:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if len(keys) != 4 {
		t.Fatalf("result keys = %d, want correct, attempted, failed, metrics", len(keys))
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("result = correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func checkMetrics(t *testing.T, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.Name, g, ok, m.Unit)
		}
	}
}

func TestOutputMatchesSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	spec := readSpec(t)
	plain := lastResult(t, "--workload", "serve-solve", "--seed", "4", "--seconds", "0.3", "--trace", "0")
	checkMetrics(t, plain.Metrics, spec.EndToEnd)
	for _, m := range plain.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %+v is not positive", m)
		}
	}
	traced := lastResult(t, "--workload", "serve-solve", "--seed", "4", "--seconds", "0.3", "--trace", "1")
	checkMetrics(t, traced.Metrics, spec.PerLayer)
	if traced.Metrics["service.rtt_ms"].Value <= 0 || traced.Metrics["solver.solve_engine_ms"].Value <= 0 {
		t.Errorf("traced run left served layers unmeasured: %+v", traced.Metrics)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, io.Discard, io.Discard); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}
