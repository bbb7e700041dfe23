// Command perfbench is the repository's benchmark: two closed-loop
// workloads that each run one kind of operation at one size — a library
// solve and a served solve — on two processors.
//
// Usage (from the repository root, normally through perfbench/run.py, which
// builds this package first):
//
//	perfbench --workload solve --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (setup_s, p50_ms,
// ops_per_s, peak_rss_mb in the result; tail_ms and error_rate on lines of
// their own: the tail follows host steal too closely to bound, and the error
// rate is 0 on a correct tree). With --trace 1 the same workload runs again
// with spans recorded around every call into a layer, the layers' public
// functions are timed directly on the workload's inputs, and the per-layer
// metrics are printed instead. The traced serve-solve run also replays a few
// served refactorize steps, to split their latency. The last line of
// standard output is always the JSON result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// processStart approximates the process start: setup_s is timed from here
// to the first timed op.
var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one timed op.
type sample struct {
	op       int64
	lat      time.Duration
	done     time.Duration // completion, since the window started
	serverMS float64
	solveMS  float64
	err      error
}

// window is one closed-loop timed window.
type window struct {
	samples []sample
	wall    time.Duration
	mem     runtime.MemStats // deltas over the window: TotalAlloc, NumGC
}

func (w window) latMS() []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = float64(s.lat) / float64(time.Millisecond)
	}
	return out
}

func (w window) failed() int {
	n := 0
	for _, s := range w.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: solve or serve-solve")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 15, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	commit := fs.String("commit", "unknown", "source revision, recorded in the host stamp")
	spanDir := fs.String("span-dir", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (solve, serve-solve), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	var err error
	var res result
	if *traced == 1 {
		res, err = runTraced(stdout, wl, *seed, *seconds, *commit, *spanDir)
	} else {
		res, err = runPlain(stdout, wl, *seed, *seconds, *commit)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setUp builds the workload and runs its warm-up ops, returning the
// instance and the set-up wall time measured from start.
func setUp(ctx context.Context, wl *workload, seed uint64, traced bool, start time.Time) (instance, time.Duration, error) {
	inst, err := wl.setup(ctx, seed, traced)
	if err != nil {
		return nil, 0, err
	}
	var ops atomic.Int64
	w := closedLoop(ctx, inst, wl.callers, 0, wl.warmup, nil, &ops)
	if n := w.failed(); n > 0 {
		inst.close()
		return nil, 0, fmt.Errorf("%d of %d warm-up ops failed, first: %v", n, len(w.samples), firstErr(w))
	}
	return inst, time.Since(start), nil
}

func firstErr(w window) error {
	for _, s := range w.samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// closedLoop runs callers goroutines, each issuing ops back to back: for d
// when d > 0, otherwise count ops each. With a tracer every op gets a root
// "op" span; opSeq numbers ops across windows.
func closedLoop(ctx context.Context, inst instance, callers int, d time.Duration, count int, tr *tracer, opSeq *atomic.Int64) window {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if d > 0 && !time.Now().Before(deadline) || d <= 0 && i >= count {
					return
				}
				op := opSeq.Add(1)
				root := tr.begin(op, 0, "op")
				t0 := time.Now()
				r := inst.op(ctx, c, i, spanCtx{tr: tr, op: op, parent: root})
				lat := time.Since(t0)
				tr.end(root)
				per[c] = append(per[c], sample{op: op, lat: lat, done: time.Since(start), serverMS: r.serverMS, solveMS: r.solveMS, err: r.err})
			}
		}(c)
	}
	wg.Wait()
	w := window{wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	w.mem.TotalAlloc = after.TotalAlloc - before.TotalAlloc
	w.mem.NumGC = after.NumGC - before.NumGC
	for _, s := range per {
		w.samples = append(w.samples, s...)
	}
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].done < w.samples[j].done })
	return w
}

// refWindow is how long each host reference measurement runs.
const refWindow = 150 * time.Millisecond

// hostDrift brackets a timed window with the host gauges: the stolen CPU
// share over the window and the reference loop's rate before and after.
type hostDrift struct {
	t0                  cpuTicks
	tickErr             error
	steal               float64
	refBefore, refAfter float64
}

func (h *hostDrift) before() {
	h.refBefore = refGflops(refWindow)
	h.t0, h.tickErr = readCPUTicks()
}

func (h *hostDrift) after() {
	if h.tickErr == nil {
		if t1, err := readCPUTicks(); err == nil {
			h.steal = stealFrac(h.t0, t1)
		}
	}
	h.refAfter = refGflops(refWindow)
}

func (h *hostDrift) ref() float64 { return (h.refBefore + h.refAfter) / 2 }

func printStamps(out io.Writer, wl *workload, in layerInput, commit string) {
	host := readHostStamp(commit)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(out, "host %s\n", hb)
	st := in.an.Stats()
	factorBytes := in.f.MemoryBytes()
	l2 := "n/a"
	if host.L2Bytes > 0 {
		l2 = fmt.Sprintf("%.2f", float64(factorBytes)/float64(host.L2Bytes))
	}
	fmt.Fprintf(out, "problem workload=%s n=%d nnz_l=%d opc=%.4g factor_bytes=%d factor_over_l2=%s callers=%d\n",
		wl.name, st.N, st.ScalarNNZL, st.ScalarOPC, factorBytes, l2, wl.callers)
}

func runPlain(out io.Writer, wl *workload, seed uint64, seconds float64, commit string) (result, error) {
	ctx := context.Background()
	inst, setup, err := setUp(ctx, wl, seed, false, processStart)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	printStamps(out, wl, inst.inputs(), commit)

	var drift hostDrift
	drift.before()
	runtime.GC()
	var ops atomic.Int64
	w := closedLoop(ctx, inst, wl.callers, time.Duration(seconds*float64(time.Second)), 0, nil, &ops)
	drift.after()

	lat := w.latMS()
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, fmt.Errorf("peak RSS: %w", err)
	}
	failed := w.failed()
	res := result{
		Correct:   failed == 0,
		Attempted: len(w.samples),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":     {setup.Seconds(), "s"},
			"p50_ms":      {median(lat), "ms"},
			"ops_per_s":   {float64(len(w.samples)) / w.wall.Seconds(), "1/s"},
			"peak_rss_mb": {rss, "MB"},
		},
	}
	fmt.Fprintf(out, "setup_s %.4f s (%d warm-up ops)\n", setup.Seconds(), wl.callers*wl.warmup)
	fmt.Fprintf(out, "p50_ms %.4f ms (%d samples)\n", res.Metrics["p50_ms"].Value, len(lat))
	tv, tq, beyond := tail(lat)
	fmt.Fprintf(out, "tail_ms %.4f ms (p%.1f, %d of %d samples beyond it)\n", tv, tq, beyond, len(lat))
	fmt.Fprintf(out, "ops_per_s %.4f 1/s (%d ops in %.3f s)\n", res.Metrics["ops_per_s"].Value, len(w.samples), w.wall.Seconds())
	fmt.Fprintf(out, "peak_rss_mb %.2f MB\n", rss)
	fmt.Fprintf(out, "error_rate %.6f ratio (%d failed of %d attempted)\n", ratio(float64(failed), float64(len(w.samples))), failed, len(w.samples))
	if failed > 0 {
		fmt.Fprintf(out, "first failure: %v\n", firstErr(w))
	}
	fmt.Fprintf(out, "host.steal_frac %.4f ratio\nhost.ref_gflops %.4f Gflop/s (before %.3f, after %.3f)\n",
		drift.steal, drift.ref(), drift.refBefore, drift.refAfter)
	return res, nil
}

// refactorSteps is how many served refactorize steps replayRefactorize
// times, after one untimed step that fills the analysis cache.
const refactorSteps = 12

// replayRefactorize times refactorSteps served refactorize steps on a server
// of their own, with spans recorded by tr, then probes the refactorize
// layers (probeRefactorLayers) on the step's own MT1 inputs into lm.
func replayRefactorize(ctx context.Context, seed uint64, tr *tracer, ops *atomic.Int64, lm *layerMetrics) (window, error) {
	inst, err := setupServeRefactorize(ctx, seed, true)
	if err != nil {
		return window{}, err
	}
	defer inst.close()
	b := inst.(*serveRefactorBench)
	if warm := closedLoop(ctx, b, 1, 0, 1, nil, ops); warm.failed() > 0 {
		return window{}, fmt.Errorf("warm-up: %w", firstErr(warm))
	}
	b.s.wrap.tr.Store(tr)
	w := closedLoop(ctx, b, 1, 0, refactorSteps, tr, ops)
	b.s.wrap.tr.Store(nil)
	return w, probeRefactorLayers(ctx, b.in, lm)
}

func runTraced(out io.Writer, wl *workload, seed uint64, seconds float64, commit, spanDir string) (result, error) {
	ctx := context.Background()
	inst, _, err := setUp(ctx, wl, seed, true, processStart)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	in := inst.inputs()
	printStamps(out, wl, in, commit)

	// Half the window untraced, half traced: the difference of their
	// medians is the tracing overhead.
	half := time.Duration(seconds / 2 * float64(time.Second))
	var ops atomic.Int64
	var drift hostDrift
	drift.before()
	runtime.GC()
	plain := closedLoop(ctx, inst, wl.callers, half, 0, nil, &ops)
	runtime.GC()
	tr := newTracer()
	if in.wrap != nil {
		in.wrap.tr.Store(tr)
	}
	tw := closedLoop(ctx, inst, wl.callers, half, 0, tr, &ops)
	if in.wrap != nil {
		in.wrap.tr.Store(nil)
	}
	drift.after()

	lm := newLayerMetrics()
	failed := plain.failed() + tw.failed()
	attempted := len(plain.samples) + len(tw.samples)
	spanLayerMetrics(lm, plain, tw, tr.spans())
	if in.srv != nil {
		serviceMetrics(lm, tw, tr.spans(), in.srv)
	}
	// Allocation and GC per op come from the untraced half, so span
	// bookkeeping is not counted.
	lm.set("go.alloc_kb_per_op", float64(plain.mem.TotalAlloc)/1024/float64(max(len(plain.samples), 1)))
	lm.set("go.gc_cycles_per_op", float64(plain.mem.NumGC)/float64(max(len(plain.samples), 1)))
	lm.set("host.steal_frac", drift.steal)
	lm.set("host.ref_gflops", drift.ref())
	if err := probeLayers(ctx, in, lm); err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	var replay window
	if wl.replayRefactorize {
		if replay, err = replayRefactorize(ctx, seed, tr, &ops, lm); err != nil {
			return result{}, fmt.Errorf("refactorize replay: %w", err)
		}
		failed += replay.failed()
		attempted += len(replay.samples)
	} else if err := probeRefactorLayers(ctx, in, lm); err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	spans := tr.spans()

	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", wl.name, seed))
	if err := writeSpans(path, spans); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans %d written to %s\n", len(spans), path)
	names := make([]string, 0, len(lm.m))
	for n := range lm.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%s %.6g %s\n", n, lm.m[n].Value, lm.m[n].Unit)
	}
	fmt.Fprintf(out, "error_rate %.6f ratio (%d failed of %d attempted)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	writeBreakdown(out, wl.name, tw, spans, lm)
	if wl.replayRefactorize {
		writeBreakdown(out, "serve-refactorize", replay, spans, lm)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: lm.m}, nil
}
