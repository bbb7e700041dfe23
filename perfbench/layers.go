package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/service"
	"github.com/pastix-go/pastix/internal/solver"
)

// perLayer lists every per-layer metric with its unit, named after the
// repository module it measures. Every traced run emits all of them; a
// layer the workload does not reach (the service, for the library solve)
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"order.ms", "ms"}, {"etree.ms", "ms"}, {"symbolic.ms", "ms"}, {"sched.ms", "ms"},
	{"symbolic.opc", "flop"}, {"symbolic.nnz_l", "count"},
	{"blas.gemm_ndt_gflops", "Gflop/s"}, {"blas.ldlt_gflops", "Gflop/s"}, {"blas.gemv_packed_gbps", "GB/s"},
	{"solver.factorize_ms", "ms"}, {"solver.factorize_gflops", "Gflop/s"}, {"solver.factorize_traced_ms", "ms"},
	{"solver.factorize_imbalance", "ratio"}, {"mpsim.messages", "count"}, {"mpsim.bytes", "bytes"},
	{"solver.factorize_shared_ms", "ms"}, {"dynsched.factorize_ms", "ms"}, {"solver.factorize_seq_ms", "ms"},
	{"solver.prepare_solve_ms", "ms"},
	{"solver.solve_api_ms", "ms"}, {"solver.solve_engine_ms", "ms"}, {"solver.solve_seq_ms", "ms"},
	{"solver.solve_factor_gbps", "GB/s"},
	{"solver.panel_ms_per_rhs.2", "ms"}, {"solver.panel_ms_per_rhs.32", "ms"},
	{"sched.solve_levels", "count"}, {"sched.solve_parallel_steps", "count"}, {"sched.solve_chain_cells", "count"},
	{"sparse.mm_parse_ms", "ms"}, {"sparse.mm_mb", "MB"}, {"sparse.fingerprint_ms", "ms"},
	{"service.body_decode_ms", "ms"},
	{"service.rtt_ms", "ms"}, {"service.handler_ms", "ms"}, {"service.server_ms", "ms"}, {"service.outside_ms", "ms"},
	{"service.engine_ms", "ms"}, {"service.batch_wait_ms", "ms"},
	{"service.batch_rhs_mean", "rhs"}, {"service.batches", "count"},
	{"service.cache_hit_ratio", "ratio"}, {"service.cache_lookups", "count"}, {"service.shed", "count"},
	{"go.alloc_kb_per_op", "kB"}, {"go.gc_cycles_per_op", "count"},
	{"host.steal_frac", "ratio"}, {"host.ref_gflops", "Gflop/s"},
	{"trace.p50_ms", "ms"}, {"trace.overhead_ms", "ms"},
	{"span.op.self_ms", "ms"}, {"span.http.self_ms", "ms"}, {"span.service.self_ms", "ms"}, {"span.pastix.self_ms", "ms"},
}

// spanLayers are the span names the benchmark records: the op itself (the
// benchmark's client code), the HTTP round trip, the service handler and
// the library call.
var spanLayers = []string{"op", "http", "service", "pastix"}

type layerMetrics struct {
	m map[string]metric
	// factorizeRuns are the untraced factorize probe times (ms) behind
	// solver.factorize_ms; their range is the noise the trace cost is
	// judged against.
	factorizeRuns []float64
}

func newLayerMetrics() *layerMetrics {
	lm := &layerMetrics{m: map[string]metric{}}
	for _, p := range perLayer {
		lm.m[p.name] = metric{0, p.unit}
	}
	return lm
}

func (lm *layerMetrics) set(name string, v float64) {
	mt, ok := lm.m[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	mt.Value = v
	lm.m[name] = mt
}

func (lm *layerMetrics) get(name string) float64 { return lm.m[name].Value }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeMS runs fn at least minReps times, then again while the budget
// lasts (at most maxReps), and returns the median wall time in ms.
func timeMS(minReps, maxReps int, budget time.Duration, fn func() error) (float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < minReps || len(times) < maxReps && time.Since(start) < budget {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}

// kernelRate times batches of calls to fn for about budget and returns
// units/s of the median batch, where one call does work units.
func kernelRate(work float64, budget time.Duration, fn func()) float64 {
	const batch = 32
	t, _ := timeMS(5, 1000, budget, func() error {
		for i := 0; i < batch; i++ {
			fn()
		}
		return nil
	})
	return batch * work / (t / 1000)
}

// opView is one traced op seen through its spans.
type opView struct {
	lat      float64 // ms, the op's root span
	http     float64 // ms, summed HTTP round trips
	handler  float64 // ms, summed service handler spans
	first    float64 // ms, the first HTTP round trip of the op
	serverMS float64
	solveMS  float64
}

func opViews(w window, spans []span) []opView {
	tot := layerTotals(spans)
	first := map[int64]span{}
	for _, s := range spans {
		if f, ok := first[s.Op]; s.Name == "http" && (!ok || s.Start < f.Start) {
			first[s.Op] = s
		}
	}
	var out []opView
	for _, s := range w.samples {
		if s.err != nil {
			continue
		}
		t := tot[s.op]
		f := first[s.op]
		out = append(out, opView{
			lat: ms(t["op"]), http: ms(t["http"]), handler: ms(t["service"]),
			first: ms(time.Duration(f.End - f.Start)), serverMS: s.serverMS, solveMS: s.solveMS,
		})
	}
	return out
}

// spanLayerMetrics fills the metrics taken from the timed windows: the
// traced p50, its overhead over the untraced half and per-layer self times.
func spanLayerMetrics(lm *layerMetrics, plain, traced window, spans []span) {
	lm.set("trace.p50_ms", median(traced.latMS()))
	lm.set("trace.overhead_ms", median(traced.latMS())-median(plain.latMS()))
	self := selfTimes(spans)
	for _, layer := range spanLayers {
		var xs []float64
		for _, s := range traced.samples {
			xs = append(xs, ms(self[s.op][layer]))
		}
		lm.set("span."+layer+".self_ms", median(xs))
	}
}

// serviceMetrics fills the service split from the traced ops of a served
// window and the counters from the server behind it.
func serviceMetrics(lm *layerMetrics, w window, spans []span, srv *service.Server) {
	views := opViews(w, spans)
	col := func(f func(v opView) float64) float64 {
		xs := make([]float64, len(views))
		for i, v := range views {
			xs[i] = f(v)
		}
		return median(xs)
	}
	lm.set("service.rtt_ms", col(func(v opView) float64 { return v.http }))
	lm.set("service.handler_ms", col(func(v opView) float64 { return v.handler }))
	lm.set("service.server_ms", col(func(v opView) float64 { return v.serverMS }))
	lm.set("service.outside_ms", col(func(v opView) float64 { return v.http - v.serverMS }))
	// The counters cover the server's whole life: set-up, warm-up and every
	// window it served.
	m := srv.Metrics()
	engine := 1000 * ratio(m.SolveSeconds.Sum(), float64(m.SolveSeconds.Count()))
	lm.set("service.engine_ms", engine)
	lm.set("service.batch_wait_ms", col(func(v opView) float64 { return v.solveMS })-engine)
	lm.set("service.batch_rhs_mean", ratio(float64(m.BatchedRHS.Value()), float64(m.Batches.Value())))
	lm.set("service.batches", float64(m.Batches.Value()))
	lookups := m.CacheHits.Value() + m.CacheMisses.Value()
	lm.set("service.cache_hit_ratio", ratio(float64(m.CacheHits.Value()), float64(lookups)))
	lm.set("service.cache_lookups", float64(lookups))
	lm.set("service.shed", float64(m.Shed.Value()))
}

// probeLayers times the analysis, the dense kernels and the solve layers
// directly on the workload's own inputs.
func probeLayers(ctx context.Context, in layerInput, lm *layerMetrics) error {
	pt := in.an.PhaseTimes()
	lm.set("order.ms", ms(pt[0]))
	lm.set("etree.ms", ms(pt[1]))
	lm.set("symbolic.ms", ms(pt[2]))
	lm.set("sched.ms", ms(pt[3]))
	st := in.an.Stats()
	lm.set("symbolic.opc", st.ScalarOPC)
	lm.set("symbolic.nnz_l", float64(st.ScalarNNZL))

	probeDenseKernels(lm)
	return probeSolve(ctx, in, lm)
}

// probeRefactorLayers times the layers of a refactorize step on in: the
// factorization under each runtime, PrepareSolve and the request decode.
// The traced serve-solve run takes them on the MT1 inputs of the steps it
// replays (replayRefactorize), the solve workload on its own inputs.
func probeRefactorLayers(ctx context.Context, in layerInput, lm *layerMetrics) error {
	if err := probeFactorize(ctx, in, lm); err != nil {
		return err
	}
	if err := probeRuntimes(ctx, in, lm); err != nil {
		return err
	}
	return probeDecode(in, lm)
}

// probeDecode times what the service does to a factorize request before it
// factorizes: the JSON body decode, the Matrix Market parse and the pattern
// fingerprint, on the workload's exact Matrix Market text.
func probeDecode(in layerInput, lm *layerMetrics) error {
	t, err := timeMS(3, 10, time.Second, func() error {
		_, err := pastix.ReadMatrixMarket(bytes.NewReader(in.mm))
		return err
	})
	if err != nil {
		return fmt.Errorf("matrix market: %w", err)
	}
	lm.set("sparse.mm_parse_ms", t)
	lm.set("sparse.mm_mb", float64(len(in.mm))/1e6)
	t, _ = timeMS(5, 50, 200*time.Millisecond, func() error {
		pastix.PatternFingerprint(in.a)
		return nil
	})
	lm.set("sparse.fingerprint_ms", t)
	body, err := json.Marshal(factorizeBody{MatrixMarket: string(in.mm)})
	if err != nil {
		return err
	}
	t, err = timeMS(3, 10, time.Second, func() error {
		var fb factorizeBody
		return json.Unmarshal(body, &fb)
	})
	if err != nil {
		return err
	}
	lm.set("service.body_decode_ms", t)
	return nil
}

// probeDenseKernels rates the BLAS kernels the factorization spends its
// time in, on 64×64 blocks (the default block size).
func probeDenseKernels(lm *layerMetrics) {
	const n = 64
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	d := make([]float64, n)
	spd := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%11)/11 - 0.5
		b[i] = float64(i%5)/5 - 0.5
	}
	for i := 0; i < n; i++ {
		d[i] = 1 + float64(i%3)
		for j := 0; j < n; j++ {
			spd[i+j*n] = -1 / float64(n)
		}
		spd[i+i*n] = 2
	}
	lm.set("blas.gemm_ndt_gflops", kernelRate(2*n*n*n, 300*time.Millisecond, func() {
		blas.GemmNDTAuto(n, n, n, a, n, d, b, n, c, n)
	})/1e9)
	work := make([]float64, n*n)
	lm.set("blas.ldlt_gflops", kernelRate(n*n*n/3, 300*time.Millisecond, func() {
		copy(work, spd)
		if err := blas.LDLT(n, work, n); err != nil {
			panic(err) // spd is diagonally dominant by construction
		}
	})/1e9)
}

func probeFactorize(ctx context.Context, in layerInput, lm *layerMetrics) error {
	const reps, budget = 5, 2 * time.Second
	// Plain and traced factorizations alternate, so a change in host load
	// shifts both and their difference stays the cost of tracing.
	var plain, traced, prep []float64
	var tr *pastix.Trace
	start := time.Now()
	for len(plain) < 2 || len(plain) < reps && time.Since(start) < 2*budget {
		t0 := time.Now()
		f, err := in.an.FactorizeValues(ctx, in.a)
		if err != nil {
			return fmt.Errorf("factorize: %w", err)
		}
		plain = append(plain, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := in.an.PrepareSolve(f); err != nil {
			return err
		}
		prep = append(prep, ms(time.Since(t0)))
		t0 = time.Now()
		if _, tr, err = in.an.FactorizeValuesTraced(ctx, in.a, pastix.TraceOptions{}); err != nil {
			return fmt.Errorf("traced factorize: %w", err)
		}
		traced = append(traced, ms(time.Since(t0)))
	}
	t := median(plain)
	lm.factorizeRuns = plain
	lm.set("solver.factorize_ms", t)
	lm.set("solver.factorize_gflops", in.an.Stats().ScalarOPC/(t/1000)/1e9)
	lm.set("solver.prepare_solve_ms", median(prep))
	lm.set("solver.factorize_traced_ms", median(traced))
	sum, err := tr.Summary()
	if err != nil {
		return fmt.Errorf("trace summary: %w", err)
	}
	lm.set("solver.factorize_imbalance", sum.MeasuredImbalance)
	lm.set("mpsim.messages", float64(sum.Messages))
	lm.set("mpsim.bytes", float64(sum.Bytes))
	return nil
}

// probeRuntimes times the same factorization pinned to the other runtimes.
func probeRuntimes(ctx context.Context, in layerInput, lm *layerMetrics) error {
	const reps, budget = 5, 2 * time.Second
	for _, p := range []struct {
		name string
		rt   pastix.Runtime
	}{
		{"solver.factorize_shared_ms", pastix.RuntimeShared},
		{"dynsched.factorize_ms", pastix.RuntimeDynamic},
		{"solver.factorize_seq_ms", pastix.RuntimeSequential},
	} {
		opts := solverOpts
		opts.Runtime = p.rt
		an, err := pastix.AnalyzeContext(ctx, in.a, opts)
		if err != nil {
			return fmt.Errorf("analyze (%v): %w", p.rt, err)
		}
		t, err := timeMS(2, reps, budget, func() error {
			_, err := an.FactorizeValues(ctx, in.a)
			return err
		})
		if err != nil {
			return fmt.Errorf("factorize (%v): %w", p.rt, err)
		}
		lm.set(p.name, t)
	}
	return nil
}

func probeSolve(ctx context.Context, in layerInput, lm *layerMetrics) error {
	const budget = 500 * time.Millisecond
	solve := func(b []float64, opts pastix.SolveOptions) (float64, *pastix.SolveResult, error) {
		var res *pastix.SolveResult
		t, err := timeMS(5, 200, budget, func() error {
			var err error
			res, err = in.an.SolveOpts(ctx, in.f, b, opts)
			return err
		})
		return t, res, err
	}
	t, res, err := solve(in.rhs, pastix.SolveOptions{})
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	lm.set("solver.solve_api_ms", t)
	lm.set("sched.solve_levels", float64(res.Plan.Levels))
	lm.set("sched.solve_parallel_steps", float64(res.Plan.ParallelSteps))
	lm.set("sched.solve_chain_cells", float64(res.Plan.ChainCells))
	if t, _, err = solve(in.rhs, pastix.SolveOptions{Runtime: pastix.RuntimeSequential}); err != nil {
		return fmt.Errorf("sequential solve: %w", err)
	}
	lm.set("solver.solve_seq_ms", t)
	for _, k := range []int{2, 32} {
		panel := make([]float64, 0, k*len(in.rhs))
		for r := 0; r < k; r++ {
			panel = append(panel, in.rhs...)
		}
		if t, _, err = solve(panel, pastix.SolveOptions{NRHS: k}); err != nil {
			return fmt.Errorf("panel solve: %w", err)
		}
		lm.set(fmt.Sprintf("solver.panel_ms_per_rhs.%d", k), t/float64(k))
	}

	// The engine alone: the same analysis and factor rebuilt through the
	// solver package, so the level-set engine can be timed without the
	// permutation and allocation SolveOpts wraps around it.
	san, err := solver.AnalyzeCtx(ctx, in.a, solver.Options{P: solverOpts.Processors})
	if err != nil {
		return fmt.Errorf("solver analyze: %w", err)
	}
	sf, err := san.FactorizeOptsCtx(ctx, solver.ParOptions{})
	if err != nil {
		return fmt.Errorf("solver factorize: %w", err)
	}
	pl := san.SolvePlanFor(solverOpts.Processors)
	san.PrepareSolve(sf)
	pb := make([]float64, len(in.rhs))
	for newI, old := range san.Perm {
		pb[newI] = in.rhs[old]
	}
	t, err = timeMS(5, 200, budget, func() error {
		_, err := solver.SolveLevelCtx(ctx, pl, sf, pb, solver.LevelOptions{})
		return err
	})
	if err != nil {
		return fmt.Errorf("level-set engine: %w", err)
	}
	lm.set("solver.solve_engine_ms", t)
	lm.set("solver.solve_factor_gbps", 2*float64(in.f.MemoryBytes())/(t/1000)/1e9)
	lm.set("blas.gemv_packed_gbps", packedGemvRate(san, budget))
	return nil
}

// packedGemvRate streams GemvNPacked and GemvTPacked over packed panels
// shaped like the factor's off-diagonal panels (one per column block) and
// returns the bytes of panel read per second, in GB/s.
func packedGemvRate(san *solver.Analysis, budget time.Duration) float64 {
	type shape struct{ m, n, off int }
	var shapes []shape
	total, maxDim := 0, 0
	for k := range san.Sym.CB {
		cb := &san.Sym.CB[k]
		m, n := cb.RowsBelow(), cb.Width()
		if m == 0 {
			continue
		}
		shapes = append(shapes, shape{m, n, total})
		total += m * n
		maxDim = max(maxDim, m, n)
	}
	panels := make([]float64, total)
	for i := range panels {
		panels[i] = float64(i%17)/17 - 0.5
	}
	x := make([]float64, maxDim)
	y := make([]float64, maxDim)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	t, _ := timeMS(3, 100, budget, func() error {
		for _, s := range shapes {
			a := panels[s.off : s.off+s.m*s.n]
			blas.GemvNPacked(s.m, s.n, a, x, y)
			blas.GemvTPacked(s.m, s.n, a, x, y)
		}
		return nil
	})
	return 2 * 8 * float64(total) / (t / 1000) / 1e9
}

// opBand is a set of traced ops around the median latency.
type opBand []opView

// medianBand returns the ops whose latency lies between the 40th and 60th
// percentile, so means over them add up to about the median op.
func medianBand(views []opView) opBand {
	sort.Slice(views, func(i, j int) bool { return views[i].lat < views[j].lat })
	return opBand(views[len(views)*2/5 : max(len(views)*3/5, len(views)*2/5+1)])
}

func (b opBand) mean(f func(v opView) float64) float64 {
	s := 0.0
	for _, v := range b {
		s += f(v)
	}
	return s / float64(len(b))
}

// writeBreakdown prints where the p50 of a traced served window goes, from
// means over the ops around the median (medianBand): the traced window of
// serve-solve, or the refactorize steps it replays (replayRefactorize).
func writeBreakdown(out io.Writer, workload string, served window, spans []span, lm *layerMetrics) {
	p50 := median(served.latMS())
	type part struct {
		name string
		ms   float64
		note string // printed in place of the share
	}
	var parts []part
	switch workload {
	case "serve-solve":
		band := medianBand(opViews(served, spans))
		mean := band.mean
		engine := lm.get("service.engine_ms")
		parts = []part{
			{"engine (level-set panel solve, Metrics.SolveSeconds mean)", engine, ""},
			{"batch wait (response solve_ms - engine)", mean(func(v opView) float64 { return v.solveMS }) - engine, ""},
			{"rest of the server (handler span - solve_ms: JSON, admission, handle store)", mean(func(v opView) float64 { return v.handler - v.solveMS }), ""},
			{"outside the server: HTTP (client round trip - handler span)", mean(func(v opView) float64 { return v.http - v.handler }), ""},
			{"outside the server: client JSON decode + oracle check (op - round trip)", mean(func(v opView) float64 { return v.lat - v.http }), ""},
		}
	case "serve-refactorize":
		band := medianBand(opViews(served, spans))
		// The service's factorize_ms times FactorizeValuesTraced inside the
		// handler. The alternating probes give the cost of the trace, unless
		// it is within the spread of the untraced probe.
		fact := band.mean(func(v opView) float64 { return v.serverMS })
		cost := lm.get("solver.factorize_traced_ms") - lm.get("solver.factorize_ms")
		noise := spread(lm.factorizeRuns)
		traceCost := part{"trace cost (traced - untraced factorize probe)", cost, ""}
		if cost <= noise {
			traceCost.ms = 0
			traceCost.note = fmt.Sprintf("below noise: %+.1f ms, untraced probe range %.1f ms", cost, noise)
		}
		parts = []part{
			{"decode (JSON body + Matrix Market parse, probes)", lm.get("service.body_decode_ms") + lm.get("sparse.mm_parse_ms"), ""},
			{"fingerprint (probe)", lm.get("sparse.fingerprint_ms"), ""},
			{"factorize (response factorize_ms - trace cost)", fact - traceCost.ms, ""},
			traceCost,
			{"prepare (PrepareSolve probe)", lm.get("solver.prepare_solve_ms"), ""},
			{"solve + release requests (round-trip spans)", band.mean(func(v opView) float64 { return v.http - v.first }), ""},
		}
	default:
		return
	}
	sum := 0.0
	for _, p := range parts {
		sum += p.ms
	}
	fmt.Fprintf(out, "breakdown %s traced p50 %.3f ms over %d ops\n", workload, p50, len(served.samples))
	for _, p := range parts {
		share := fmt.Sprintf("%5.1f%%", 100*p.ms/p50)
		if p.note != "" {
			share = p.note
		}
		fmt.Fprintf(out, "breakdown   %-78s %8.3f ms %s\n", p.name, p.ms, share)
	}
	fmt.Fprintf(out, "breakdown   accounted %.3f ms = %.1f%% of the traced p50\n", sum, 100*sum/p50)
	fmt.Fprintf(out, "breakdown   unaccounted (p50 - accounted, not counted above) %.3f ms = %.1f%%\n", p50-sum, 100*(p50-sum)/p50)
}

// spread is the range of xs: its largest value minus its smallest.
func spread(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1] - s[0]
}
