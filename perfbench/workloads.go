package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/service"
)

// solverOpts is the configuration every workload and every oracle uses:
// two processors (nproc is 2), everything else at its default.
var solverOpts = pastix.Options{Processors: 2}

// poolSize is how many distinct right-hand sides (or request bodies) a
// workload cycles through; all of them and their oracle answers are built
// during set-up.
const poolSize = 16

// workload is one closed-loop benchmark: callers issue ops back to back.
type workload struct {
	name    string
	callers int
	warmup  int // ops per caller run inside the set-up
	setup   func(ctx context.Context, seed uint64, traced bool) (instance, error)
	// replayRefactorize makes the traced run also time a few served
	// refactorize steps, for their breakdown.
	replayRefactorize bool
}

var workloads = []workload{
	{
		name:    "solve",
		callers: 1, warmup: 40, setup: setupSolve,
	},
	{
		name:    "serve-solve",
		callers: 2, warmup: 120, setup: setupServeSolve,
		replayRefactorize: true,
	},
}

// instance is a set-up workload ready for timed ops.
type instance interface {
	// op runs the i-th op of caller c and checks its answer against the
	// oracle. sp carries the op's root span for the traced run.
	op(ctx context.Context, c, i int, sp spanCtx) opResult
	// inputs exposes the workload's own inputs to the per-layer probes.
	inputs() layerInput
	close()
}

// opResult is the outcome of one op: err is a transport error, a non-200
// status or an oracle mismatch; serverMS is the phase time the service
// reported for the op's main request (solve_ms, or factorize_ms for the
// refactorize step) and solveMS the solve_ms of its solve request.
type opResult struct {
	err      error
	serverMS float64
	solveMS  float64
}

// spanCtx is the tracer plus the op and parent span a call is made under.
type spanCtx struct {
	tr     *tracer
	op     int64
	parent int64
}

// begin opens a child span and returns its ID.
func (s spanCtx) begin(name string) int64 { return s.tr.begin(s.op, s.parent, name) }

// layerInput is what the per-layer probes run on: the workload's matrix,
// its Matrix Market text exactly as sent (or as it would be sent), the
// set-up analysis and a right-hand side.
type layerInput struct {
	a    *pastix.Matrix
	mm   []byte
	an   *pastix.Analysis
	f    *pastix.Factor
	rhs  []float64
	srv  *service.Server // nil for the library workload
	wrap *spanHandler    // the span middleware in front of srv (traced runs)
}

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// seededValues returns a matrix with pat's sparsity pattern and fresh
// values: off-diagonals in [-1, -0.25), diagonals dominating their rows
// strictly, so the matrix is SPD whatever the draw.
func seededValues(pat *pastix.Matrix, rng *rand.Rand) *pastix.Matrix {
	m := &pastix.Matrix{N: pat.N, ColPtr: pat.ColPtr, RowIdx: pat.RowIdx, Val: make([]float64, len(pat.Val))}
	rowAbs := make([]float64, pat.N)
	for j := 0; j < pat.N; j++ {
		for p := pat.ColPtr[j]; p < pat.ColPtr[j+1]; p++ {
			if i := pat.RowIdx[p]; i != j {
				v := -(0.25 + 0.75*rng.Float64())
				m.Val[p] = v
				rowAbs[i] -= v
				rowAbs[j] -= v
			}
		}
	}
	for j := 0; j < pat.N; j++ {
		for p := pat.ColPtr[j]; p < pat.ColPtr[j+1]; p++ {
			if pat.RowIdx[p] == j {
				m.Val[p] = rowAbs[j] + 1 + rng.Float64()
			}
		}
	}
	return m
}

func randomVector(n int, rng *rand.Rand) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return b
}

func matrixMarket(a *pastix.Matrix) ([]byte, error) {
	var buf bytes.Buffer
	if err := pastix.WriteMatrixMarket(&buf, a, "perfbench"); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sameBits reports whether got equals want bit for bit.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: answer length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("oracle: x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// oracleSolve is the reference answer: the sequential single-RHS solve,
// which the level-set engine and the batcher reproduce bit for bit.
func oracleSolve(ctx context.Context, an *pastix.Analysis, f *pastix.Factor, b []float64) ([]float64, error) {
	res, err := an.SolveOpts(ctx, f, b, pastix.SolveOptions{Runtime: pastix.RuntimeSequential})
	if err != nil {
		return nil, fmt.Errorf("oracle solve: %w", err)
	}
	return res.X, nil
}

// --- solve: the library alone ---

type solveBench struct {
	in   layerInput
	rhs  [][]float64
	want [][]float64
}

func setupSolve(ctx context.Context, seed uint64, _ bool) (instance, error) {
	rng := newRNG(seed, 1)
	a := seededValues(gen.Laplacian3D(24, 24, 24), rng)
	an, err := pastix.AnalyzeContext(ctx, a, solverOpts)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	f, err := an.FactorizeContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("factorize: %w", err)
	}
	if _, err := an.PrepareSolve(f); err != nil {
		return nil, fmt.Errorf("prepare solve: %w", err)
	}
	mm, err := matrixMarket(a)
	if err != nil {
		return nil, err
	}
	b := &solveBench{in: layerInput{a: a, mm: mm, an: an, f: f}}
	for k := 0; k < poolSize; k++ {
		rhs := randomVector(a.N, rng)
		x, err := oracleSolve(ctx, an, f, rhs)
		if err != nil {
			return nil, err
		}
		b.rhs = append(b.rhs, rhs)
		b.want = append(b.want, x)
	}
	b.in.rhs = b.rhs[0]
	return b, nil
}

func (b *solveBench) op(ctx context.Context, c, i int, sp spanCtx) opResult {
	k := i % poolSize
	id := sp.begin("pastix")
	res, err := b.in.an.SolveOpts(ctx, b.in.f, b.rhs[k], pastix.SolveOptions{})
	sp.tr.end(id)
	if err != nil {
		return opResult{err: err}
	}
	return opResult{err: sameBits(res.X, b.want[k])}
}

func (b *solveBench) inputs() layerInput { return b.in }
func (b *solveBench) close()             {}

// --- the in-process service shared by the served workloads ---

// served is a service.Server behind a loopback httptest server, with one
// client (and so one connection) per caller.
type served struct {
	srv     *service.Server
	hs      *httptest.Server
	wrap    *spanHandler // mounted in traced runs only
	clients []*http.Client
}

func startServer(callers int, traced bool) (*served, error) {
	srv, err := service.New(service.Config{Solver: solverOpts})
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s := &served{srv: srv}
	var h http.Handler = srv.Handler()
	if traced {
		s.wrap = &spanHandler{inner: h}
		h = s.wrap
	}
	s.hs = httptest.NewServer(h)
	for c := 0; c < callers; c++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
	}
	return s, nil
}

// post sends body to path on caller c's connection inside an "http" span
// and returns the response body; any status but 200 is an error.
func (s *served) post(ctx context.Context, c int, path string, body []byte, sp spanCtx) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := sp.begin("http")
	if sp.tr != nil {
		req.Header.Set(opHeader, strconv.FormatInt(sp.op, 10))
		req.Header.Set(parentHeader, strconv.FormatInt(id, 10))
	}
	resp, err := s.clients[c].Do(req)
	var out []byte
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	sp.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (s *served) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.hs.Close()
	s.srv.Close()
}

type factorizeBody struct {
	MatrixMarket string `json:"matrix_market"`
}

type factorizeReply struct {
	Handle      string  `json:"handle"`
	FactorizeMS float64 `json:"factorize_ms"`
}

type solveBody struct {
	Handle string    `json:"handle"`
	B      []float64 `json:"b"`
}

type solveReply struct {
	X       []float64 `json:"x"`
	SolveMS float64   `json:"solve_ms"`
}

// oracleFactor parses the exact Matrix Market text a request carries and
// factorizes it the way the service does (FactorizeValuesTraced under
// solverOpts), reusing an when it is non-nil.
func oracleFactor(ctx context.Context, mm []byte, an *pastix.Analysis) (*pastix.Analysis, *pastix.Factor, *pastix.Matrix, error) {
	a, err := pastix.ReadMatrixMarket(bytes.NewReader(mm))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("oracle parse: %w", err)
	}
	if an == nil {
		if an, err = pastix.AnalyzeContext(ctx, a, solverOpts); err != nil {
			return nil, nil, nil, fmt.Errorf("oracle analyze: %w", err)
		}
	}
	f, _, err := an.FactorizeValuesTraced(ctx, a, pastix.TraceOptions{})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("oracle factorize: %w", err)
	}
	return an, f, a, nil
}

// --- serve-solve: single-RHS solves against one handle ---

type serveSolveBench struct {
	s      *served
	in     layerInput
	bodies [][]byte
	want   [][]float64
}

func setupServeSolve(ctx context.Context, seed uint64, traced bool) (instance, error) {
	rng := newRNG(seed, 2)
	a := seededValues(gen.Laplacian3D(12, 12, 12), rng)
	mm, err := matrixMarket(a)
	if err != nil {
		return nil, err
	}
	fbody, err := json.Marshal(factorizeBody{MatrixMarket: string(mm)})
	if err != nil {
		return nil, err
	}
	an, f, parsed, err := oracleFactor(ctx, mm, nil)
	if err != nil {
		return nil, err
	}
	s, err := startServer(2, traced)
	if err != nil {
		return nil, err
	}
	b := &serveSolveBench{s: s, in: layerInput{a: parsed, mm: mm, an: an, f: f, srv: s.srv, wrap: s.wrap}}
	out, err := s.post(ctx, 0, "/v1/factorize", fbody, spanCtx{})
	if err != nil {
		s.close()
		return nil, err
	}
	var fr factorizeReply
	if err := json.Unmarshal(out, &fr); err != nil {
		s.close()
		return nil, fmt.Errorf("factorize reply: %w", err)
	}
	for k := 0; k < poolSize; k++ {
		body, err := json.Marshal(solveBody{Handle: fr.Handle, B: randomVector(a.N, rng)})
		if err != nil {
			s.close()
			return nil, err
		}
		// The oracle reads the right-hand side back from the exact request
		// text, as the server will.
		var sent solveBody
		if err := json.Unmarshal(body, &sent); err != nil {
			s.close()
			return nil, err
		}
		x, err := oracleSolve(ctx, an, f, sent.B)
		if err != nil {
			s.close()
			return nil, err
		}
		b.bodies = append(b.bodies, body)
		b.want = append(b.want, x)
		if k == 0 {
			b.in.rhs = sent.B
		}
	}
	return b, nil
}

func (b *serveSolveBench) op(ctx context.Context, c, i int, sp spanCtx) opResult {
	// Callers walk the pool from different offsets.
	k := (i + c*poolSize/2) % poolSize
	out, err := b.s.post(ctx, c, "/v1/solve", b.bodies[k], sp)
	if err != nil {
		return opResult{err: err}
	}
	var r solveReply
	if err := json.Unmarshal(out, &r); err != nil {
		return opResult{err: fmt.Errorf("solve reply: %w", err)}
	}
	return opResult{err: sameBits(r.X, b.want[k]), serverMS: r.SolveMS, solveMS: r.SolveMS}
}

func (b *serveSolveBench) inputs() layerInput { return b.in }
func (b *serveSolveBench) close()             { b.s.close() }

// --- serve-refactorize: factorize new values, solve, release ---
//
// Not a workload: on a shared 2-vCPU host the step's latency, nearly all
// factorization, drifts with the neighbours' load from run to run by more
// than a 25% bound allows. The traced serve-solve run replays a few of these
// steps instead (see replayRefactorize) to split the served refactorization.

// refactorValueSets is how many seeded value sets on the MT1 pattern the
// op cycles through; each costs one oracle factorization in the set-up.
const refactorValueSets = 3

type serveRefactorBench struct {
	s      *served
	in     layerInput
	bodies [][]byte    // factorize request per value set
	rhs    []byte      // the right-hand side, encoded once as a JSON array
	want   [][]float64 // oracle answer per value set
}

// refactorInputs generates the refactorize op's inputs from seed: the
// Matrix Market text and factorize request body of each value set on the
// MT1 pattern, and the right-hand side encoded once as a JSON array.
func refactorInputs(seed uint64) (mms, bodies [][]byte, rhs []byte, err error) {
	rng := newRNG(seed, 3)
	p, err := gen.Generate("MT1", 0.25)
	if err != nil {
		return nil, nil, nil, err
	}
	if rhs, err = json.Marshal(randomVector(p.A.N, rng)); err != nil {
		return nil, nil, nil, err
	}
	for k := 0; k < refactorValueSets; k++ {
		mm, err := matrixMarket(seededValues(p.A, rng))
		if err != nil {
			return nil, nil, nil, err
		}
		body, err := json.Marshal(factorizeBody{MatrixMarket: string(mm)})
		if err != nil {
			return nil, nil, nil, err
		}
		mms = append(mms, mm)
		bodies = append(bodies, body)
	}
	return mms, bodies, rhs, nil
}

func setupServeRefactorize(ctx context.Context, seed uint64, traced bool) (instance, error) {
	mms, bodies, rhs, err := refactorInputs(seed)
	if err != nil {
		return nil, err
	}
	b := &serveRefactorBench{bodies: bodies, rhs: rhs}
	// The oracle reads every input back from the exact request text.
	var sent []float64
	if err := json.Unmarshal(rhs, &sent); err != nil {
		return nil, err
	}
	var an *pastix.Analysis
	for k, mm := range mms {
		var f *pastix.Factor
		var parsed *pastix.Matrix
		if an, f, parsed, err = oracleFactor(ctx, mm, an); err != nil {
			return nil, err
		}
		x, err := oracleSolve(ctx, an, f, sent)
		if err != nil {
			return nil, err
		}
		b.want = append(b.want, x)
		if k == 0 {
			b.in = layerInput{a: parsed, mm: mm, an: an, f: f, rhs: sent}
		}
	}
	if b.s, err = startServer(1, traced); err != nil {
		return nil, err
	}
	b.in.srv, b.in.wrap = b.s.srv, b.s.wrap
	return b, nil
}

func (b *serveRefactorBench) op(ctx context.Context, c, i int, sp spanCtx) opResult {
	k := i % refactorValueSets
	out, err := b.s.post(ctx, c, "/v1/factorize", b.bodies[k], sp)
	if err != nil {
		return opResult{err: err}
	}
	var fr factorizeReply
	if err := json.Unmarshal(out, &fr); err != nil {
		return opResult{err: fmt.Errorf("factorize reply: %w", err)}
	}
	handle := strconv.Quote(fr.Handle)
	res := opResult{serverMS: fr.FactorizeMS}
	solve := []byte(`{"handle":` + handle + `,"b":` + string(b.rhs) + `}`)
	if out, err = b.s.post(ctx, c, "/v1/solve", solve, sp); err == nil {
		var r solveReply
		if err = json.Unmarshal(out, &r); err == nil {
			err = sameBits(r.X, b.want[k])
			res.solveMS = r.SolveMS
		}
	}
	_, rerr := b.s.post(ctx, c, "/v1/release", []byte(`{"handle":`+handle+`}`), sp)
	if err == nil {
		err = rerr
	}
	res.err = err
	return res
}

func (b *serveRefactorBench) inputs() layerInput { return b.in }
func (b *serveRefactorBench) close()             { b.s.close() }
