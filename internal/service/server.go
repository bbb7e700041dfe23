package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/store"
)

// errShed reports a request rejected by admission control (HTTP 429).
var errShed = errors.New("service: admission queue full")

// errDraining reports a request arriving while the server drains for
// shutdown (HTTP 503): in-flight work finishes, new work is refused.
var errDraining = errors.New("service: draining for shutdown")

// Server is the solver service: analysis cache, factor store, batcher and
// admission control behind an HTTP handler. Create with New, mount
// Handler(), Close when done.
type Server struct {
	cfg     Config
	metrics *Metrics
	cache   *analysisCache
	store   *factorStore
	idem    *idemStore

	queue  chan struct{} // admission slots (queued or executing)
	active chan struct{} // worker slots (executing)

	// draining flips on BeginDrain: admission refuses new requests with 503
	// and /readyz reports "draining" so load balancers stop routing here,
	// while already-admitted requests (including parked batch riders) finish.
	draining atomic.Bool

	// Durability (Config.DataDir): the journal, the random per-process
	// instance identity, and the startup-replay state machine. recovering is
	// true from New until the replay goroutine finishes; recoveryErr holds
	// the fail-stop cause if it failed; recoverySecs (float64 bits) is the
	// replay wall time for /metrics.
	journal      *store.Store
	instance     string
	recovering   atomic.Bool
	recoveryErr  atomic.Pointer[string]
	recoveryDone chan struct{}
	recoverySecs uint64

	baseCtx context.Context
	cancel  context.CancelFunc
	start   time.Time
}

// New validates cfg, applies defaults and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	m := NewMetrics()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		metrics:      m,
		store:        newFactorStore(cfg.MaxFactors),
		idem:         newIdemStore(cfg.IdempotencyKeys, cfg.IdempotencyTTL),
		queue:        make(chan struct{}, cfg.QueueDepth),
		active:       make(chan struct{}, cfg.Workers),
		instance:     newInstanceID(),
		recoveryDone: make(chan struct{}),
		baseCtx:      ctx,
		cancel:       cancel,
		start:        time.Now(),
	}
	s.cache = newAnalysisCache(cfg.CacheSize, m, func(ctx context.Context, a *pastix.Matrix) (*pastix.Analysis, error) {
		return pastix.AnalyzeContext(ctx, a, cfg.Solver)
	})
	// Byte-level journal corruption fails New synchronously; the record
	// replay itself runs asynchronously behind the "recovering" gate so the
	// listener can come up and report readiness honestly.
	if err := s.openJournal(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// Metrics exposes the server's metrics (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close releases the server: in-flight batched solves are cancelled and the
// journal (when durable) is closed, releasing the data directory to a
// successor process.
func (s *Server) Close() {
	s.cancel()
	if s.journal != nil {
		<-s.recoveryDone // never close the journal under the replay goroutine
		s.journal.Close()
	}
}

// Instance returns the random per-process identity (also on /readyz).
func (s *Server) Instance() string { return s.instance }

// BeginDrain puts the server into draining mode: new requests are refused
// with 503 and /readyz flips to 503/"draining" (liveness /healthz stays 200),
// but admitted requests keep running. Call before the HTTP listener shuts
// down, then Drain to wait.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain blocks until every admitted request has finished (the admission
// queue and the worker pool are both empty) or ctx expires, returning
// ctx.Err() in the latter case. Callers typically pair it with
// http.Server.Shutdown under one deadline.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if len(s.queue) == 0 && len(s.active) == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Handler returns the HTTP surface:
//
//	POST /v1/analyze    {"matrix_market": "...", "deadline_ms": 0}
//	POST /v1/factorize  {"matrix_market": "...", "deadline_ms": 0}
//	POST /v1/solve      {"handle": "...", "b": [...], "deadline_ms": 0,
//	                     "options": {"nrhs": 0, "runtime": "", "refine": {"tol": 0, "max_iter": 0}}}
//	POST /v1/release    {"handle": "..."}
//	GET  /healthz       (liveness: 200 while the process serves at all)
//	GET  /readyz        (readiness: draining state, queue depth, in-flight)
//	GET  /metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/factorize", s.handleFactorize)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/release", s.handleRelease)
	mux.HandleFunc("POST /v1/replicate", s.handleReplicate)
	mux.HandleFunc("POST /v1/stat", s.handleStat)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// --- admission control ---

// admit reserves a queue slot (shedding with errShed when QueueDepth is
// exceeded), then waits for a worker slot. The returned release frees both.
// Used by analyze, factorize and replicate import, whose compute runs on
// the request's own goroutine.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	unqueue, err := s.admitQueue()
	if err != nil {
		return nil, err
	}
	if err := s.worker(ctx); err != nil {
		unqueue()
		return nil, err
	}
	return func() {
		<-s.active
		unqueue()
	}, nil
}

// worker waits for a worker slot; the caller frees it with <-s.active.
func (s *Server) worker(ctx context.Context) error {
	select {
	case s.active <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.baseCtx.Done():
		return s.baseCtx.Err()
	}
}

// admitQueue reserves only a bounded-queue slot, no worker slot. Solve
// requests use it: their compute runs inside the shared batch (which takes
// its own worker slot in runBatch), so a waiter queued behind a running
// batch must not pin a worker — that would serialize the very requests the
// batcher exists to coalesce whenever Workers < batch size.
func (s *Server) admitQueue() (release func(), err error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	if err := s.durabilityGate(); err != nil {
		return nil, err
	}
	select {
	case s.queue <- struct{}{}:
	default:
		s.metrics.Shed.Inc()
		return nil, errShed
	}
	s.metrics.QueueDepth.Set(int64(len(s.queue)))
	return func() {
		<-s.queue
		s.metrics.QueueDepth.Set(int64(len(s.queue)))
	}, nil
}

// reqContext derives the request context: the client deadline when given,
// the configured default otherwise.
func (s *Server) reqContext(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	return context.WithTimeout(r.Context(), d)
}

// --- request/response bodies ---

type matrixRequest struct {
	// MatrixMarket is the matrix in symmetric coordinate Matrix Market text
	// (the SuiteSparse exchange format; internal/sparse reader).
	MatrixMarket string `json:"matrix_market"`
	DeadlineMS   int64  `json:"deadline_ms,omitempty"`
	// IdempotencyKey (factorize only) makes retries safe: a repeated
	// factorize carrying a remembered key replays the original response —
	// same handle, no second factorization. Keys are remembered for the last
	// Config.IdempotencyKeys successful factorizations.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// BLR (factorize only) requests block low-rank compression of the factor
	// behind the returned handle. Presence of the block means the client wants
	// compression: Tol must be in (0,1) or the request fails with 400. Solves
	// against a compressed handle are lossy at the Tol level unless they carry
	// refinement options.
	BLR *blrRequestOptions `json:"blr,omitempty"`
}

// blrRequestOptions is the JSON mirror of pastix.BLROptions.
type blrRequestOptions struct {
	// Tol is the per-block relative Frobenius compression tolerance.
	Tol float64 `json:"tol"`
	// MinBlockSize is the smallest block dimension offered to the compressor;
	// 0 selects the library default.
	MinBlockSize int `json:"min_block_size,omitempty"`
}

type analyzeResponse struct {
	Fingerprint   string  `json:"fingerprint"`
	Cached        bool    `json:"cached"`
	N             int     `json:"n"`
	NNZ           int     `json:"nnz"`
	Processors    int     `json:"processors"`
	Tasks         int     `json:"tasks"`
	BlockNNZL     int64   `json:"block_nnz_l"`
	PredictedTime float64 `json:"predicted_time_s"`
	AnalyzeMS     float64 `json:"analyze_ms"`
}

type factorizeResponse struct {
	Handle         string  `json:"handle"`
	Fingerprint    string  `json:"fingerprint"`
	AnalysisCached bool    `json:"analysis_cached"`
	FactorizeMS    float64 `json:"factorize_ms"`
	// SolvePlan is the prewarmed level-set solve schedule this handle's
	// solves will run (PrepareSolve at factorize time).
	SolvePlan *pastix.PlanStats `json:"solve_plan,omitempty"`
	// Degraded-success fields (static pivoting): present when the
	// factorization substituted pivots instead of failing.
	PerturbedColumns []int   `json:"perturbed_columns,omitempty"`
	PivotEpsilon     float64 `json:"pivot_epsilon,omitempty"`
	PivotGrowth      float64 `json:"pivot_growth,omitempty"`
	// Robust-escalation fields: set when the unpivoted factorization broke
	// down and the server recovered via FactorizeValuesRobust.
	PivotAttempts int     `json:"pivot_attempts,omitempty"`
	BackwardError float64 `json:"backward_error,omitempty"`
	RefineIters   int     `json:"refine_iters,omitempty"`
	// IdempotentReplay marks a response replayed from the idempotency store:
	// the handle was made by an earlier request with the same key and no new
	// factorization ran.
	IdempotentReplay bool `json:"idempotent_replay,omitempty"`
	// Compression reports the BLR byte accounting when the handle's factor is
	// compressed (request "blr" block, or server-level Options.BLR).
	Compression *pastix.CompressionStats `json:"compression,omitempty"`
	// Durable marks a handle journaled to the durable store before this
	// acknowledgement: it survives a crash or restart of the node. Only set
	// on servers running with Config.DataDir.
	Durable bool `json:"durable,omitempty"`
	// Imported marks a handle created by a /v1/replicate transfer rather
	// than a local factorization: the factor values were adopted verbatim
	// from the exporting node.
	Imported bool `json:"imported,omitempty"`
}

type solveRequest struct {
	Handle     string    `json:"handle"`
	B          []float64 `json:"b"`
	DeadlineMS int64     `json:"deadline_ms,omitempty"`
	// Options mirrors pastix.SolveOptions (the unified Solve API). Requests
	// without it keep the historical contract: one right-hand side, the
	// default engine, eligible for batch coalescing. A request carrying
	// options runs alone through the same batch runner (a panel or a pinned
	// engine must not be coalesced with strangers), taking the same worker
	// slot and repair step, and is not counted as a batch.
	Options *solveRequestOptions `json:"options,omitempty"`
}

// solveRequestOptions is the JSON mirror of pastix.SolveOptions.
type solveRequestOptions struct {
	// NRHS makes b an n×NRHS column-major panel; 0 means 1.
	NRHS int `json:"nrhs,omitempty"`
	// Runtime picks the solve engine: "seq" runs the single-RHS reference
	// (a panel runs the level-set engine on one worker); empty, "auto",
	// "mpsim", "shared" and "dynamic" run the level-set engine. The
	// factorization runtime behind the handle has no say in it.
	Runtime string `json:"runtime,omitempty"`
	// Refine requests adaptive iterative refinement of every column.
	Refine *refineRequestOptions `json:"refine,omitempty"`
}

type refineRequestOptions struct {
	Tol     float64 `json:"tol,omitempty"`
	MaxIter int     `json:"max_iter,omitempty"`
}

type solveResponse struct {
	X       []float64 `json:"x"`
	NRHS    int       `json:"nrhs,omitempty"`
	Batched int       `json:"batched"`
	SolveMS float64   `json:"solve_ms"`
	// Plan describes the level-set solve schedule when that engine ran.
	Plan *pastix.PlanStats `json:"plan,omitempty"`
	// Degraded-success fields: set when the factor behind the handle carries
	// static-pivot perturbations — the solution went through adaptive
	// refinement and these report the quality achieved, so clients get a 200
	// with diagnostics instead of an error status.
	Degraded         bool    `json:"degraded,omitempty"`
	PerturbedColumns []int   `json:"perturbed_columns,omitempty"`
	BackwardError    float64 `json:"backward_error,omitempty"`
	RefineIters      int     `json:"refine_iters,omitempty"`
}

type releaseRequest struct {
	Handle string `json:"handle"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Code is a stable machine-readable cause ("not_spd",
	// "pivot_exhausted") for 422 numerical-breakdown responses.
	Code string `json:"code,omitempty"`
	// Column is the offending pivot column for not_spd breakdowns (pointer so
	// column 0 survives encoding).
	Column *int `json:"column,omitempty"`
	// PerturbedColumns and Attempts detail pivot_exhausted responses: what
	// the last escalation attempt perturbed and how many attempts ran.
	PerturbedColumns []int `json:"perturbed_columns,omitempty"`
	Attempts         int   `json:"attempts,omitempty"`
}

// --- handlers ---

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req matrixRequest
	a, ok := s.decodeMatrix(w, r, &req)
	if !ok {
		return
	}
	ctx, cancel := s.reqContext(r, req.DeadlineMS)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	defer release()
	s.metrics.AnalyzeRequests.Inc()
	fp := pastix.PatternFingerprint(a)
	t0 := time.Now()
	an, hit, err := s.cache.Get(ctx, fp, a)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if !hit {
		s.metrics.AnalyzeSeconds.Observe(time.Since(t0).Seconds())
		if s.journal != nil {
			// Journal the generator, not the product: the matrix bytes are
			// enough, because analysis is a pure function of (pattern,
			// Options) and replay recomputes it bitwise. Append failures are
			// non-fatal — an analysis is a cache warm, not client state.
			_, _ = s.journal.AppendAnalysis(&store.AnalysisRecord{Fingerprint: fp, Matrix: a})
		}
	}
	st := an.Stats()
	s.writeJSON(w, http.StatusOK, analyzeResponse{
		Fingerprint:   fp,
		Cached:        hit,
		N:             st.N,
		NNZ:           st.NNZA,
		Processors:    st.Processors,
		Tasks:         st.Tasks,
		BlockNNZL:     st.BlockNNZL,
		PredictedTime: st.PredictedTime,
		AnalyzeMS:     float64(time.Since(t0)) / float64(time.Millisecond),
	})
}

func (s *Server) handleFactorize(w http.ResponseWriter, r *http.Request) {
	var req matrixRequest
	a, ok := s.decodeMatrix(w, r, &req)
	if !ok {
		return
	}
	// Idempotent replay: a retry of a factorize that already committed gets
	// the original response back — same handle, no second factor — before it
	// costs a queue or worker slot. Draining still refuses, so a load
	// balancer's view of a draining node stays consistent.
	if req.IdempotencyKey != "" {
		if s.draining.Load() {
			s.writeErr(w, errDraining)
			return
		}
		if err := s.durabilityGate(); err != nil {
			s.writeErr(w, err)
			return
		}
		prev, replay, err := s.idem.claim(r.Context(), req.IdempotencyKey)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		if replay {
			prev.IdempotentReplay = true
			s.writeJSON(w, http.StatusOK, prev)
			return
		}
		defer s.idem.unclaim(req.IdempotencyKey)
	}
	ctx, cancel := s.reqContext(r, req.DeadlineMS)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	defer release()
	s.metrics.FactorizeRequests.Inc()
	fp := pastix.PatternFingerprint(a)
	an, hit, err := s.cache.Get(ctx, fp, a)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	t0 := time.Now()
	// Factorizing re-verifies the pattern against the (possibly cached)
	// analysis — a fingerprint collision surfaces here as ErrPatternMismatch
	// instead of a silently wrong factorization. The execution trace of a
	// parallel runtime feeds the runtime metrics; the sequential runtime
	// records none.
	var (
		f  *pastix.Factor
		tr *pastix.Trace
	)
	if s.cfg.Solver.Runtime == pastix.RuntimeSequential {
		f, err = an.FactorizeValues(ctx, a)
	} else {
		f, tr, err = an.FactorizeValuesTraced(ctx, a, pastix.TraceOptions{})
	}
	var robust *pastix.RobustStats
	if err != nil && errors.Is(err, pastix.ErrNotSPD) && s.cfg.Solver.StaticPivot.MaxRetries > 0 {
		// Numerical breakdown with escalation configured: retry with
		// escalating static pivoting instead of failing the request.
		var rs pastix.RobustStats
		f, rs, err = an.FactorizeValuesRobust(ctx, a)
		if err == nil {
			robust, tr = &rs, nil
			s.metrics.PivotRetries.Add(int64(rs.Attempts - 1))
		}
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	wall := time.Since(t0)
	s.metrics.FactorizeSeconds.Observe(wall.Seconds())
	if tr != nil {
		if sum, serr := tr.Summary(); serr == nil {
			s.metrics.FactorizeMakespan.Observe(sum.MeasuredMakespan.Seconds())
			s.metrics.FactorizeModelError.Observe(sum.MeanAbsModelError)
			s.metrics.RuntimeMessages.Add(sum.Messages)
			s.metrics.RuntimeBytes.Add(sum.Bytes)
		}
	}
	// A factor already compressed by a server-level Options.BLR passes
	// through idempotently.
	if req.BLR != nil {
		if _, cerr := f.Compress(pastix.BLROptions{Tol: req.BLR.Tol, MinBlockSize: req.BLR.MinBlockSize}); cerr != nil {
			s.writeErr(w, cerr)
			return
		}
	}
	// Warm the solve path while we still own the factorize request: the solve
	// DAG and the level-set plan for the schedule's processors are built
	// here, so the handle's first solve request pays none of the one-time
	// cost.
	plan, err := an.PrepareSolve(f)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	resp := factorizeResponse{
		AnalysisCached: hit,
		FactorizeMS:    float64(wall) / float64(time.Millisecond),
		SolvePlan:      &plan,
	}
	if robust != nil {
		resp.PivotAttempts = robust.Attempts
		resp.BackwardError = robust.BackwardError
		resp.RefineIters = robust.RefineIterations
	}
	e := &factorEntry{fingerprint: fp, n: a.N, an: an, f: f, src: a, idemKey: req.IdempotencyKey}
	if err := s.register(e, &resp, ""); err != nil {
		s.writeErr(w, err)
		return
	}
	s.metrics.PivotPerturbations.Add(int64(len(resp.PerturbedColumns)))
	s.writeJSON(w, http.StatusOK, resp)
}

// register makes e a live handle: it gives e its batcher and puts it in the
// store. On journal replay, restored is the handle the record was issued
// under and resp the response journaled with it (nil if none). Otherwise e
// gets a fresh handle, resp gets the handle's fields, and a durable server
// journals the record before the handle is acknowledged: a failed append
// un-puts the handle, so "durable": true is never a lie. Either way resp is
// remembered under e's idempotency key.
func (s *Server) register(e *factorEntry, resp *factorizeResponse, restored string) error {
	e.batch = newBatcher(s.cfg.MaxBatch, func(reqs []*solveReq) { s.runBatch(e, reqs) })
	e.durable = s.journal != nil
	if err := s.store.Put(e, restored); err != nil {
		return err
	}
	if restored == "" {
		resp.Handle = e.handle
		resp.Fingerprint = e.fingerprint
		resp.Compression = e.f.CompressionStats()
		if rep := e.f.Perturbations(); rep != nil && len(rep.Perturbed) > 0 {
			resp.PerturbedColumns = rep.Columns()
			resp.PivotEpsilon = rep.Epsilon
			resp.PivotGrowth = rep.PivotGrowth
		}
		resp.Durable = e.durable
		if e.durable {
			rec, err := e.record()
			if err == nil {
				rec.Response, err = json.Marshal(resp)
			}
			if err == nil {
				err = s.journal.AppendFactor(rec)
			}
			if err != nil {
				_ = s.store.Release(e.handle) // fails only if already released
				return fmt.Errorf("journaling factor: %w", err)
			}
		}
	}
	if e.idemKey != "" && resp != nil {
		s.idem.put(e.idemKey, e.handle, *resp)
	}
	return nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	ctx, cancel := s.reqContext(r, req.DeadlineMS)
	defer cancel()
	release, err := s.admitQueue()
	if err != nil {
		s.writeErr(w, err)
		return
	}
	defer release()
	e, err := s.store.Get(req.Handle)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.metrics.SolveRequests.Inc()
	rider := &solveReq{ctx: ctx, b: req.B}
	nrhs := 1
	if o := req.Options; o != nil {
		rt, err := pastix.ParseRuntime(o.Runtime)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		rider.opts = &pastix.SolveOptions{NRHS: o.NRHS, Runtime: rt}
		if o.Refine != nil {
			rider.opts.Refine = &pastix.RefineOptions{Tol: o.Refine.Tol, MaxIter: o.Refine.MaxIter}
		}
		nrhs = cmp.Or(o.NRHS, 1)
	}
	if nrhs < 0 || len(req.B) != e.n*nrhs {
		s.writeErr(w, fmt.Errorf("rhs length %d, want n×nrhs = %d×%d: %w", len(req.B), e.n, nrhs, pastix.ErrShape))
		return
	}
	t0 := time.Now()
	var res solveRes
	if rider.opts == nil {
		select {
		case res = <-e.batch.submit(rider):
		case <-ctx.Done():
			s.writeErr(w, ctx.Err())
			return
		}
	} else {
		rider.res = make(chan solveRes, 1)
		s.runBatch(e, []*solveReq{rider})
		res = <-rider.res
	}
	if res.err != nil {
		s.writeErr(w, res.err)
		return
	}
	res.SolveMS = float64(time.Since(t0)) / float64(time.Millisecond)
	if rider.opts != nil {
		res.NRHS = nrhs
	}
	s.writeSolve(w, &res.solveResponse)
}

// runBatch executes one panel solve through SolveOpts and hands each rider
// its reply. reqs is either a batch of option-free riders coalesced by the
// handle's batcher or one rider carrying its own options, run alone on its
// request goroutine; only the former counts as a batch in the metrics.
func (s *Server) runBatch(e *factorEntry, reqs []*solveReq) {
	k := len(reqs)
	opts, batched := pastix.SolveOptions{NRHS: k}, k
	if reqs[0].opts != nil {
		opts, batched = *reqs[0].opts, 0
	} else {
		s.metrics.Batches.Inc()
		s.metrics.BatchedRHS.Add(int64(k))
		s.metrics.BatchSize.Observe(float64(k))
	}
	n := e.n
	// A batch of one solves its rider's own b: SolveOpts only reads it.
	panel := reqs[0].b
	if k > 1 {
		panel = make([]float64, n*k)
		for i, r := range reqs {
			copy(panel[i*n:(i+1)*n], r.b)
		}
	}
	// The batch outlives any single waiter's cancellation (a cancelled waiter
	// just discards its column); its deadline is the latest deadline across
	// the riders, under the server's lifetime context.
	ctx := s.baseCtx
	cancel := context.CancelFunc(func() {})
	var latest time.Time
	for _, r := range reqs {
		if d, ok := r.ctx.Deadline(); ok && d.After(latest) {
			latest = d
		}
	}
	if !latest.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, latest)
	}
	defer cancel()
	// The panel solve is the batch's unit of compute: it takes a worker slot
	// here (solve waiters hold only queue slots, see admitQueue).
	var pres *pastix.SolveResult
	err := s.worker(ctx)
	if err == nil {
		defer func() { <-s.active }()
		t0 := time.Now()
		pres, err = e.an.SolveOpts(ctx, e.f, panel, opts)
		s.metrics.SolveSeconds.Observe(time.Since(t0).Seconds())
	}
	if err != nil {
		for _, r := range reqs {
			r.res <- solveRes{err: err}
		}
		return
	}
	var plan *pastix.PlanStats
	if pres.Plan != (pastix.PlanStats{}) {
		plan = &pres.Plan
	}
	rep := e.f.Perturbations()
	degraded := rep != nil && len(rep.Perturbed) > 0
	cols := len(pres.X) / k
	for i, r := range reqs {
		// Each rider owns its columns of the fresh result panel (all of it for
		// a batch of one); the capacity cap keeps neighbouring riders apart.
		x := pres.X[i*cols : (i+1)*cols : (i+1)*cols]
		st := pres.Refine
		if degraded && st == nil {
			// The factor was perturbed by static pivoting: repair each column
			// with adaptive refinement, so the client gets a degraded success
			// reporting the quality achieved instead of an error.
			if st, err = e.refineColumns(r.b, x); err != nil {
				r.res <- solveRes{err: err}
				continue
			}
		}
		res := solveRes{solveResponse: solveResponse{X: x, Batched: batched, Plan: plan}}
		if st != nil {
			res.BackwardError = st.BackwardError
			res.RefineIters = st.Iterations
		}
		if degraded {
			res.Degraded = true
			res.PerturbedColumns = rep.Columns()
			s.metrics.DegradedSolves.Inc()
			s.metrics.RefineIterations.Add(int64(st.Iterations))
		}
		r.res <- res
	}
}

// refineColumns refines each n-column of the solution panel x of b in place
// against e's factor and aggregates the stats as SolveOpts does: the worst
// iteration count and backward error, converged only if every column is.
func (e *factorEntry) refineColumns(b, x []float64) (*pastix.RefineStats, error) {
	agg := pastix.RefineStats{Converged: true}
	for c := 0; c < len(x); c += e.n {
		rx, st, err := e.an.RefineSolution(e.f, b[c:c+e.n], x[c:c+e.n])
		if err != nil {
			return nil, err
		}
		copy(x[c:], rx)
		agg.Iterations = max(agg.Iterations, st.Iterations)
		agg.BackwardError = max(agg.BackwardError, st.BackwardError)
		agg.Converged = agg.Converged && st.Converged
	}
	return &agg, nil
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if err := s.durabilityGate(); err != nil {
		s.writeErr(w, err)
		return
	}
	if err := s.store.Release(req.Handle); err != nil {
		s.writeErr(w, err)
		return
	}
	// A released handle must not come back from the idempotency store: drop
	// any remembered factorize response that issued it. Durable stores also
	// journal the tombstone so replay does not resurrect the handle.
	s.idem.dropHandle(req.Handle)
	if s.journal != nil {
		if err := s.journal.AppendRelease(req.Handle); err != nil {
			s.writeErr(w, fmt.Errorf("journaling release: %w", err))
			return
		}
	}
	s.writeJSON(w, http.StatusOK, struct {
		Released string `json:"released"`
	}{req.Handle})
}

// handleHealthz is pure liveness: 200 whenever the process can serve HTTP at
// all, draining or not. Restart decisions key off this; routing decisions
// key off /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}{"ok", time.Since(s.start).Seconds()})
}

// ReadyState is the /readyz body: the routing-relevant view of one node.
// The gateway's health model consumes it as its active probe signal.
type ReadyState struct {
	// Status is "ok", "draining", "recovering" or "recovery_failed"; all but
	// "ok" also flip the HTTP status to 503 so plain load balancers stop
	// routing here. "recovering" is transient (startup journal replay);
	// "recovery_failed" is terminal (the node fail-stopped rather than serve
	// from a store it knows is incomplete).
	Status        string  `json:"status"`
	Draining      bool    `json:"draining"`
	Recovering    bool    `json:"recovering,omitempty"`
	QueueDepth    int     `json:"queue_depth"`    // admitted requests (queued or executing)
	QueueCapacity int     `json:"queue_capacity"` // admission bound (QueueDepth config)
	InFlight      int     `json:"in_flight"`      // requests holding worker slots
	Workers       int     `json:"workers"`
	CachedAnal    int     `json:"cached_analyses"`
	LiveFactors   int     `json:"live_factors"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Instance is the random per-process identity: a prober seeing the same
	// address with a new instance knows the process restarted (and with it,
	// whether non-durable state is gone).
	Instance string `json:"instance,omitempty"`
	// Durable reports whether this node journals factorizations (DataDir).
	Durable bool `json:"durable,omitempty"`
}

// handleReadyz is readiness: whether a router should send this node traffic,
// with the load signals (queue depth, in-flight count) a health model needs
// beyond the boolean.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := ReadyState{
		Status:        "ok",
		Draining:      s.draining.Load(),
		Recovering:    s.recovering.Load(),
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		InFlight:      len(s.active),
		Workers:       cap(s.active),
		CachedAnal:    s.cache.Len(),
		LiveFactors:   s.store.Len(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Instance:      s.instance,
		Durable:       s.journal != nil,
	}
	code := http.StatusOK
	switch {
	case st.Draining:
		st.Status = "draining"
		code = http.StatusServiceUnavailable
	case st.Recovering:
		st.Status = "recovering"
		code = http.StatusServiceUnavailable
	case s.recoveryErr.Load() != nil:
		st.Status = "recovery_failed"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	live, resident, dense := s.store.Stats()
	ratio := 1.0
	if resident > 0 {
		ratio = float64(dense) / float64(resident)
	}
	sample := metricsSample{
		cacheEntries:     s.cache.Len(),
		factorsLive:      live,
		factorBytes:      resident,
		compressionRatio: ratio,
		recoverySeconds:  math.Float64frombits(atomic.LoadUint64(&s.recoverySecs)),
	}
	if s.journal != nil {
		sample.walBytes = s.journal.Stats().WALBytes
	}
	_ = s.metrics.write(w, sample)
}

// --- encoding helpers ---

func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	// MaxBytesReader cuts the connection off at the configured cap, so an
	// oversized (or unbounded) body is a structured 413, not an OOM vector.
	// The body is read whole before decoding, so bytes trailing the JSON
	// value are seen and rejected. A declared length sizes the buffer only up
	// to the pool cap: a client announcing a huge body must send it to make
	// the server hold it.
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	wb := getWireBuf()
	defer wb.release()
	hint := min(r.ContentLength, s.cfg.MaxBodyBytes, maxPooledWire)
	var err error
	if wb.b, err = readBody(body, wb.b[:0], hint); err == nil {
		err = unmarshalBody(wb.b, into)
	}
	if err != nil {
		s.writeBodyErr(w, err)
		return false
	}
	return true
}

// writeBodyErr answers a request whose body could not be read or decoded:
// 413 past the body cap, 400 otherwise.
func (s *Server) writeBodyErr(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
			Code:  "body_too_large",
		})
	} else {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
	}
	s.metrics.RequestErrors.Inc()
}

func (s *Server) decodeMatrix(w http.ResponseWriter, r *http.Request, req *matrixRequest) (*pastix.Matrix, bool) {
	if !s.decodeJSON(w, r, req) {
		return nil, false
	}
	a, err := pastix.ReadMatrixMarket(strings.NewReader(req.MatrixMarket))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "matrix_market: " + err.Error()})
		s.metrics.RequestErrors.Inc()
		return nil, false
	}
	return a, true
}

// writeJSON encodes body before committing the status, so a value JSON
// cannot carry becomes a 500 rather than a 200 with an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	data, err := json.Marshal(body)
	if err != nil {
		s.writeErr(w, fmt.Errorf("encoding response: %w", err))
		return
	}
	writeBody(w, status, append(data, '\n'))
}

// writeErr maps service and solver errors to HTTP statuses. Numerical
// breakdowns (ErrNotSPD, ErrPivotExhausted) become structured 422s carrying
// the offending column or the exhausted escalation's state, so clients can
// distinguish "your matrix is numerically hard" from a malformed request or
// a server fault.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	s.metrics.RequestErrors.Inc()
	resp := errorResponse{Error: err.Error()}
	status := http.StatusInternalServerError
	var zp *pastix.ZeroPivotError
	var px *pastix.PivotExhaustedError
	switch {
	case errors.Is(err, errBadRecord):
		status = http.StatusBadRequest
		resp.Code = "bad_transfer"
	case errors.Is(err, errShed):
		status = http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, errRecovering):
		status = http.StatusServiceUnavailable
		resp.Code = "recovering"
	case errors.Is(err, errRecoveryFailed):
		status = http.StatusServiceUnavailable
		resp.Code = "recovery_failed"
	case errors.Is(err, ErrStoreFull):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownHandle):
		status = http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
	case errors.Is(err, errNonFinite):
		status = http.StatusUnprocessableEntity
		resp.Code = "non_finite"
	case errors.As(err, &px):
		status = http.StatusUnprocessableEntity
		resp.Code = "pivot_exhausted"
		resp.PerturbedColumns = px.Columns
		resp.Attempts = px.Attempts
	case errors.As(err, &zp):
		status = http.StatusUnprocessableEntity
		resp.Code = "not_spd"
		col := zp.Column
		resp.Column = &col
	case errors.Is(err, pastix.ErrNotSPD):
		status = http.StatusUnprocessableEntity
		resp.Code = "not_spd"
	case errors.Is(err, pastix.ErrShape),
		errors.Is(err, pastix.ErrPatternMismatch),
		errors.Is(err, pastix.ErrBadOptions):
		status = http.StatusBadRequest
	}
	s.writeJSON(w, status, resp)
}
