// Package gateway is the sharded HA front door for a fleet of pastix-serve
// nodes. It routes /v1/* traffic by consistent-hashing the matrix pattern
// fingerprint — routing is a pure function of the request, the way the
// paper's static block mapping is a pure function of the analysis — with a
// bounded-load escape hatch so one hot pattern cannot melt its shard,
// factor-handle affinity (a solve routes to the node that made the factor),
// R-way replication of factorize requests so a replica can serve solves
// after the primary dies, and a per-backend health model (active /readyz
// probes plus passive request outcomes) driving a closed/open/half-open
// circuit breaker.
//
// Failed or timed-out requests retry against the next replica with capped
// exponential backoff and full jitter (internal/gateway/client); an
// idempotency key makes factorize retries safe on the nodes; an optional
// hedging delay duplicates a slow solve onto the next replica for tail
// latency. When every replica of a shard is down the gateway degrades
// gracefully: factorize requests wait in a bounded queue for the shard to
// come back, everything else gets a structured 503 with a retry_after hint.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gateway/client"
)

// ErrBadGatewayConfig reports an invalid Config; match with errors.Is.
var ErrBadGatewayConfig = errors.New("gateway: invalid config")

// Config configures a Gateway. Zero fields take the documented defaults.
type Config struct {
	// Backends are the pastix-serve base URLs (e.g. "http://10.0.0.1:8416").
	Backends []string
	// Replicas is R: how many backends receive each factorize (default 2,
	// capped at len(Backends)). R-1 node deaths leave every factor solvable.
	Replicas int
	// VNodes is the virtual nodes per backend on the hash ring (default 64).
	VNodes int
	// LoadFactor is the bounded-load expansion factor c ≥ 1 (default 1.5):
	// no backend is chosen as primary while it carries more than
	// ceil(c·(m+1)/n) of the m in-flight requests.
	LoadFactor float64
	// ProbeInterval is the active /readyz probe cadence (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 1s).
	ProbeTimeout time.Duration
	// AttemptTimeout bounds one forwarded attempt against one backend
	// (default 15s). The request's own deadline still applies on top.
	AttemptTimeout time.Duration
	// HedgeDelay, when positive, duplicates a solve onto the next replica if
	// the primary has not answered within it; the first answer wins
	// (default 0 = disabled).
	HedgeDelay time.Duration
	// Retry is the backoff schedule between the steps of the failover walk.
	Retry client.Policy
	// BreakerThreshold consecutive failures open a backend's breaker
	// (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before probing
	// half-open (default 500ms).
	BreakerCooldown time.Duration
	// QueueDepth bounds the factorize requests parked while their shard has
	// no live replica (default 16); beyond it they 503 immediately.
	QueueDepth int
	// QueueWait bounds how long a parked factorize waits for the shard to
	// come back (default 2s).
	QueueWait time.Duration
	// RetryAfter is the hint sent with degraded 503s (default 1s).
	RetryAfter time.Duration
	// RepairInterval is the anti-entropy repair cadence (default 250ms):
	// every interval the gateway checks each handle's replica set against the
	// backend health model and re-replicates under-replicated factors onto
	// surviving nodes. Negative disables the repair loop.
	RepairInterval time.Duration
	// MaxBodyBytes caps request bodies at the gateway (default 64 MiB).
	MaxBodyBytes int64
	// Seed feeds the ring placement and the retry jitter.
	Seed int64
}

// Validate checks the configuration; errors match ErrBadGatewayConfig.
func (c Config) Validate() error {
	if len(c.Backends) == 0 {
		return fmt.Errorf("%w: no backends", ErrBadGatewayConfig)
	}
	for _, u := range c.Backends {
		if u == "" {
			return fmt.Errorf("%w: empty backend URL", ErrBadGatewayConfig)
		}
	}
	if c.Replicas < 0 || c.VNodes < 0 || c.QueueDepth < 0 {
		return fmt.Errorf("%w: negative size (replicas %d, vnodes %d, queue %d)",
			ErrBadGatewayConfig, c.Replicas, c.VNodes, c.QueueDepth)
	}
	if c.LoadFactor != 0 && c.LoadFactor < 1 {
		return fmt.Errorf("%w: LoadFactor %v below 1", ErrBadGatewayConfig, c.LoadFactor)
	}
	for _, d := range []time.Duration{c.ProbeInterval, c.ProbeTimeout, c.AttemptTimeout,
		c.HedgeDelay, c.BreakerCooldown, c.QueueWait, c.RetryAfter} {
		if d < 0 {
			return fmt.Errorf("%w: negative duration", ErrBadGatewayConfig)
		}
	}
	if c.BreakerThreshold < 0 || c.MaxBodyBytes < 0 {
		return fmt.Errorf("%w: negative threshold or body cap", ErrBadGatewayConfig)
	}
	if err := c.Retry.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadGatewayConfig, err)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Replicas > len(c.Backends) {
		c.Replicas = len(c.Backends)
	}
	if c.VNodes == 0 {
		c.VNodes = 64
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 1.5
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = time.Second
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 15 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.QueueWait == 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 250 * time.Millisecond
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Retry.Seed == 0 {
		c.Retry.Seed = c.Seed
	}
	return c
}

// Stats are the gateway's cumulative routing counters.
type Stats struct {
	Requests    int64 `json:"requests"`
	Retries     int64 `json:"retries"`   // extra attempts launched after a failed one
	Failovers   int64 `json:"failovers"` // requests ultimately served by a non-primary replica
	Hedges      int64 `json:"hedges"`    // hedged duplicates launched by the tail-latency timer
	Queued      int64 `json:"queued"`    // factorizes parked for a dead shard
	Unavailable int64 `json:"unavailable"`
	StaleRoutes int64 `json:"stale_routes"` // 404s from restarted nodes, failed over

	Repairs         int64 `json:"repairs"`          // handles re-replicated by anti-entropy
	ReplicasDropped int64 `json:"replicas_dropped"` // replica refs dropped as verifiably lost
	Refactorizes    int64 `json:"refactorizes"`     // repairs that fell back to re-factorizing
}

// Gateway is the HTTP front door. Create with New, mount Handler, Close when
// done.
type Gateway struct {
	cfg      Config
	ring     *ring
	backends []*backendHealth
	hc       *http.Client
	handles  *handleTable

	queueSlots chan struct{}
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	start      time.Time
	idemSeq    atomic.Uint64

	// parkCh is the wakeup broadcast for factorizes parked in awaitShard:
	// closed and replaced whenever a backend flips back to routable.
	parkMu sync.Mutex
	parkCh chan struct{}

	requests, retries, failovers, hedges   atomic.Int64
	queued, unavailable, staleRoutes       atomic.Int64
	repairs, replicasDropped, refactorizes atomic.Int64
}

// New validates cfg, probes every backend once, starts the active prober and
// returns a ready Gateway.
func New(cfg Config) (*Gateway, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:        cfg,
		ring:       newRing(len(cfg.Backends), cfg.VNodes, cfg.Seed),
		hc:         http.DefaultClient,
		handles:    newHandleTable(),
		queueSlots: make(chan struct{}, cfg.QueueDepth),
		start:      time.Now(),
		parkCh:     make(chan struct{}),
	}
	for i, u := range cfg.Backends {
		g.backends = append(g.backends, &backendHealth{id: i, url: strings.TrimRight(u, "/")})
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.cancel = cancel
	// The first probe round runs before New returns, against every backend at
	// once and each bounded by ProbeTimeout, so a request issued right away
	// sees the whole ring's health rather than a partly probed ring on which
	// a factorize would commit to fewer than R replicas.
	var probes sync.WaitGroup
	for _, b := range g.backends {
		probes.Add(1)
		go func(b *backendHealth) {
			defer probes.Done()
			g.probe(ctx, b)
		}(b)
	}
	probes.Wait()
	g.wg.Add(1)
	go g.prober(ctx)
	if cfg.RepairInterval > 0 {
		g.wg.Add(1)
		go g.repairLoop(ctx)
	}
	return g, nil
}

// Close stops the prober.
func (g *Gateway) Close() {
	g.cancel()
	g.wg.Wait()
}

// Stats returns the routing counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Requests: g.requests.Load(), Retries: g.retries.Load(),
		Failovers: g.failovers.Load(), Hedges: g.hedges.Load(),
		Queued: g.queued.Load(), Unavailable: g.unavailable.Load(),
		StaleRoutes: g.staleRoutes.Load(),
		Repairs:     g.repairs.Load(), ReplicasDropped: g.replicasDropped.Load(),
		Refactorizes: g.refactorizes.Load(),
	}
}

// Handler returns the HTTP surface: the /v1/* verbs of pastix-serve, routed,
// plus the gateway's own /healthz.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", g.handleAnalyze)
	mux.HandleFunc("POST /v1/factorize", g.handleFactorize)
	mux.HandleFunc("POST /v1/solve", g.handleSolve)
	mux.HandleFunc("POST /v1/release", g.handleRelease)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return mux
}

// --- error shape ---

// gwError is the gateway's structured error body (PROTOCOL.md addendum).
type gwError struct {
	Error string `json:"error"`
	// Code: "no_backend" (shard has no live replica), "shard_unavailable"
	// (degraded queue full or wait expired), "unknown_handle", "bad_request",
	// "body_too_large".
	Code string `json:"code,omitempty"`
	// RetryAfterMS hints when to retry a 503.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

func (g *Gateway) writeErr(w http.ResponseWriter, status int, code, msg string) {
	e := gwError{Error: msg, Code: code}
	if status == http.StatusServiceUnavailable {
		e.RetryAfterMS = g.cfg.RetryAfter.Milliseconds()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(g.cfg.RetryAfter.Seconds()+0.999)))
		g.unavailable.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(e)
}

// relay copies a backend response through verbatim.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// readBody reads a capped request body.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			g.writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		} else {
			g.writeErr(w, http.StatusBadRequest, "bad_request", "read body: "+err.Error())
		}
		return nil, false
	}
	return body, true
}

// --- attempts ---

// attemptResult is one forwarded try against one backend.
type attemptResult struct {
	backend *backendHealth
	status  int
	body    []byte
	err     error // transport-level failure
}

// failover reports whether the attempt should move on to another replica:
// transport errors, node-level 5xx/429, and stale-handle 404s (a restarted
// node lost its stores; the gateway knows the handle is real).
func (a *attemptResult) failover() bool {
	if a.err != nil {
		return true
	}
	switch a.status {
	case http.StatusNotFound, http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusInternalServerError:
		return true
	}
	return false
}

// jsonType is the content type of every backend request but a factor import.
const jsonType = "application/json"

// handleJSON is the {"handle": h} body of a stat, export or release request.
func handleJSON(h string) []byte {
	b, _ := json.Marshal(struct {
		Handle string `json:"handle"`
	}{h})
	return b
}

// handleOf decodes the backend handle a factorize or factor import answered
// with.
func handleOf(body []byte) (string, bool) {
	var r struct {
		Handle string `json:"handle"`
	}
	return r.Handle, json.Unmarshal(body, &r) == nil && r.Handle != ""
}

// attemptOnce POSTs body to one backend with a single try and folds the
// outcome into the health model. It is the gateway's only backend POST.
func (g *Gateway) attemptOnce(ctx context.Context, b *backendHealth, path, contentType string, body []byte) *attemptResult {
	actx, cancel := context.WithTimeout(ctx, g.cfg.AttemptTimeout)
	defer cancel()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	t0 := time.Now()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, b.url+path, bytes.NewReader(body))
	var resp *http.Response
	if err == nil {
		req.Header.Set("Content-Type", contentType)
		resp, err = g.hc.Do(req)
	}
	now := time.Now()
	if err != nil {
		b.onFailure(err.Error(), g.cfg.BreakerThreshold, g.cfg.BreakerCooldown, now)
		return &attemptResult{backend: b, err: err}
	}
	rb, rerr := client.ReadBody(resp, g.cfg.MaxBodyBytes)
	if rerr != nil {
		b.onFailure(rerr.Error(), g.cfg.BreakerThreshold, g.cfg.BreakerCooldown, now)
		return &attemptResult{backend: b, err: rerr}
	}
	res := &attemptResult{backend: b, status: resp.StatusCode, body: rb}
	switch {
	case resp.StatusCode >= 500:
		b.onFailure(fmt.Sprintf("status %d", resp.StatusCode), g.cfg.BreakerThreshold, g.cfg.BreakerCooldown, now)
	case resp.StatusCode == http.StatusTooManyRequests:
		// Load shedding is not a node fault; don't open the breaker.
	default:
		b.onSuccess(now.Sub(t0))
	}
	return res
}

// candidates returns the backends that would take traffic for key right now,
// in ring preference order, with the bounded-load rule applied to the
// primary slot: if the ring-preferred head is over capacity and some other
// routable candidate is under it, that one leads instead.
func (g *Gateway) candidates(key string) []*backendHealth {
	now := time.Now()
	var out []*backendHealth
	for _, id := range g.ring.order(key) {
		if b := g.backends[id]; b.routable(now) {
			out = append(out, b)
		}
	}
	if len(out) < 2 {
		return out
	}
	var total int64
	for _, b := range g.backends {
		total += b.inflight.Load()
	}
	cap := capacity(g.cfg.LoadFactor, total, len(g.backends))
	if out[0].inflight.Load() < cap {
		return out
	}
	for i := 1; i < len(out); i++ {
		if out[i].inflight.Load() < cap {
			// Spill the hot head: promote the first under-capacity candidate.
			lead := out[i]
			copy(out[1:i+1], out[0:i])
			out[0] = lead
			return out
		}
	}
	return out
}

// anyAllowed returns breaker-admitted backends in ring order for key,
// ignoring probe state — the last resort when nothing is routable, so a
// half-open breaker can discover a recovered node via real traffic.
func (g *Gateway) anyAllowed(key string) []*backendHealth {
	now := time.Now()
	var out []*backendHealth
	for _, id := range g.ring.order(key) {
		if b := g.backends[id]; b.allow(now) {
			out = append(out, b)
		}
	}
	return out
}

// target pairs a backend with the request body to send it (a solve
// carries each replica's own factor handle).
type target struct {
	b    *backendHealth
	body []byte
}

// forwardFailover is the gateway's one walk over replicas: it tries targets
// in order, each attempt on its own goroutine, and returns the first result
// that is not a failover (or the last result when every target failed).
// After a definite failure the next target starts once the jittered backoff
// has passed. With hedge > 0 a timer also starts the next target if no
// answer has come within hedge — at most once per walk, dropping a pending
// backoff start — and the first acceptable answer wins, so callers hedge
// only idempotent reads. Losing attempts are cancelled when the walk returns.
func (g *Gateway) forwardFailover(ctx context.Context, targets []target, path string, hedge time.Duration) *attemptResult {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan *attemptResult, len(targets))
	launched := 0
	launch := func() {
		tg := targets[launched]
		launched++
		go func() { results <- g.attemptOnce(wctx, tg.b, path, jsonType, tg.body) }()
	}
	launch()
	var hedgeC, backoffC <-chan time.Time
	if hedge > 0 && len(targets) > 1 {
		t := time.NewTimer(hedge)
		defer t.Stop()
		hedgeC = t.C
	}
	key := client.Key(path)
	var last *attemptResult
	for done := 0; done < launched || backoffC != nil; {
		select {
		case res := <-results:
			done++
			last = res
			if !res.failover() {
				if res.backend != targets[0].b {
					g.failovers.Add(1)
				}
				return res
			}
			if res.status == http.StatusNotFound {
				g.staleRoutes.Add(1)
			}
			if launched < len(targets) && backoffC == nil {
				backoffC = time.After(g.cfg.Retry.Delay(key, launched))
			}
		case <-backoffC:
			backoffC = nil
			g.retries.Add(1)
			launch()
		case <-hedgeC:
			hedgeC = nil
			if launched < len(targets) {
				backoffC = nil // the hedge starts the next target now
				g.hedges.Add(1)
				launch()
			}
		case <-ctx.Done():
			return &attemptResult{err: ctx.Err()}
		}
	}
	return last
}

// --- handlers ---

// fingerprintOf parses the embedded Matrix Market text and fingerprints its
// pattern — the shard key.
func fingerprintOf(raw map[string]json.RawMessage) (string, error) {
	var mm string
	if err := json.Unmarshal(raw["matrix_market"], &mm); err != nil {
		return "", fmt.Errorf("matrix_market: %w", err)
	}
	a, err := pastix.ReadMatrixMarket(strings.NewReader(mm))
	if err != nil {
		return "", fmt.Errorf("matrix_market: %w", err)
	}
	return pastix.PatternFingerprint(a), nil
}

func (g *Gateway) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		g.writeErr(w, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
		return
	}
	fp, err := fingerprintOf(raw)
	if err != nil {
		g.writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	cands := g.candidates(fp)
	if len(cands) == 0 {
		cands = g.anyAllowed(fp)
	}
	if len(cands) == 0 {
		g.writeErr(w, http.StatusServiceUnavailable, "no_backend", "no live backend for shard "+fp[:8])
		return
	}
	targets := make([]target, len(cands))
	for i, b := range cands {
		targets[i] = target{b: b, body: body}
	}
	res := g.forwardFailover(r.Context(), targets, "/v1/analyze", 0)
	if res.err != nil || res.failover() {
		g.writeErr(w, http.StatusServiceUnavailable, "shard_unavailable",
			fmt.Sprintf("analyze failed on all %d candidates for shard %s", len(cands), fp[:8]))
		return
	}
	relay(w, res.status, res.body)
}

func (g *Gateway) handleFactorize(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		g.writeErr(w, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
		return
	}
	fp, err := fingerprintOf(raw)
	if err != nil {
		g.writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	// The idempotency key rides to every replica and every retry: a node
	// that already committed this factorize replays its response instead of
	// factoring twice.
	var idemKey string
	if k, ok := raw["idempotency_key"]; ok {
		_ = json.Unmarshal(k, &idemKey)
	}
	if idemKey == "" {
		idemKey = fmt.Sprintf("gw-%.8s-%d-%d", fp, time.Now().UnixNano(), g.idemSeq.Add(1))
		kb, _ := json.Marshal(idemKey)
		raw["idempotency_key"] = kb
		if body, err = json.Marshal(raw); err != nil {
			g.writeErr(w, http.StatusInternalServerError, "", err.Error())
			return
		}
	}

	cands := g.candidates(fp)
	if len(cands) == 0 {
		// Degraded mode: the shard has no live replica. Park in the bounded
		// queue and wait for one to come back rather than failing opaquely.
		var parked bool
		cands, parked = g.awaitShard(r.Context(), w, fp)
		if !parked {
			return // awaitShard wrote the 503
		}
	}

	// Replicate: walk the candidates until R have committed the factor (the
	// first success is the primary whose response the client sees). Failed
	// candidates are skipped — failover and replication are one walk.
	// A retry is counted when an attempt starts after a failed one, a
	// failover when a candidate after the first becomes the primary.
	var (
		reps    []replicaRef
		primary *attemptResult
		failed  bool
	)
	for i, b := range cands {
		if len(reps) >= g.cfg.Replicas {
			break
		}
		if failed {
			g.retries.Add(1)
			failed = false
		}
		res := g.attemptOnce(r.Context(), b, "/v1/factorize", jsonType, body)
		if res.failover() {
			failed = true
			continue
		}
		if res.status != http.StatusOK {
			// Request-level verdict (422 not_spd, 400, 413): the matrix, not
			// the node, is at fault on every replica alike — relay it. If a
			// replica already committed, keep what we have instead.
			if len(reps) == 0 {
				relay(w, res.status, res.body)
				return
			}
			break
		}
		h, ok := handleOf(res.body)
		if !ok {
			continue
		}
		reps = append(reps, replicaRef{Backend: b.id, Handle: h, Inst: b.instanceNow()})
		if primary == nil {
			primary = res
			if i > 0 {
				g.failovers.Add(1)
			}
		}
	}
	if primary == nil {
		g.writeErr(w, http.StatusServiceUnavailable, "shard_unavailable",
			fmt.Sprintf("factorize failed on all %d candidates for shard %s", len(cands), fp[:8]))
		return
	}
	gh := g.handles.put(fp, reps, body)

	// The client sees the gateway handle plus the replication achieved; the
	// rest of the primary's response (timings, solve plan, degraded-success
	// fields) passes through.
	var out map[string]json.RawMessage
	if err := json.Unmarshal(primary.body, &out); err != nil {
		g.writeErr(w, http.StatusInternalServerError, "", "bad backend response: "+err.Error())
		return
	}
	hb, _ := json.Marshal(gh)
	out["handle"] = hb
	rb, _ := json.Marshal(len(reps))
	out["replicas"] = rb
	pb, _ := json.Marshal(reps[0].Backend)
	out["primary_backend"] = pb
	kb, _ := json.Marshal(idemKey)
	out["idempotency_key"] = kb
	merged, _ := json.Marshal(out)
	relay(w, http.StatusOK, merged)
}

// awaitShard parks a factorize whose shard has no live replica in the
// bounded degraded queue until a candidate appears, the wait expires or the
// request dies. On failure it writes the 503 and returns parked=false.
func (g *Gateway) awaitShard(ctx context.Context, w http.ResponseWriter, fp string) ([]*backendHealth, bool) {
	select {
	case g.queueSlots <- struct{}{}:
	default:
		g.writeErr(w, http.StatusServiceUnavailable, "shard_unavailable",
			fmt.Sprintf("no live backend for shard %s and the wait queue is full", fp[:8]))
		return nil, false
	}
	defer func() { <-g.queueSlots }()
	g.queued.Add(1)
	deadline := time.NewTimer(g.cfg.QueueWait)
	defer deadline.Stop()
	for {
		// Grab the wakeup signal BEFORE re-checking candidates: a backend
		// recovering between the check and the wait closes this very channel,
		// so the wakeup cannot be missed. The prober broadcasts on every
		// unroutable→routable edge — no polling between edges.
		wake := g.parkSignal()
		if cands := g.candidates(fp); len(cands) > 0 {
			return cands, true
		}
		select {
		case <-wake:
		case <-deadline.C:
			g.writeErr(w, http.StatusServiceUnavailable, "shard_unavailable",
				fmt.Sprintf("no live backend for shard %s after waiting %v", fp[:8], g.cfg.QueueWait))
			return nil, false
		case <-ctx.Done():
			g.writeErr(w, http.StatusServiceUnavailable, "shard_unavailable", ctx.Err().Error())
			return nil, false
		}
	}
}

func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		g.writeErr(w, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
		return
	}
	var handle string
	if err := json.Unmarshal(raw["handle"], &handle); err != nil {
		g.writeErr(w, http.StatusBadRequest, "bad_request", "handle: missing or not a string")
		return
	}
	gh, ok := g.handles.get(handle)
	if !ok {
		g.writeErr(w, http.StatusNotFound, "unknown_handle", fmt.Sprintf("unknown gateway handle %q", handle))
		return
	}

	// Factor-handle affinity: the replica set, primary first, skipping
	// unroutable nodes; when nothing is routable fall back to breaker-admitted
	// nodes so real traffic can rediscover a recovered backend.
	now := time.Now()
	mkBody := func(rep replicaRef) []byte {
		hb, _ := json.Marshal(rep.Handle)
		raw["handle"] = hb
		tb, _ := json.Marshal(raw)
		return tb
	}
	var targets []target
	for pass := 0; pass < 2 && len(targets) == 0; pass++ {
		for _, rep := range gh.replicas {
			b := g.backends[rep.Backend]
			if (pass == 0 && b.routable(now)) || (pass == 1 && b.allow(now)) {
				targets = append(targets, target{b: b, body: mkBody(rep)})
			}
		}
	}
	if len(targets) == 0 {
		g.writeErr(w, http.StatusServiceUnavailable, "no_backend",
			fmt.Sprintf("all %d replicas of %s are down", len(gh.replicas), handle))
		return
	}

	// Solves are idempotent reads of an immutable factor, so a hedged
	// duplicate is harmless.
	res := g.forwardFailover(r.Context(), targets, "/v1/solve", g.cfg.HedgeDelay)
	if res == nil || res.err != nil || res.failover() {
		status, code := http.StatusServiceUnavailable, "shard_unavailable"
		msg := fmt.Sprintf("solve failed on all %d replicas of %s", len(targets), handle)
		if res != nil && res.err == nil && res.status == http.StatusNotFound {
			// Every replica disowned the handle (all restarted): it is gone.
			status, code, msg = http.StatusNotFound, "unknown_handle",
				fmt.Sprintf("handle %s lost by all replicas", handle)
		}
		g.writeErr(w, status, code, msg)
		return
	}
	// Stamp which backend served, for observability and the failover tests.
	var out map[string]json.RawMessage
	if err := json.Unmarshal(res.body, &out); err == nil {
		sb, _ := json.Marshal(res.backend.id)
		out["served_by"] = sb
		if merged, err := json.Marshal(out); err == nil {
			relay(w, res.status, merged)
			return
		}
	}
	relay(w, res.status, res.body)
}

func (g *Gateway) handleRelease(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	body, ok := g.readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Handle string `json:"handle"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		g.writeErr(w, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
		return
	}
	gh, ok := g.handles.del(req.Handle)
	if !ok {
		g.writeErr(w, http.StatusNotFound, "unknown_handle", fmt.Sprintf("unknown gateway handle %q", req.Handle))
		return
	}
	// Best-effort fan-out: a dead replica cannot release, but its store dies
	// with it; the gateway mapping is already gone either way.
	released := 0
	for _, rep := range gh.replicas {
		res := g.attemptOnce(r.Context(), g.backends[rep.Backend], "/v1/release", jsonType, handleJSON(rep.Handle))
		if res.err == nil && res.status == http.StatusOK {
			released++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(struct {
		Released string `json:"released"`
		Replicas int    `json:"replicas"`
	}{req.Handle, released})
}

// handleHealthz reports the gateway's own health plus its model of every
// backend.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	sts := make([]BackendStatus, len(g.backends))
	routable := 0
	for i, b := range g.backends {
		sts[i] = b.status(now)
		if sts[i].Routable {
			routable++
		}
	}
	status, code := "ok", http.StatusOK
	if routable == 0 {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	// Per-shard replication: the worst-case live replica count over all
	// handles. MinReplication == cfg.Replicas means anti-entropy has nothing
	// left to repair; with no handles there is trivially nothing at risk.
	minRepl := g.cfg.Replicas
	under := 0
	for _, e := range g.handles.entries() {
		live := 0
		for _, rep := range e.replicas {
			if sts[rep.Backend].Routable {
				live++
			}
		}
		if live < minRepl {
			minRepl = live
		}
		if live < g.cfg.Replicas {
			under++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Status          string          `json:"status"`
		UptimeSeconds   float64         `json:"uptime_seconds"`
		Handles         int             `json:"handles"`
		Replicas        int             `json:"replicas"`
		MinReplication  int             `json:"min_replication"`
		UnderReplicated int             `json:"under_replicated"`
		Stats           Stats           `json:"stats"`
		Backends        []BackendStatus `json:"backends"`
	}{status, time.Since(g.start).Seconds(), g.handles.len(), g.cfg.Replicas, minRepl, under, g.Stats(), sts})
}
