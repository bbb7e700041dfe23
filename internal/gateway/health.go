package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix/internal/service"
)

// breakerState is the three-state circuit breaker per backend.
type breakerState int32

const (
	// breakerClosed: traffic flows; consecutive failures are counted.
	breakerClosed breakerState = iota
	// breakerOpen: the backend is presumed down; no traffic until the
	// cooldown expires.
	breakerOpen
	// breakerHalfOpen: the cooldown expired, or a probe found the node
	// answering; one trial request probes the backend. Success closes the
	// breaker, failure re-opens it.
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// backendHealth is the gateway's model of one pastix-serve node, fed by two
// signal paths: active /readyz probes on a timer, and passive per-request
// outcomes (transport errors, 5xx, latency). Both drive the same breaker.
type backendHealth struct {
	id       int
	url      string
	inflight atomic.Int64 // gateway-side requests outstanding (bounded-load signal)

	mu          sync.Mutex
	state       breakerState
	fails       int       // consecutive failures while closed
	openedUntil time.Time // when an open breaker may try half-open
	trial       bool      // a half-open trial request is outstanding
	probeOK     bool      // last active probe reached the node
	draining    bool      // node reported draining on /readyz
	recovering  bool      // node reported journal replay in progress on /readyz
	instance    string    // node-reported process instance (restart detector)
	queueDepth  int       // node-reported admission queue depth
	lastErr     string
	ewmaMS      float64 // request latency EWMA (alpha 0.3), observability only
}

// instanceNow returns the last probed process instance ("" before the first
// successful probe).
func (b *backendHealth) instanceNow() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.instance
}

// allow reports whether the breaker admits a request now. In half-open only
// one trial request is admitted at a time; its outcome decides the state.
func (b *backendHealth) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(b.openedUntil) {
			return false
		}
		b.state = breakerHalfOpen
		b.trial = true
		return true
	default: // half-open
		if b.trial {
			return false
		}
		b.trial = true
		return true
	}
}

// onSuccess records a request the node served: resets the failure streak
// and closes the breaker. Only a request closes it, never a probe.
func (b *backendHealth) onSuccess(latency time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.trial = false
	b.state = breakerClosed
	b.lastErr = ""
	ms := float64(latency) / float64(time.Millisecond)
	if b.ewmaMS == 0 {
		b.ewmaMS = ms
	} else {
		b.ewmaMS = 0.7*b.ewmaMS + 0.3*ms
	}
}

// onProbeOK records a probe the node answered. On a closed breaker it
// resets the failure streak; an open one it moves to half-open, ending the
// cooldown early, so that one trial request decides; a half-open one it
// leaves alone.
func (b *backendHealth) onProbeOK() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.fails = 0
		b.lastErr = ""
	case breakerOpen:
		b.state = breakerHalfOpen
		b.trial = false
	}
}

// onFailure records a transport-level or 5xx outcome. threshold consecutive
// failures open the breaker for cooldown; a failed half-open trial re-opens
// immediately.
func (b *backendHealth) onFailure(errMsg string, threshold int, cooldown time.Duration, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastErr = errMsg
	if b.state == breakerHalfOpen {
		b.trial = false
		b.state = breakerOpen
		b.openedUntil = now.Add(cooldown)
		return
	}
	b.fails++
	if b.fails >= threshold {
		b.state = breakerOpen
		b.openedUntil = now.Add(cooldown)
	}
}

// routable reports whether the health model would send ordinary traffic
// here: breaker not open (without consuming a half-open trial slot), last
// probe fine, not draining.
func (b *backendHealth) routable(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if now.Before(b.openedUntil) {
			return false
		}
	case breakerHalfOpen:
		if b.trial {
			return false
		}
	}
	return b.probeOK && !b.draining && !b.recovering
}

// BackendStatus is the externally visible health snapshot of one backend
// (gateway /healthz).
type BackendStatus struct {
	ID         int     `json:"id"`
	URL        string  `json:"url"`
	Breaker    string  `json:"breaker"`
	ProbeOK    bool    `json:"probe_ok"`
	Draining   bool    `json:"draining"`
	Recovering bool    `json:"recovering,omitempty"`
	Instance   string  `json:"instance,omitempty"`
	Routable   bool    `json:"routable"`
	InFlight   int64   `json:"in_flight"`
	QueueDepth int     `json:"queue_depth"`
	LatencyMS  float64 `json:"latency_ewma_ms"`
	LastError  string  `json:"last_error,omitempty"`
}

func (b *backendHealth) status(now time.Time) BackendStatus {
	routable := b.routable(now)
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStatus{
		ID: b.id, URL: b.url,
		Breaker: b.state.String(), ProbeOK: b.probeOK, Draining: b.draining,
		Recovering: b.recovering, Instance: b.instance,
		Routable: routable, InFlight: b.inflight.Load(), QueueDepth: b.queueDepth,
		LatencyMS: b.ewmaMS, LastError: b.lastErr,
	}
}

// probe runs one active /readyz round against b and folds the result into
// the model: 200 → healthy; 503/"draining" → alive but unroutable (no
// breaker penalty — draining is deliberate); transport error → breaker
// failure, exactly like a failed request.
func (g *Gateway) probe(ctx context.Context, b *backendHealth) {
	pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.url+"/readyz", nil)
	var resp *http.Response
	if err == nil {
		resp, err = g.hc.Do(req)
	}
	now := time.Now()
	if err != nil {
		b.mu.Lock()
		b.probeOK = false
		b.mu.Unlock()
		b.onFailure("probe: "+err.Error(), g.cfg.BreakerThreshold, g.cfg.BreakerCooldown, now)
		return
	}
	defer resp.Body.Close()
	var st service.ReadyState
	decodeErr := json.NewDecoder(resp.Body).Decode(&st)
	switch {
	case resp.StatusCode == http.StatusOK && decodeErr == nil:
		b.mu.Lock()
		b.probeOK = true
		b.draining = false
		b.recovering = false
		if st.Instance != "" {
			b.instance = st.Instance
		}
		b.queueDepth = st.QueueDepth
		b.mu.Unlock()
		b.onProbeOK()
	case resp.StatusCode == http.StatusServiceUnavailable && decodeErr == nil && st.Recovering:
		// The process is up but replaying its journal: alive, not routable.
		// Not a fault — recovery ends on its own.
		b.mu.Lock()
		b.probeOK = true
		b.draining = false
		b.recovering = true
		if st.Instance != "" {
			b.instance = st.Instance
		}
		b.queueDepth = st.QueueDepth
		b.mu.Unlock()
		b.onProbeOK()
	case resp.StatusCode == http.StatusServiceUnavailable && decodeErr == nil && st.Draining:
		b.mu.Lock()
		b.probeOK = true
		b.draining = true
		b.recovering = false
		if st.Instance != "" {
			b.instance = st.Instance
		}
		b.queueDepth = st.QueueDepth
		b.mu.Unlock()
		b.onProbeOK() // the process answered; draining is not a fault
	default:
		b.mu.Lock()
		b.probeOK = false
		b.mu.Unlock()
		b.onFailure("probe: unexpected readyz response", g.cfg.BreakerThreshold, g.cfg.BreakerCooldown, now)
	}
}

// prober repeats the active probe round every ProbeInterval until ctx ends
// (New ran the first). After each round it wakes requests parked in
// awaitShard if any backend flipped from unroutable to routable — the only
// event that can unblock them.
func (g *Gateway) prober(ctx context.Context) {
	defer g.wg.Done()
	tick := time.NewTicker(g.cfg.ProbeInterval)
	defer tick.Stop()
	probeRound := func() {
		now := time.Now()
		woke := false
		for _, b := range g.backends {
			before := b.routable(now)
			g.probe(ctx, b)
			if !before && b.routable(time.Now()) {
				woke = true
			}
		}
		if woke {
			g.wakeParked()
		}
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			probeRound()
		}
	}
}
