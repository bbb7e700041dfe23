package gateway

import (
	"bytes"
	"context"
	"net/http"
	"time"

	"github.com/pastix-go/pastix/internal/trace"
)

// This file is the gateway's anti-entropy repair loop. Replication at
// factorize time establishes R copies of every factor; node deaths erode
// that. The repair loop restores it: every RepairInterval it walks the
// handle table, verifies which replicas still exist, and re-replicates
// under-replicated factors onto surviving nodes — preferring a direct
// backend-to-backend factor transfer (/v1/replicate), falling back to
// re-factorizing from the original request body when no survivor may export
// (deterministic factorization makes the rebuilt factor bitwise-identical).
//
// Verification is cheap by design: a replica records the backend process
// instance that created it. Same instance now → the handle necessarily
// still exists (processes never forget handles except by release) → no
// round trip. Changed instance → the process restarted → one /v1/stat
// decides whether the durable journal replayed the handle (keep, adopt the
// new instance) or it is gone (drop). Unroutable backends are left alone:
// a down node may come back with its durable store intact, and dropping
// its replicas would force needless rebuilds.

// wakeParked broadcasts to every factorize parked in awaitShard by closing
// the current park channel and installing a fresh one.
func (g *Gateway) wakeParked() {
	g.parkMu.Lock()
	ch := g.parkCh
	g.parkCh = make(chan struct{})
	g.parkMu.Unlock()
	close(ch)
}

// parkSignal returns the channel the next wakeParked will close.
func (g *Gateway) parkSignal() <-chan struct{} {
	g.parkMu.Lock()
	defer g.parkMu.Unlock()
	return g.parkCh
}

// repairLoop runs repairOnce every RepairInterval until ctx ends.
func (g *Gateway) repairLoop(ctx context.Context) {
	defer g.wg.Done()
	tick := time.NewTicker(g.cfg.RepairInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			g.repairOnce(ctx)
		}
	}
}

// repairOnce makes one pass over the handle table.
func (g *Gateway) repairOnce(ctx context.Context) {
	for _, e := range g.handles.entries() {
		if ctx.Err() != nil {
			return
		}
		g.repairHandle(ctx, e)
	}
}

// repairHandle verifies one handle's replica set and re-replicates if the
// count of live (routable, verified) replicas is below target. The target
// is min(R, routable backends): with fewer live nodes than R the handle is
// as replicated as the fleet allows, and repair resumes when nodes return.
func (g *Gateway) repairHandle(ctx context.Context, e handleEntry) {
	now := time.Now()
	routableBackends := 0
	for _, b := range g.backends {
		if b.routable(now) {
			routableBackends++
		}
	}

	kept := make([]replicaRef, 0, len(e.replicas))
	onBackend := make(map[int]bool, len(e.replicas))
	live := 0
	changed := false
	for _, rep := range e.replicas {
		b := g.backends[rep.Backend]
		if !b.routable(now) {
			// Down or draining: unverifiable, and possibly durable. Keep the
			// ref — it does not count as live, so repair still tops up from
			// the survivors.
			kept = append(kept, rep)
			onBackend[rep.Backend] = true
			continue
		}
		inst := b.instanceNow()
		if rep.Inst != "" && inst == rep.Inst {
			kept = append(kept, rep)
			onBackend[rep.Backend] = true
			live++
			continue
		}
		// The process restarted (or the instance was never recorded): ask it.
		switch g.statReplica(ctx, b, rep.Handle) {
		case statExists:
			rep.Inst = inst
			kept = append(kept, rep)
			onBackend[rep.Backend] = true
			live++
			changed = true
		case statGone:
			g.replicasDropped.Add(1)
			changed = true
		default: // statUnknown: transient — keep, don't count as live
			kept = append(kept, rep)
			onBackend[rep.Backend] = true
		}
	}

	target := g.cfg.Replicas
	if routableBackends < target {
		target = routableBackends
	}
	// Survivors that can source a transfer.
	var sources []replicaRef
	for _, rep := range kept {
		if g.backends[rep.Backend].routable(now) {
			sources = append(sources, rep)
		}
	}
	for live < target {
		dst := g.pickDestination(e.fingerprint, onBackend, now)
		if dst == nil {
			break
		}
		newRep, ok := g.replicateTo(ctx, e, sources, dst)
		if !ok {
			break
		}
		kept = append(kept, newRep)
		sources = append(sources, newRep)
		onBackend[dst.id] = true
		live++
		changed = true
		g.repairs.Add(1)
	}

	if changed {
		// rebind returns false if the handle was released mid-repair; the
		// replicas made above die with their nodes' stores, like any release
		// racing a dead replica.
		g.handles.rebind(e.handle, kept)
	}
}

// pickDestination walks the ring in the shard's preference order and returns
// the first routable backend not already holding a replica.
func (g *Gateway) pickDestination(fingerprint string, onBackend map[int]bool, now time.Time) *backendHealth {
	for _, id := range g.ring.order(fingerprint) {
		if onBackend[id] {
			continue
		}
		if b := g.backends[id]; b.routable(now) {
			return b
		}
	}
	return nil
}

type statVerdict int

const (
	statUnknown statVerdict = iota // transient: recovering, transport error
	statExists
	statGone
)

// statReplica asks one backend whether it still holds handle.
func (g *Gateway) statReplica(ctx context.Context, b *backendHealth, handle string) statVerdict {
	res := g.attemptOnce(ctx, b, "/v1/stat", jsonType, handleJSON(handle))
	switch {
	case res.err != nil:
		return statUnknown
	case res.status == http.StatusOK:
		return statExists
	case res.status == http.StatusNotFound:
		return statGone
	default:
		return statUnknown
	}
}

// replicateTo establishes one new replica of e on dst. It first tries a
// factor transfer: export the serialized factor from a surviving replica
// (POST /v1/replicate, JSON) and import the bytes on dst (POST
// /v1/replicate, octet-stream). If every survivor refuses or fails to
// export — NoFactorExport policy, or the survivors died under us — it
// re-factorizes on dst from the original request body, whose idempotency
// key makes the retry safe and whose deterministic factorization makes the
// result bitwise-identical to the lost replica.
func (g *Gateway) replicateTo(ctx context.Context, e handleEntry, sources []replicaRef, dst *backendHealth) (replicaRef, bool) {
	for _, src := range sources {
		blob, ok := g.exportFrom(ctx, g.backends[src.Backend], src.Handle)
		if !ok {
			continue
		}
		if handle, ok := g.importTo(ctx, dst, blob); ok {
			return replicaRef{Backend: dst.id, Handle: handle, Inst: dst.instanceNow()}, true
		}
		// The blob moved but dst refused it: dst is the problem, not the
		// source — re-factorizing on the same dst is unlikely to fare better,
		// but it is the only remaining path.
		break
	}
	if len(e.body) == 0 {
		return replicaRef{}, false
	}
	res := g.attemptOnce(ctx, dst, "/v1/factorize", jsonType, e.body)
	if res.err != nil || res.status != http.StatusOK {
		return replicaRef{}, false
	}
	handle, ok := handleOf(res.body)
	if !ok {
		return replicaRef{}, false
	}
	g.refactorizes.Add(1)
	return replicaRef{Backend: dst.id, Handle: handle, Inst: dst.instanceNow()}, true
}

// exportFrom pulls the serialized factor record for handle from src.
func (g *Gateway) exportFrom(ctx context.Context, src *backendHealth, handle string) ([]byte, bool) {
	res := g.attemptOnce(ctx, src, "/v1/replicate", jsonType, handleJSON(handle))
	if res.err != nil || res.status != http.StatusOK || len(res.body) == 0 {
		return nil, false
	}
	return res.body, true
}

// importTo pushes an exported factor blob to dst and returns dst's new
// local handle.
func (g *Gateway) importTo(ctx context.Context, dst *backendHealth, blob []byte) (string, bool) {
	res := g.attemptOnce(ctx, dst, "/v1/replicate", "application/octet-stream", blob)
	if res.err != nil || res.status != http.StatusOK {
		return "", false
	}
	return handleOf(res.body)
}

// handleMetrics exposes the gateway's counters and the fleet replication
// state in Prometheus text format.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	routable := make([]bool, len(g.backends))
	for i, b := range g.backends {
		routable[i] = b.routable(now)
	}
	minRepl := g.cfg.Replicas
	entries := g.handles.entries()
	for _, e := range entries {
		live := 0
		for _, rep := range e.replicas {
			if routable[rep.Backend] {
				live++
			}
		}
		if live < minRepl {
			minRepl = live
		}
	}
	st := g.Stats()
	var buf bytes.Buffer
	for _, c := range []struct {
		name, help string
		v          int64
	}{
		{"pastix_gateway_requests_total", "Requests routed by the gateway.", st.Requests},
		{"pastix_gateway_retries_total", "Extra attempts after a failed one.", st.Retries},
		{"pastix_gateway_failovers_total", "Requests served by a non-primary replica.", st.Failovers},
		{"pastix_gateway_repairs_total", "Handles re-replicated by anti-entropy.", st.Repairs},
		{"pastix_gateway_replicas_dropped_total", "Replica refs dropped as verifiably lost.", st.ReplicasDropped},
		{"pastix_gateway_refactorizes_total", "Repairs that fell back to re-factorizing.", st.Refactorizes},
	} {
		trace.PromHeader(&buf, c.name, "counter", c.help)
		trace.PromValue(&buf, c.name, c.v)
	}
	trace.PromHeader(&buf, "pastix_gateway_handles", "gauge", "Live gateway factor handles.")
	trace.PromValue(&buf, "pastix_gateway_handles", int64(len(entries)))
	trace.PromHeader(&buf, "pastix_gateway_shard_replicas", "gauge",
		"Worst-case live replica count over all handles (target: replicas).")
	trace.PromValue(&buf, "pastix_gateway_shard_replicas", int64(minRepl))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write(buf.Bytes())
}
