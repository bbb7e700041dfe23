package service

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/store"
)

// This file is the durability layer of the server: the journal wiring
// (persist-before-ack, startup replay) and the backend-to-backend transfer
// surface (/v1/replicate, /v1/stat) the gateway's anti-entropy repair uses.
//
// The durability contract: a factorize response carrying "durable": true was
// journaled — matrix values, factor payload, idempotency key and the response
// itself — with an fsync'd WAL append before the handle was acknowledged.
// Startup replays the journal before admitting requests: analyses are re-run
// (the deterministic analysis pipeline makes the analysis a pure function of
// the journaled matrix and the partition each factor payload records, so
// only bytes that cannot be recomputed bitwise are stored), factor payloads
// are adopted verbatim, and idempotency entries are rebuilt from the
// journaled responses. A restarted node therefore answers solves against
// recovered handles bitwise-identically to its previous life.

// errRecovering reports a request arriving while the startup journal replay
// is still running (HTTP 503; /readyz says "recovering").
var errRecovering = errors.New("service: journal replay in progress")

// errRecoveryFailed reports a request arriving after the startup replay
// failed; the node is fail-stopped (HTTP 503, /readyz "recovery_failed")
// rather than serving from a store it knows is incomplete.
var errRecoveryFailed = errors.New("service: journal recovery failed")

// newInstanceID returns the random per-process identity exposed on /readyz.
// The gateway uses it to detect restarts: same address, new instance means
// the in-memory state (and any non-durable handles) is gone.
func newInstanceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t-%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// openJournal opens the durable store and starts the asynchronous replay.
// Byte-level corruption surfaces here, synchronously, so a corrupt journal
// fails startup with a typed error instead of a half-recovered server.
func (s *Server) openJournal() error {
	if s.cfg.DataDir == "" {
		close(s.recoveryDone)
		return nil
	}
	j, rec, err := store.Open(s.cfg.DataDir, store.Options{SnapshotEvery: s.cfg.SnapshotEvery})
	if err != nil {
		return err
	}
	s.journal = j
	s.recovering.Store(true)
	go s.replay(rec)
	return nil
}

// replay rebuilds the in-memory state from the recovered journal records:
// analyses are recomputed to warm the cache, factors are restored under
// their original handles, idempotency entries are rebuilt. The HTTP listener
// is already up while this runs — /readyz reports "recovering" and admission
// refuses with 503 — so orchestrators see a live-but-not-ready node instead
// of a connection error. A replay failure fail-stops the node.
func (s *Server) replay(rec *store.Recovered) {
	t0 := time.Now()
	var err error
	for _, ar := range rec.Analyses {
		if _, _, aerr := s.cache.Get(s.baseCtx, ar.Fingerprint, ar.Matrix); aerr != nil {
			err = fmt.Errorf("replaying analysis %q: %w", ar.Fingerprint, aerr)
			break
		}
	}
	if err == nil {
		for _, fr := range rec.Factors {
			if ferr := s.restoreFactorRecord(fr); ferr != nil {
				err = fmt.Errorf("replaying factor %q: %w", fr.Handle, ferr)
				break
			}
		}
	}
	atomic.StoreUint64(&s.recoverySecs, math.Float64bits(time.Since(t0).Seconds()))
	if err != nil {
		msg := err.Error()
		s.recoveryErr.Store(&msg)
	}
	s.recovering.Store(false)
	close(s.recoveryDone)
}

// WaitRecovered blocks until the startup replay has finished (successfully
// or not) or ctx expires. Tests and embedders use it; HTTP clients poll
// /readyz instead.
func (s *Server) WaitRecovered(ctx context.Context) error {
	select {
	case <-s.recoveryDone:
		if msg := s.recoveryErr.Load(); msg != nil {
			return fmt.Errorf("%w: %s", errRecoveryFailed, *msg)
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// restoreAnalysis returns the analysis a persisted factor was computed on,
// recomputed from its matrix (deterministic). The fresh analysis of the
// pattern serves when its partition is the one the payload records — the
// common case of a payload written under the same amalgamation rule and
// BlockSize. Otherwise (a payload from before partitions were recorded, or
// one computed under another rule or BlockSize) the analysis is rebuilt on
// the payload's partition and cached under restoreKey.
func (s *Server) restoreAnalysis(ctx context.Context, fp string, a *pastix.Matrix, p *pastix.FactorPayload) (*pastix.Analysis, bool, error) {
	if p.Partition != nil {
		an, hit, err := s.cache.Get(ctx, fp, a)
		if err != nil || slices.Equal(an.Partition(), p.Partition) {
			return an, hit, err
		}
	}
	return s.cache.GetWith(ctx, restoreKey(fp, p.Partition), a, func(ctx context.Context, a *pastix.Matrix) (*pastix.Analysis, error) {
		return pastix.AnalyzeForRestore(ctx, a, s.cfg.Solver, p)
	})
}

// restoreKey is the cache key of an analysis rebuilt on a recorded
// partition: the fingerprint plus a hash of the boundaries, or "legacy" for
// a payload that records none. A hash collision cannot restore a factor on
// the wrong blocks, because RestoreFactor compares the partitions.
func restoreKey(fp string, bounds []int) string {
	if bounds == nil {
		return fp + "/legacy"
	}
	h := fnv.New64a()
	var b [4]byte
	for _, x := range bounds {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%s/%016x", fp, h.Sum64())
}

// restoreFactorRecord rebuilds one live handle from its journal record. The
// analysis is recomputed from the journaled matrix on the payload's
// partition (restoreAnalysis), the factor payload is adopted verbatim, and
// the solve path is prewarmed exactly as the original factorize did.
func (s *Server) restoreFactorRecord(fr *store.FactorRecord) error {
	a := fr.Matrix
	if fp := pastix.PatternFingerprint(a); fp != fr.Fingerprint {
		return fmt.Errorf("journaled fingerprint %q does not match matrix (%q)", fr.Fingerprint, fp)
	}
	an, _, err := s.restoreAnalysis(s.baseCtx, fr.Fingerprint, a, fr.Payload)
	if err != nil {
		return err
	}
	f, err := an.RestoreFactor(a, fr.Payload)
	if err != nil {
		return err
	}
	if _, err := an.PrepareSolve(f); err != nil {
		return err
	}
	e := &factorEntry{fingerprint: fr.Fingerprint, n: a.N, an: an, f: f, src: a, idemKey: fr.IdemKey, durable: true}
	e.batch = newBatcher(s.cfg.MaxBatch, func(reqs []*solveReq) { s.runBatch(e, reqs) })
	if err := s.store.PutRestored(e, fr.Handle); err != nil {
		return err
	}
	if fr.IdemKey != "" && len(fr.Response) > 0 {
		var resp factorizeResponse
		if json.Unmarshal(fr.Response, &resp) == nil {
			s.idem.put(fr.IdemKey, fr.Handle, resp)
		}
	}
	return nil
}

// journalFactor persists one acknowledged factorization. Called between
// store.Put and the response write: an append error un-puts the handle and
// fails the request, so "durable": true is never a lie.
func (s *Server) journalFactor(handle, fingerprint, idemKey string, a *pastix.Matrix, f *pastix.Factor, respJSON []byte) error {
	p, err := f.ExportPayload()
	if err != nil {
		return err
	}
	return s.journal.AppendFactor(&store.FactorRecord{
		Handle:      handle,
		Fingerprint: fingerprint,
		IdemKey:     idemKey,
		Matrix:      a,
		Payload:     p,
		Response:    respJSON,
	})
}

// --- backend-to-backend transfer: /v1/replicate, /v1/stat ---

// statRequest/statResponse are the /v1/stat bodies: the gateway's
// anti-entropy repair asks a backend whether it still holds a handle before
// deciding the replica is lost.
type statRequest struct {
	Handle string `json:"handle"`
}

type statResponse struct {
	Handle      string `json:"handle"`
	Fingerprint string `json:"fingerprint"`
	N           int    `json:"n"`
	Durable     bool   `json:"durable"`
	Compressed  bool   `json:"compressed"`
}

func (s *Server) handleStat(w http.ResponseWriter, r *http.Request) {
	if err := s.durabilityGate(); err != nil {
		s.writeErr(w, err)
		return
	}
	var req statRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	e, err := s.store.Get(req.Handle)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, statResponse{
		Handle:      e.handle,
		Fingerprint: e.fingerprint,
		N:           e.n,
		Durable:     e.durable,
		Compressed:  e.f.Compressed(),
	})
}

// replicateRequest asks for a factor export (JSON side of /v1/replicate).
type replicateRequest struct {
	Handle string `json:"handle"`
}

// handleReplicate is the transfer endpoint, dispatched on content type:
//
//   - application/json {"handle": ...} exports the factor behind handle as a
//     single CRC-sealed binary record (matrix values + factor payload) with
//     content type application/octet-stream — unless the node is configured
//     with NoFactorExport, which refuses with 403/"export_refused" and pushes
//     the gateway to its re-factorize fallback;
//   - application/octet-stream imports such a record: the matrix is
//     re-analyzed on the payload's partition (cache-warmed), the payload
//     adopted verbatim, the solve path prewarmed, a fresh local handle
//     issued and journaled. Solves against the imported handle are
//     bitwise-identical to the source node's.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream") {
		s.handleReplicateImport(w, r)
		return
	}
	s.handleReplicateExport(w, r)
}

func (s *Server) handleReplicateExport(w http.ResponseWriter, r *http.Request) {
	if err := s.durabilityGate(); err != nil {
		s.writeErr(w, err)
		return
	}
	var req replicateRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if s.cfg.NoFactorExport {
		s.metrics.RequestErrors.Inc()
		s.writeJSON(w, http.StatusForbidden, errorResponse{
			Error: "factor export refused by configuration",
			Code:  "export_refused",
		})
		return
	}
	e, err := s.store.Get(req.Handle)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if e.src == nil {
		s.writeErr(w, fmt.Errorf("%w: %q has no source matrix recorded", ErrUnknownHandle, req.Handle))
		return
	}
	p, err := e.f.ExportPayload()
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.metrics.ReplicateExports.Inc()
	b := store.MarshalFactorRecord(&store.FactorRecord{
		Handle:      e.handle,
		Fingerprint: e.fingerprint,
		IdemKey:     e.idemKey,
		Matrix:      e.src,
		Payload:     p,
	})
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Server) handleReplicateImport(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
				Error: fmt.Sprintf("transfer exceeds %d bytes", mbe.Limit),
				Code:  "body_too_large",
			})
		} else {
			s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "reading transfer: " + err.Error()})
		}
		s.metrics.RequestErrors.Inc()
		return
	}
	rec, err := store.UnmarshalFactorRecord(body)
	if err != nil {
		s.metrics.RequestErrors.Inc()
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "transfer record: " + err.Error(), Code: "bad_transfer"})
		return
	}
	a := rec.Matrix
	if fp := pastix.PatternFingerprint(a); fp != rec.Fingerprint {
		s.metrics.RequestErrors.Inc()
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "transfer fingerprint does not match matrix", Code: "bad_transfer"})
		return
	}
	// An import retried by the repair loop must not mint a second copy: the
	// transfer's idempotency key (the gateway derives one from the source
	// replica) replays the first import's response.
	idemKey := rec.IdemKey
	if idemKey == "" {
		idemKey = "replicate-" + rec.Fingerprint + "-" + rec.Handle
	}
	prev, replay, err := s.idem.claim(r.Context(), idemKey)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if replay {
		prev.IdempotentReplay = true
		s.writeJSON(w, http.StatusOK, prev)
		return
	}
	defer s.idem.unclaim(idemKey)
	ctx, cancel := s.reqContext(r, 0)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	defer release()
	t0 := time.Now()
	an, hit, err := s.restoreAnalysis(ctx, rec.Fingerprint, a, rec.Payload)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	f, err := an.RestoreFactor(a, rec.Payload)
	if err != nil {
		s.metrics.RequestErrors.Inc()
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "restoring transfer: " + err.Error(), Code: "bad_transfer"})
		return
	}
	plan, err := an.PrepareSolve(f)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	e := &factorEntry{fingerprint: rec.Fingerprint, n: a.N, an: an, f: f, src: a, idemKey: idemKey}
	e.batch = newBatcher(s.cfg.MaxBatch, func(reqs []*solveReq) { s.runBatch(e, reqs) })
	handle, err := s.store.Put(e)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	resp := factorizeResponse{
		Handle:         handle,
		Fingerprint:    rec.Fingerprint,
		AnalysisCached: hit,
		FactorizeMS:    float64(time.Since(t0)) / float64(time.Millisecond),
		SolvePlan:      &plan,
		Imported:       true,
		Compression:    f.CompressionStats(),
	}
	if rep := f.Perturbations(); rep != nil && len(rep.Perturbed) > 0 {
		resp.PerturbedColumns = rep.Columns()
		resp.PivotEpsilon = rep.Epsilon
		resp.PivotGrowth = rep.PivotGrowth
	}
	if s.journal != nil {
		respJSON, _ := json.Marshal(resp)
		if err := s.journalFactor(handle, rec.Fingerprint, idemKey, a, f, respJSON); err != nil {
			_ = s.store.Release(handle)
			s.writeErr(w, err)
			return
		}
		e.durable = true
		resp.Durable = true
	}
	s.metrics.ReplicateImports.Inc()
	s.idem.put(idemKey, handle, resp)
	s.writeJSON(w, http.StatusOK, resp)
}

// durabilityGate refuses requests while the journal replay is running or has
// failed. Admission (admitQueue) applies the same gate; this covers the
// endpoints that bypass admission.
func (s *Server) durabilityGate() error {
	if s.recovering.Load() {
		return errRecovering
	}
	if msg := s.recoveryErr.Load(); msg != nil {
		return fmt.Errorf("%w: %s", errRecoveryFailed, *msg)
	}
	return nil
}
