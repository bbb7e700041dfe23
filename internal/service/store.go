package service

import (
	"errors"
	"fmt"
	"sync"

	"github.com/pastix-go/pastix"
)

// Errors of the factor handle store.
var (
	// ErrUnknownHandle reports a solve or release against a handle that was
	// never issued or has been released.
	ErrUnknownHandle = errors.New("service: unknown factor handle")
	// ErrStoreFull reports that MaxFactors live handles exist; release one
	// before factorizing again.
	ErrStoreFull = errors.New("service: factor store full")
)

// factorEntry is one live factorization a client can solve against.
type factorEntry struct {
	handle      string
	fingerprint string
	n           int
	an          *pastix.Analysis
	f           *pastix.Factor
	batch       *batcher
	// bytes is the resident factor-value storage of f (compressed size when
	// the factor is BLR-compressed); denseBytes is what the same factor costs
	// in dense form (equal to bytes for an uncompressed factor). Both are
	// frozen at Put, when the factor's storage form is final.
	bytes      int64
	denseBytes int64
	// src is the matrix the factor was computed from. It is what makes the
	// handle transferable: /v1/replicate ships (matrix, payload) so the
	// receiver can rebuild the analysis and bind refinement to the same
	// values, and the re-factorize fallback recomputes from it bitwise.
	src *pastix.Matrix
	// idemKey is the idempotency key the factorize committed under ("" if
	// none). It travels with a /v1/replicate export so the receiving node can
	// replay a retried factorize carrying the original key instead of
	// double-applying it.
	idemKey string
	// durable marks a handle whose factorize was journaled (or replayed from
	// the journal) — it survives a restart of this node.
	durable bool
}

// factorStore issues and resolves factor handles. Handles are opaque
// strings; each carries its own multi-RHS batcher.
type factorStore struct {
	mu  sync.Mutex
	max int
	seq uint64
	m   map[string]*factorEntry
}

func newFactorStore(max int) *factorStore {
	return &factorStore{max: max, m: make(map[string]*factorEntry)}
}

// Put makes e live under a fresh handle, or under restored when replaying
// a journal record, and freezes its byte accounting. A restored handle
// advances the sequence counter past it so fresh handles never collide with
// recovered ones, and is exempt from the MaxFactors bound: every recovered
// handle was acknowledged durable in a past life, and refusing to recover
// it would silently lose accepted work just because the bound was lowered
// between runs.
func (s *factorStore) Put(e *factorEntry, restored string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if restored == "" {
		if len(s.m) >= s.max {
			return fmt.Errorf("%w: %d live handles", ErrStoreFull, len(s.m))
		}
		s.seq++
		e.handle = fmt.Sprintf("f-%06d-%.8s", s.seq, e.fingerprint)
	} else {
		if _, exists := s.m[restored]; exists {
			return fmt.Errorf("service: restored handle %q already live", restored)
		}
		var seq uint64
		if _, err := fmt.Sscanf(restored, "f-%06d-", &seq); err != nil {
			return fmt.Errorf("service: restored handle %q is malformed: %w", restored, err)
		}
		s.seq = max(s.seq, seq)
		e.handle = restored
	}
	if e.f != nil {
		e.bytes = e.f.MemoryBytes()
		e.denseBytes = e.bytes
		if st := e.f.CompressionStats(); st != nil {
			e.denseBytes = st.DenseBytes
		}
	}
	s.m[e.handle] = e
	return nil
}

// Get resolves a handle.
func (s *factorStore) Get(handle string) (*factorEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[handle]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHandle, handle)
	}
	return e, nil
}

// Release frees a handle.
func (s *factorStore) Release(handle string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[handle]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHandle, handle)
	}
	delete(s.m, handle)
	return nil
}

// Len returns the number of live handles.
func (s *factorStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Stats samples the store for the metrics endpoint: live handle count, total
// resident factor-value bytes, and what those factors would cost dense (the
// two differ only when BLR-compressed factors are resident).
func (s *factorStore) Stats() (live int, resident, dense int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.m {
		resident += e.bytes
		dense += e.denseBytes
	}
	return len(s.m), resident, dense
}
