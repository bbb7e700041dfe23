package service

import (
	"context"
	"sync"
	"time"
)

// idemStore remembers the responses of the last max successful factorize
// requests by client idempotency key, FIFO-evicted and TTL-expired. A retry
// carrying a remembered key replays the stored response instead of running a
// second factorization — the property that makes a gateway's
// retry-after-timeout of a factorize that actually committed safe
// (exactly-once handles over an at-least-once transport, the same shape as
// mpsim's receiver dedup).
//
// The store is bounded two ways: max entries (FIFO eviction — the retries
// that matter arrive promptly, so oldest-first is the right victim) and a
// TTL, so a long-idle server does not pin responses forever. Expiry is lazy:
// checked on get and swept from the FIFO head on put, which keeps both
// operations O(1) amortized with no background goroutine.
//
// Concurrent duplicates are single-flight (claim/unclaim): while one request
// with a key is running, others with the same key wait for it and then
// replay its response. A gateway retrying a stalled node, or a repair racing
// a client's retry, therefore never commits two factors for one key.
type idemStore struct {
	mu       sync.Mutex
	max      int
	ttl      time.Duration
	now      func() time.Time // injectable for tests
	m        map[string]idemEntry
	byHandle map[string]string        // handle → key, for release-time invalidation
	order    []string                 // insertion order, oldest first
	inflight map[string]chan struct{} // claimed keys; closed on unclaim
}

type idemEntry struct {
	resp    factorizeResponse
	expires time.Time
}

func newIdemStore(max int, ttl time.Duration) *idemStore {
	return &idemStore{
		max:      max,
		ttl:      ttl,
		now:      time.Now,
		m:        make(map[string]idemEntry),
		byHandle: make(map[string]string),
		inflight: make(map[string]chan struct{}),
	}
}

// claim returns the remembered response for key (replay true) when there is
// one. Otherwise it makes the caller the key's only in-flight request,
// first waiting for any request that holds the key, and the caller must
// unclaim the key after it has stored its response or failed. It returns
// ctx.Err() if ctx ends while waiting.
func (s *idemStore) claim(ctx context.Context, key string) (resp factorizeResponse, replay bool, err error) {
	for {
		s.mu.Lock()
		if prev, ok := s.getLocked(key); ok {
			s.mu.Unlock()
			return prev, true, nil
		}
		busy, held := s.inflight[key]
		if !held {
			s.inflight[key] = make(chan struct{})
			s.mu.Unlock()
			return factorizeResponse{}, false, nil
		}
		s.mu.Unlock()
		select {
		case <-busy:
		case <-ctx.Done():
			return factorizeResponse{}, false, ctx.Err()
		}
	}
}

// unclaim ends the caller's claim on key and wakes the requests waiting on it.
func (s *idemStore) unclaim(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if busy, held := s.inflight[key]; held {
		close(busy)
		delete(s.inflight, key)
	}
}

func (s *idemStore) getLocked(key string) (factorizeResponse, bool) {
	e, ok := s.m[key]
	if !ok {
		return factorizeResponse{}, false
	}
	if s.ttl > 0 && s.now().After(e.expires) {
		s.dropKeyLocked(key, e)
		return factorizeResponse{}, false
	}
	return e.resp, true
}

// put remembers resp under key, evicting expired entries and then the oldest
// beyond the size bound.
func (s *idemStore) put(key, handle string, resp factorizeResponse) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[key]; !exists {
		s.order = append(s.order, key)
	}
	var expires time.Time
	if s.ttl > 0 {
		expires = s.now().Add(s.ttl)
	}
	s.m[key] = idemEntry{resp: resp, expires: expires}
	s.byHandle[handle] = key
	// Sweep expired entries from the FIFO head: insertion order is also
	// expiry order (constant TTL), so the scan stops at the first live one.
	if s.ttl > 0 {
		now := s.now()
		for len(s.order) > 0 {
			old := s.order[0]
			e, ok := s.m[old]
			if ok && !now.After(e.expires) {
				break
			}
			s.order = s.order[1:]
			if ok {
				s.dropKeyLocked(old, e)
			}
		}
	}
	for len(s.order) > s.max {
		old := s.order[0]
		s.order = s.order[1:]
		if e, ok := s.m[old]; ok {
			s.dropKeyLocked(old, e)
		}
	}
}

// dropKeyLocked removes key and its handle index entry (not the FIFO order
// slot; callers that pop from order handle that themselves, and get-path
// expiry leaves a dead order slot that put's sweep collects).
func (s *idemStore) dropKeyLocked(key string, e idemEntry) {
	delete(s.m, key)
	if s.byHandle[e.resp.Handle] == key {
		delete(s.byHandle, e.resp.Handle)
	}
}

// dropHandle forgets the entry that issued handle (called on release, so a
// replayed key can never resurrect a dead handle).
func (s *idemStore) dropHandle(handle string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key, ok := s.byHandle[handle]
	if !ok {
		return
	}
	delete(s.byHandle, handle)
	delete(s.m, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}
