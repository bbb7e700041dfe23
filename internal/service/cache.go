package service

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"github.com/pastix-go/pastix"
)

// analysisCache is the LRU of analyses with single-flight deduplication:
// concurrent Get calls for one key run exactly one analysis (the leader);
// the others (followers) block on its result and count as coalesced. A leader that fails because its own request context
// was cancelled does not poison the followers — the entry is abandoned and
// one follower promotes itself to leader under its own context. Genuine
// analysis errors (e.g. an invalid matrix) propagate to every waiter and are
// not cached. Fresh analyses are keyed by pattern fingerprint; an analysis
// rebuilt to restore a persisted factor on its recorded partition is keyed
// by fingerprint plus partition (restoreKey), so the two never mix.
type analysisCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	order   *list.List // completed entries, most recently used at the front

	// analyze runs the uncached analysis pass (injected for tests).
	analyze func(ctx context.Context, a *pastix.Matrix) (*pastix.Analysis, error)

	m *Metrics
}

type cacheEntry struct {
	key  string
	elem *list.Element // nil while in flight

	done      chan struct{} // closed when the flight finishes
	an        *pastix.Analysis
	err       error
	abandoned bool // leader's own ctx was cancelled; waiters must re-lead
}

func newAnalysisCache(cap int, m *Metrics,
	analyze func(ctx context.Context, a *pastix.Matrix) (*pastix.Analysis, error)) *analysisCache {
	return &analysisCache{
		cap:     cap,
		entries: make(map[string]*cacheEntry),
		order:   list.New(),
		analyze: analyze,
		m:       m,
	}
}

// Get returns the analysis for the fingerprint key, computing it from a at
// most once across concurrent callers. hit reports whether the result came
// from the cache (or a coalesced in-flight analysis) rather than a fresh
// pass led by this caller.
func (c *analysisCache) Get(ctx context.Context, key string, a *pastix.Matrix) (an *pastix.Analysis, hit bool, err error) {
	return c.GetWith(ctx, key, a, c.analyze)
}

// GetWith is Get with the analysis pass a leader runs on a miss; a key must
// always be paired with the same pass.
func (c *analysisCache) GetWith(ctx context.Context, key string, a *pastix.Matrix,
	analyze func(ctx context.Context, a *pastix.Matrix) (*pastix.Analysis, error)) (an *pastix.Analysis, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			select {
			case <-e.done: // completed entry: a cache hit
				c.order.MoveToFront(e.elem)
				c.m.CacheHits.Inc()
				c.mu.Unlock()
				return e.an, true, nil
			default: // in flight: wait for the leader
				c.m.CacheCoalesced.Inc()
				c.mu.Unlock()
				select {
				case <-e.done:
					if e.abandoned {
						continue // leader cancelled; try to become the new leader
					}
					if e.err != nil {
						return nil, false, e.err
					}
					return e.an, true, nil
				case <-ctx.Done():
					return nil, false, ctx.Err()
				}
			}
		}
		// Become the leader.
		e := &cacheEntry{key: key, done: make(chan struct{})}
		c.entries[key] = e
		c.m.CacheMisses.Inc()
		c.mu.Unlock()

		e.an, e.err = analyze(ctx, a)

		c.mu.Lock()
		if e.err != nil {
			// The entry never becomes resident. Cancellation of the leader's
			// own context is not an analysis verdict: mark the flight abandoned
			// so followers retry instead of inheriting the error.
			e.abandoned = ctx.Err() != nil && errors.Is(e.err, ctx.Err())
			delete(c.entries, key)
			close(e.done)
			c.mu.Unlock()
			return nil, false, e.err
		}
		e.elem = c.order.PushFront(e)
		close(e.done)
		for c.order.Len() > c.cap {
			lru := c.order.Back()
			c.order.Remove(lru)
			delete(c.entries, lru.Value.(*cacheEntry).key)
			c.m.CacheEvictions.Inc()
		}
		c.mu.Unlock()
		return e.an, false, nil
	}
}

// Len returns the number of resident (completed) entries.
func (c *analysisCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
