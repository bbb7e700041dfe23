package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

func testMatrix() *pastix.Matrix { return gen.Laplacian3D(4, 4, 4) }

// realAnalyze is the production analysis pass on a small problem, with an
// invocation counter.
func realAnalyze(count *atomic.Int64, delay time.Duration) func(context.Context, *pastix.Matrix) (*pastix.Analysis, error) {
	return func(ctx context.Context, a *pastix.Matrix) (*pastix.Analysis, error) {
		count.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		return pastix.AnalyzeContext(ctx, a, pastix.Options{Processors: 2})
	}
}

// N concurrent requests for one pattern must trigger exactly one analysis
// (single-flight); everyone gets the same *Analysis. Run under -race.
func TestCacheSingleFlight(t *testing.T) {
	var count atomic.Int64
	m := NewMetrics()
	c := newAnalysisCache(8, m, realAnalyze(&count, 20*time.Millisecond))
	a := testMatrix()
	const N = 24
	results := make([]*pastix.Analysis, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			an, _, err := c.Get(context.Background(), "fp", a)
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			results[i] = an
		}(i)
	}
	wg.Wait()
	if got := count.Load(); got != 1 {
		t.Fatalf("analysis ran %d times, want exactly 1 (single-flight)", got)
	}
	for i := 1; i < N; i++ {
		if results[i] != results[0] {
			t.Fatalf("request %d got a different analysis object", i)
		}
	}
	if m.CacheMisses.Value() != 1 {
		t.Fatalf("misses %d, want 1", m.CacheMisses.Value())
	}
	if hits := m.CacheHits.Value() + m.CacheCoalesced.Value(); hits < N-1 {
		t.Fatalf("hits+coalesced %d, want ≥ %d", hits, N-1)
	}
}

// The LRU must evict in least-recently-used order, with Get refreshing
// recency.
func TestCacheLRUEvictionOrder(t *testing.T) {
	var count atomic.Int64
	m := NewMetrics()
	c := newAnalysisCache(2, m, realAnalyze(&count, 0))
	a := testMatrix()
	ctx := context.Background()
	for _, k := range []string{"a", "b"} {
		if _, _, err := c.Get(ctx, k, a); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is now least recently used.
	if _, hit, err := c.Get(ctx, "a", a); err != nil || !hit {
		t.Fatalf("expected hit on a: hit=%v err=%v", hit, err)
	}
	if _, _, err := c.Get(ctx, "c", a); err != nil {
		t.Fatal(err)
	}
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != "c" || keys[1] != "a" {
		t.Fatalf("resident keys %v, want [c a] (b evicted as LRU)", keys)
	}
	if m.CacheEvictions.Value() != 1 {
		t.Fatalf("evictions %d, want 1", m.CacheEvictions.Value())
	}
	// "b" was evicted: next Get re-analyses.
	before := count.Load()
	if _, hit, err := c.Get(ctx, "b", a); err != nil || hit {
		t.Fatalf("expected miss on evicted b: hit=%v err=%v", hit, err)
	}
	if count.Load() != before+1 {
		t.Fatal("evicted entry did not trigger re-analysis")
	}
}

// A leader whose own request context is cancelled mid-analysis must not
// poison the waiting followers: one of them re-leads and everyone else still
// gets a good analysis.
func TestCacheCancelledLeaderDoesNotPoisonFollowers(t *testing.T) {
	var calls atomic.Int64
	leaderIn := make(chan struct{})
	m := NewMetrics()
	c := newAnalysisCache(8, m, func(ctx context.Context, a *pastix.Matrix) (*pastix.Analysis, error) {
		if calls.Add(1) == 1 {
			close(leaderIn)
			<-ctx.Done() // the doomed leader blocks until its request dies
			return nil, ctx.Err()
		}
		return pastix.AnalyzeContext(ctx, a, pastix.Options{Processors: 2})
	})
	a := testMatrix()

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Get(leaderCtx, "fp", a)
		leaderErr <- err
	}()
	<-leaderIn // leader is inside the analysis

	const N = 8
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			an, _, err := c.Get(context.Background(), "fp", a)
			if err != nil {
				t.Errorf("follower %d poisoned: %v", i, err)
			} else if an == nil {
				t.Errorf("follower %d got nil analysis", i)
			}
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let the followers coalesce onto the flight
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error %v, want context.Canceled", err)
	}
	wg.Wait()
	// The cancelled flight plus exactly one successful re-led analysis.
	if got := calls.Load(); got != 2 {
		t.Fatalf("analysis attempts %d, want 2 (cancelled leader + one new leader)", got)
	}
	// And the pattern is now resident.
	if _, hit, err := c.Get(context.Background(), "fp", a); err != nil || !hit {
		t.Fatalf("expected resident entry after recovery: hit=%v err=%v", hit, err)
	}
}

// A genuine analysis failure (not a cancellation) must propagate to the
// waiters and must not be cached.
func TestCacheRealErrorNotCached(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	m := NewMetrics()
	c := newAnalysisCache(8, m, func(ctx context.Context, a *pastix.Matrix) (*pastix.Analysis, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return pastix.AnalyzeContext(ctx, a, pastix.Options{Processors: 1})
	})
	a := testMatrix()
	if _, _, err := c.Get(context.Background(), "fp", a); !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed analysis was cached")
	}
	if _, hit, err := c.Get(context.Background(), "fp", a); err != nil || hit {
		t.Fatalf("retry after failure: hit=%v err=%v", hit, err)
	}
}

// Keys returns the resident fingerprints, most recently used first.
func (c *analysisCache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.order.Len())
	for e := c.order.Front(); e != nil; e = e.Next() {
		keys = append(keys, e.Value.(*cacheEntry).key)
	}
	return keys
}
