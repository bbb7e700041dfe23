package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// state reads the batcher's queue under its lock.
func (t *batcher) state() (pending int, inFlight bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending), t.inFlight
}

// waitParked blocks until b has a partial batch in flight with exactly
// pending requests queued behind it, or returns an error after 10 s so the
// caller can release what it holds before failing.
func waitParked(b *batcher, pending int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		p, busy := b.state()
		if busy && p == pending {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("want %d riders parked behind an in-flight batch, have pending %d, in flight %v", pending, p, busy)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldBatch is one call of a blocking run func: the batch it was handed and
// the channel whose closing lets the call return.
type heldBatch struct {
	reqs    []*solveReq
	release chan struct{}
}

// blockingBatcher returns a batcher whose run func reports each batch on
// calls, blocks until the test closes the batch's release channel, then
// answers every rider with the batch size.
func blockingBatcher(maxBatch int) (b *batcher, calls chan heldBatch) {
	calls = make(chan heldBatch)
	b = newBatcher(maxBatch, func(reqs []*solveReq) {
		h := heldBatch{reqs: reqs, release: make(chan struct{})}
		calls <- h
		<-h.release
		for _, r := range reqs {
			r.res <- solveRes{solveResponse: solveResponse{Batched: len(reqs)}}
		}
	})
	return b, calls
}

// nextBatch waits for the next dispatched batch.
func nextBatch(t *testing.T, calls chan heldBatch) heldBatch {
	t.Helper()
	select {
	case h := <-calls:
		return h
	case <-time.After(10 * time.Second):
		t.Fatal("no batch dispatched")
		return heldBatch{}
	}
}

// submitN submits n requests and returns them with their result channels.
func submitN(b *batcher, n int) ([]*solveReq, []<-chan solveRes) {
	reqs := make([]*solveReq, n)
	chs := make([]<-chan solveRes, n)
	for i := range reqs {
		reqs[i] = &solveReq{}
		chs[i] = b.submit(reqs[i])
	}
	return reqs, chs
}

// wantBatched checks that every rider was answered from a batch of size.
func wantBatched(t *testing.T, chs []<-chan solveRes, size int) {
	t.Helper()
	for i, ch := range chs {
		if res := <-ch; res.Batched != size {
			t.Fatalf("rider %d rode a batch of %d, want %d", i, res.Batched, size)
		}
	}
}

// A request against an idle handle runs at once, alone: no other request
// arrives and no timer exists to flush it.
func TestBatcherLoneRequestRunsAtOnce(t *testing.T) {
	b, calls := blockingBatcher(8)
	_, chs := submitN(b, 1)
	h := nextBatch(t, calls)
	if len(h.reqs) != 1 {
		t.Fatalf("lone request dispatched in a batch of %d", len(h.reqs))
	}
	close(h.release)
	wantBatched(t, chs, 1)
}

// Requests arriving while a batch runs wait for it, then run together as
// exactly one next batch.
func TestBatcherCoalescesBehindRunningBatch(t *testing.T) {
	b, calls := blockingBatcher(8)
	_, first := submitN(b, 1)
	h0 := nextBatch(t, calls)
	riders, chs := submitN(b, 3)
	if p, busy := b.state(); p != len(riders) || !busy {
		t.Fatalf("behind a running batch: pending %d, in flight %v; want %d, true", p, busy, len(riders))
	}
	close(h0.release)
	wantBatched(t, first, 1)
	h1 := nextBatch(t, calls)
	if len(h1.reqs) != len(riders) {
		t.Fatalf("next batch holds %d requests, want the %d riders", len(h1.reqs), len(riders))
	}
	for i, r := range riders {
		if h1.reqs[i] != r {
			t.Fatalf("next batch slot %d is not rider %d", i, i)
		}
	}
	close(h1.release)
	wantBatched(t, chs, len(riders))
	// Nothing was left behind: the next request runs alone again.
	_, last := submitN(b, 1)
	h2 := nextBatch(t, calls)
	if len(h2.reqs) != 1 {
		t.Fatalf("request after the drained batches dispatched in a batch of %d", len(h2.reqs))
	}
	close(h2.release)
	wantBatched(t, last, 1)
}

// A queue that reaches MaxBatch dispatches at once, while the partial batch
// ahead of it is still running.
func TestBatcherFullBatchDispatchesConcurrently(t *testing.T) {
	b, calls := blockingBatcher(3)
	_, first := submitN(b, 1)
	h0 := nextBatch(t, calls)
	_, chs := submitN(b, 3)
	h1 := nextBatch(t, calls) // h0 still holds its batch
	if len(h1.reqs) != 3 {
		t.Fatalf("full batch of %d, want 3", len(h1.reqs))
	}
	if p, busy := b.state(); p != 0 || !busy {
		t.Fatalf("after the full dispatch: pending %d, in flight %v; want 0, true", p, busy)
	}
	close(h1.release)
	wantBatched(t, chs, 3)
	close(h0.release)
	wantBatched(t, first, 1)
}

// Under concurrent load a handle never runs two partial batches at once,
// and every request is answered.
func TestBatcherAtMostOnePartialBatch(t *testing.T) {
	const maxBatch, submitters, perSubmitter = 4, 8, 25
	var running, overlaps, answered atomic.Int64
	b := newBatcher(maxBatch, func(reqs []*solveReq) {
		if len(reqs) < maxBatch {
			if running.Add(1) > 1 {
				overlaps.Add(1)
			}
			time.Sleep(50 * time.Microsecond)
			running.Add(-1)
		}
		for _, r := range reqs {
			r.res <- solveRes{solveResponse: solveResponse{Batched: len(reqs)}}
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				if res := <-b.submit(&solveReq{}); res.Batched < 1 || res.Batched > maxBatch {
					t.Errorf("batch of %d, want 1..%d", res.Batched, maxBatch)
				}
				answered.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n > 0 {
		t.Fatalf("%d partial batches started while another was in flight", n)
	}
	if n := answered.Load(); n != submitters*perSubmitter {
		t.Fatalf("%d answers, want %d", n, submitters*perSubmitter)
	}
}
