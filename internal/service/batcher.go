package service

import (
	"context"
	"sync"

	"github.com/pastix-go/pastix"
)

// batcher coalesces concurrent solve requests against one factor into
// blocked multi-RHS panel solves with work-conserving ("group commit")
// dispatch: a request arriving while no partial batch is in flight starts at
// once as a batch of one; requests arriving while a batch runs gather in
// pending and, the moment that batch returns, run together as the next
// panel. A pending batch that reaches maxBatch right-hand sides dispatches
// immediately, concurrently with the running one. No request waits on an
// idle handle: the batch size follows the load, growing exactly while the
// previous panel is busy. The panel runs once through SolveOpts, whose
// level-set engine makes every panel column bit-identical to a sequential
// single-RHS solve of it, so riding a batch never changes a client's answer —
// it only amortizes the solve's synchronization latency and gives the packed
// kernels BLAS-3 shape.
type batcher struct {
	maxBatch int

	// run executes one batch: solve the n×len(reqs) panel assembled from the
	// requests and deliver each column (or the error) to its waiter.
	run func(reqs []*solveReq)

	mu      sync.Mutex
	pending []*solveReq
	// inFlight is set while a partial batch runs; at most one does per
	// handle. Full batches run outside it.
	inFlight bool
}

// solveReq is one client solve: a right-hand side riding a coalesced batch,
// or, with opts set, a request carrying its own SolveOptions that runBatch
// runs alone (a panel or a pinned engine is never coalesced with strangers).
type solveReq struct {
	ctx  context.Context
	b    []float64
	opts *pastix.SolveOptions
	res  chan solveRes
}

// solveRes is one rider's share of a runBatch result: its reply, less the
// timing and panel width the handler fills in, or the error.
type solveRes struct {
	solveResponse
	err error
}

func newBatcher(maxBatch int, run func([]*solveReq)) *batcher {
	return &batcher{maxBatch: maxBatch, run: run}
}

// submit queues req and returns its result channel. The channel receives
// exactly one solveRes once the batch the request rode in has executed.
func (t *batcher) submit(req *solveReq) <-chan solveRes {
	req.res = make(chan solveRes, 1)
	t.mu.Lock()
	t.pending = append(t.pending, req)
	switch {
	case len(t.pending) >= t.maxBatch:
		// Full: dispatch now, alongside the partial batch in flight.
		batch := t.pending
		t.pending = nil
		t.mu.Unlock()
		go t.run(batch)
	case !t.inFlight:
		// Idle handle: start at once as the in-flight partial batch.
		batch := t.pending
		t.pending = nil
		t.inFlight = true
		t.mu.Unlock()
		go t.drain(batch)
	default:
		// A partial batch is running: ride the next one.
		t.mu.Unlock()
	}
	return req.res
}

// drain runs the in-flight partial batch, then whatever gathered in pending
// meanwhile as the next panel, until a batch returns to an empty pending.
func (t *batcher) drain(batch []*solveReq) {
	for len(batch) > 0 {
		t.run(batch)
		t.mu.Lock()
		batch = t.pending
		t.pending = nil
		t.inFlight = len(batch) > 0
		t.mu.Unlock()
	}
}
