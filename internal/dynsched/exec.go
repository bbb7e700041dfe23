package dynsched

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/pastix-go/pastix/internal/sched"
)

// ExecFunc runs one task on one worker. The worker index is stable for the
// goroutine that calls it (0 ≤ worker < Workers), so implementations may use
// it for per-worker scratch or trace attribution. Returning an error aborts
// the run: no further tasks start, and the first error is reported.
type ExecFunc func(worker, task int) error

// Stats reports what one Run actually did — the observables the steal-storm
// tests assert on.
type Stats struct {
	Executed int64 // tasks run (== NTasks on success)
	Steals   int64 // tasks obtained from another worker's deque
	Parks    int64 // times a worker slept for lack of work
}

// runner is the state of one Run: the activation counters, the per-worker
// deques, and the parking lot idle workers sleep in.
type runner struct {
	dag       *sched.DAG
	exec      ExecFunc
	remaining []atomic.Int32 // in-degree countdown; task ready at zero
	deques    []*deque
	pending   atomic.Int64 // tasks not yet completed; 0 = run finished
	steals    atomic.Int64
	parks     atomic.Int64

	// Parking: a worker that finds every deque empty sleeps on cond until a
	// completion pushes new ready tasks (or the run ends). wakeSeq is bumped
	// under mu before every broadcast; a would-be sleeper re-checks the
	// deques after reading it and sleeps only if it is unchanged, so a wakeup
	// between the check and the sleep cannot be missed.
	mu      sync.Mutex
	cond    *sync.Cond
	wakeSeq uint64

	aborted  atomic.Bool
	abortMu  sync.Mutex
	abortErr error
}

// Run executes every task of d exactly once on `workers` goroutines,
// respecting the dependency edges: a task becomes ready when its last
// incoming edge is satisfied, is pushed to the completing worker's deque
// (batch sorted so the highest d.Priority is popped first), and idle workers
// steal from the tail of their peers' deques. Cancelling ctx aborts between
// tasks. The caller must pass a validated DAG (NewDAG or Schedule.DAG); a
// cyclic graph would deadlock, which Validate exists to exclude.
func Run(ctx context.Context, d *sched.DAG, workers int, exec ExecFunc) (Stats, error) {
	n := d.NTasks()
	if workers < 1 {
		return Stats{}, fmt.Errorf("dynsched: %d workers", workers)
	}
	if n == 0 {
		return Stats{}, nil
	}
	r := &runner{
		dag:       d,
		exec:      exec,
		remaining: make([]atomic.Int32, n),
		deques:    make([]*deque, workers),
	}
	r.cond = sync.NewCond(&r.mu)
	r.pending.Store(int64(n))
	for w := range r.deques {
		r.deques[w] = newDeque(n)
	}
	var roots []int32
	for i, deg := range d.InDegrees() {
		r.remaining[i].Store(deg)
		if deg == 0 {
			roots = append(roots, int32(i))
		}
	}
	if len(roots) == 0 {
		return Stats{}, fmt.Errorf("dynsched: no root tasks (cyclic graph?)")
	}
	// Seed round-robin, best roots last so each worker pops its best first.
	r.sortByPriority(roots)
	for i := len(roots) - 1; i >= 0; i-- {
		r.deques[i%workers].push(roots[i])
	}

	watchDone := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				r.abort(ctx.Err())
			case <-watchDone:
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.work(w)
		}(w)
	}
	wg.Wait()
	close(watchDone)

	st := Stats{Executed: int64(n) - r.pending.Load(), Steals: r.steals.Load(), Parks: r.parks.Load()}
	r.abortMu.Lock()
	err := r.abortErr
	r.abortMu.Unlock()
	if err == nil {
		// The watcher aborts asynchronously: a cancellation it had no time
		// to act on before the last task finished still fails the run.
		err = ctx.Err()
	}
	if err == nil && r.pending.Load() != 0 {
		err = fmt.Errorf("dynsched: %d tasks never became ready", r.pending.Load())
	}
	return st, err
}

// sortByPriority orders ids so that the best task — highest priority, then
// lowest id — comes LAST, ready to be pushed closest to the deque's bottom.
func (r *runner) sortByPriority(ids []int32) {
	pr := r.dag.Priority
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if pr != nil && pr[a] != pr[b] {
			return pr[a] < pr[b]
		}
		return a > b
	})
}

func (r *runner) abort(err error) {
	r.abortMu.Lock()
	if r.abortErr == nil {
		r.abortErr = err
	}
	r.abortMu.Unlock()
	r.aborted.Store(true)
	r.wake()
}

// wake bumps the wakeup sequence and rouses every parked worker.
func (r *runner) wake() {
	r.mu.Lock()
	r.wakeSeq++
	r.mu.Unlock()
	r.cond.Broadcast()
}

// work is one worker goroutine: pop local, else steal, else park.
func (r *runner) work(w int) {
	for {
		if r.aborted.Load() || r.pending.Load() == 0 {
			return
		}
		task := r.deques[w].pop()
		if task < 0 {
			task = r.trySteal(w)
		}
		if task < 0 {
			if !r.park(w) {
				return
			}
			continue
		}
		r.run(w, task)
	}
}

// trySteal scans the other workers' deques (starting after w, so victims
// differ across thieves) and returns a stolen task or -1.
func (r *runner) trySteal(w int) int32 {
	n := len(r.deques)
	for i := 1; i < n; i++ {
		if task := r.deques[(w+i)%n].steal(); task >= 0 {
			r.steals.Add(1)
			return task
		}
	}
	return -1
}

// park sleeps until new work may exist. It returns false when the run is
// over (all tasks done or aborted) and true when the worker should retry.
func (r *runner) park(w int) bool {
	r.mu.Lock()
	seq := r.wakeSeq
	r.mu.Unlock()
	// Re-check after capturing seq: any push since bumps the sequence, so
	// either we see the work here or the comparison below fails.
	if r.aborted.Load() || r.pending.Load() == 0 {
		return false
	}
	for i := 0; i < len(r.deques); i++ {
		d := r.deques[i]
		if d.top.Load() < d.bottom.Load() {
			return true // work visible somewhere; retry without sleeping
		}
	}
	r.mu.Lock()
	if r.wakeSeq == seq {
		r.parks.Add(1)
		r.cond.Wait()
	}
	r.mu.Unlock()
	return !r.aborted.Load() && r.pending.Load() != 0
}

// run executes one task and activates its successors: each out-edge
// decrements the destination's countdown, and the batch that reached zero is
// priority-sorted and pushed locally — the data-driven replacement for the
// static schedule's fixed K_p order.
func (r *runner) run(w int, task int32) {
	if err := r.exec(w, int(task)); err != nil {
		r.abort(err)
		return
	}
	var ready []int32
	for _, dst := range r.dag.Outs[task] {
		left := r.remaining[dst].Add(-1)
		if left == 0 {
			ready = append(ready, dst)
		} else if left < 0 {
			r.abort(fmt.Errorf("dynsched: task %d in-degree went negative (duplicate completion of a predecessor of %d?)", dst, dst))
			return
		}
	}
	if len(ready) > 0 {
		r.sortByPriority(ready)
		for _, id := range ready {
			r.deques[w].push(id)
		}
	}
	if r.pending.Add(-1) == 0 || len(ready) > 0 {
		r.wake()
	}
}
