package dynsched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/pastix-go/pastix/internal/sched"
)

// errStuck reports a run in which every worker still in it waits for a task
// no running task can release.
var errStuck = errors.New("dynsched: tasks never became ready (cyclic graph or misordered pinned lists)")

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
// deques (stealing policy only), and the parking lot idle workers sleep in.
type runner struct {
	dag       *sched.DAG
	exec      ExecFunc
	remaining []atomic.Int32 // in-degree countdown; task ready at zero
	deques    []*deque       // nil under the pinned policy
	pending   atomic.Int64   // tasks not yet completed; 0 = run finished
	steals    atomic.Int64
	parks     atomic.Int64

	// Parking: a worker with nothing runnable sleeps on cond until a
	// completion makes a task ready (or the run ends). wakeSeq is bumped
	// under mu before every broadcast; a would-be sleeper re-checks for work
	// after reading it and sleeps only if it is unchanged, so a wakeup
	// between the check and the sleep cannot be missed. idle counts the
	// sleepers since the last broadcast and live the workers still in the
	// run: when every live worker sleeps, no running task is left to wake
	// anyone, so the remaining tasks can never become ready.
	mu         sync.Mutex
	cond       *sync.Cond
	wakeSeq    uint64
	idle, live int

	aborted  atomic.Bool
	abortMu  sync.Mutex
	abortErr error
}

// Run executes every task of d exactly once on `workers` goroutines; a task
// starts once its last incoming edge is satisfied. pinned selects the
// placement policy. With nil (work stealing), a task that becomes ready is
// pushed to the completing worker's deque (batch sorted so the highest
// d.Priority is popped first), and idle workers steal from the tail of their
// peers' deques. Otherwise worker w runs exactly pinned[w], in order; the
// lists must partition the task ids over exactly `workers` lists, or Run
// rejects them. Cancelling ctx aborts between tasks. A cyclic graph, or
// pinned lists whose order contradicts an edge, leaves every worker waiting;
// Run detects that and returns an error instead of hanging.
func Run(ctx context.Context, d *sched.DAG, workers int, pinned [][]int, exec ExecFunc) (Stats, error) {
	n := d.NTasks()
	if workers < 1 {
		return Stats{}, fmt.Errorf("dynsched: %d workers", workers)
	}
	if pinned != nil {
		if err := checkPartition(pinned, workers, n); err != nil {
			return Stats{}, err
		}
	}
	if n == 0 {
		return Stats{}, nil
	}
	r := &runner{
		dag:       d,
		exec:      exec,
		remaining: make([]atomic.Int32, n),
		live:      workers,
	}
	r.cond = sync.NewCond(&r.mu)
	r.pending.Store(int64(n))
	var roots []int32
	for i, deg := range d.InDegrees() {
		r.remaining[i].Store(deg)
		if deg == 0 {
			roots = append(roots, int32(i))
		}
	}
	if pinned == nil {
		// Seed round-robin, best roots last so each worker pops its best first.
		r.deques = make([]*deque, workers)
		for w := range r.deques {
			r.deques[w] = newDeque(n)
		}
		r.sortByPriority(roots)
		for i := len(roots) - 1; i >= 0; i-- {
			r.deques[i%workers].push(roots[i])
		}
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
			defer r.leave()
			if pinned != nil {
				r.workPinned(w, pinned[w])
			} else {
				r.work(w)
			}
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
	return st, err
}

// checkPartition verifies that pinned holds `workers` lists that together
// name every task id in [0,n) exactly once.
func checkPartition(pinned [][]int, workers, n int) error {
	if len(pinned) != workers {
		return fmt.Errorf("dynsched: %d pinned lists for %d workers", len(pinned), workers)
	}
	seen := make([]bool, n)
	count := 0
	for _, list := range pinned {
		for _, id := range list {
			if id < 0 || id >= n || seen[id] {
				return fmt.Errorf("dynsched: pinned task %d outside [0,%d) or pinned twice", id, n)
			}
			seen[id] = true
		}
		count += len(list)
	}
	if count != n {
		return fmt.Errorf("dynsched: pinned lists hold %d of %d tasks", count, n)
	}
	return nil
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

// wake bumps the wakeup sequence and rouses every parked worker. It
// broadcasts under mu, so a worker that parks after the reset of idle is
// never woken by this broadcast and rightly counts as idle.
func (r *runner) wake() {
	r.mu.Lock()
	r.wakeSeq++
	r.idle = 0
	r.cond.Broadcast()
	r.mu.Unlock()
}

// leave takes a returning worker out of the run. If every worker still in
// it is asleep, nothing can wake them any more.
func (r *runner) leave() {
	r.mu.Lock()
	r.live--
	stuck := r.live > 0 && r.idle == r.live
	r.mu.Unlock()
	if stuck {
		r.abort(errStuck)
	}
}

// finished reports whether the run is over: every task done, or aborted.
func (r *runner) finished() bool { return r.aborted.Load() || r.pending.Load() == 0 }

// work is one work-stealing worker: pop local, else steal, else park.
func (r *runner) work(w int) {
	for !r.finished() {
		task := r.deques[w].pop()
		if task < 0 {
			task = r.trySteal(w)
		}
		if task < 0 {
			if !r.park(-1) {
				return
			}
			continue
		}
		r.run(w, task)
	}
}

// workPinned is one pinned worker: its list in order, each task once its
// countdown reaches zero.
func (r *runner) workPinned(w int, list []int) {
	for _, task := range list {
		for !r.runnable(task) {
			if !r.park(task) {
				return
			}
		}
		if r.aborted.Load() {
			return
		}
		r.run(w, int32(task))
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

// runnable reports whether a worker may have something to run: pinned task
// `task` has no unfinished predecessor, or, for a stealing worker (task <
// 0), some deque holds a task.
func (r *runner) runnable(task int) bool {
	if task >= 0 {
		return r.remaining[task].Load() == 0
	}
	for _, d := range r.deques {
		if d.top.Load() < d.bottom.Load() {
			return true
		}
	}
	return false
}

// park sleeps until runnable(task) may have changed. It returns false when
// the run is over (all tasks done or aborted) and true when the worker
// should retry.
func (r *runner) park(task int) bool {
	r.mu.Lock()
	seq := r.wakeSeq
	r.mu.Unlock()
	// Re-check after capturing seq: any activation since bumps the sequence,
	// so either we see it here or the comparison below fails.
	if r.finished() {
		return false
	}
	if r.runnable(task) {
		return true // retry without sleeping
	}
	r.mu.Lock()
	if r.wakeSeq == seq {
		r.idle++
		if r.idle == r.live {
			r.idle--
			r.mu.Unlock()
			r.abort(errStuck)
			return false
		}
		r.parks.Add(1)
		r.cond.Wait()
	}
	r.mu.Unlock()
	return !r.finished()
}

// run executes one task and counts down its successors. Under work
// stealing, the batch that reached zero is priority-sorted and pushed
// locally — the data-driven replacement for the static schedule's fixed K_p
// order; under the pinned policy the countdown alone releases the waiting
// owner.
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
	if r.deques != nil {
		r.sortByPriority(ready)
		for _, id := range ready {
			r.deques[w].push(id)
		}
	}
	if r.pending.Add(-1) == 0 || len(ready) > 0 {
		r.wake()
	}
}
