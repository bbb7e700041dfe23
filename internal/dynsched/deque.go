// Package dynsched executes a sched.DAG on a pool of worker goroutines with
// an atomic in-degree countdown per task: a task starts once its last
// predecessor has completed. It is the one dependency-driven executor of the
// shared-memory factorization, with two placement policies. Pinned runs the
// paper's static schedule — each worker executes its fixed K_p task vector
// in order, waiting on each task's countdown. Work stealing discards the
// mapping — ready tasks land on per-worker deques, ordered by the
// schedule's cost-model priority, and idle workers steal from their peers'
// deques lock-free.
package dynsched

import "sync/atomic"

// deque is a Chase-Lev work-stealing deque specialised for this executor:
// the owner pushes and pops at the bottom (LIFO, so the priority-sorted
// activation batch is consumed highest-priority first), thieves steal from
// the top (the tail — the oldest, typically coarsest-grained entries).
//
// The ring is sized to the total task count, and every task id is pushed at
// most once per run, so slots are never recycled — the classic ABA hazard of
// a wrapping Chase-Lev buffer cannot occur. Go's sync/atomic operations are
// sequentially consistent, which is stronger than the acquire/release
// fences the original algorithm needs, so the unsynchronised-looking loads
// in pop/steal are sound.
type deque struct {
	top    atomic.Int64 // next index thieves claim; only ever incremented
	bottom atomic.Int64 // next index the owner pushes at; owner-written only
	mask   int64
	buf    []atomic.Int32
}

// newDeque returns a deque that can hold cap entries without wrapping.
func newDeque(cap int) *deque {
	sz := int64(1)
	for sz < int64(cap)+1 {
		sz <<= 1
	}
	return &deque{mask: sz - 1, buf: make([]atomic.Int32, sz)}
}

// push appends a task at the bottom. Owner only.
func (d *deque) push(task int32) {
	b := d.bottom.Load()
	d.buf[b&d.mask].Store(task)
	d.bottom.Store(b + 1)
}

// pop removes the most recently pushed task, or returns -1 when empty. Owner
// only. When a thief races for the last entry, the CAS on top decides.
func (d *deque) pop() int32 {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: undo the reservation.
		d.bottom.Store(b + 1)
		return -1
	}
	task := d.buf[b&d.mask].Load()
	if b > t {
		return task
	}
	// Last entry: win it against any concurrent thief.
	if !d.top.CompareAndSwap(t, t+1) {
		task = -1
	}
	d.bottom.Store(b + 1)
	return task
}

// steal removes the oldest task, or returns -1 when empty or when it lost a
// race for the last entry (the caller treats both as "try elsewhere").
func (d *deque) steal() int32 {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return -1
	}
	task := d.buf[t&d.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return -1
	}
	return task
}
