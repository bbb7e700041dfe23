package dynsched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/sched"
)

// dealTopo deals a topological order of d (Kahn, lowest ready id first)
// round-robin over `workers` lists — a valid pinned placement for any DAG.
func dealTopo(d *sched.DAG, workers int) [][]int {
	in := d.InDegrees()
	var ready []int
	for i, deg := range in {
		if deg == 0 {
			ready = append(ready, i)
		}
	}
	lists := make([][]int, workers)
	for k := 0; len(ready) > 0; k++ {
		id := ready[0]
		ready = ready[1:]
		lists[k%workers] = append(lists[k%workers], id)
		for _, dst := range d.Outs[id] {
			if in[dst]--; in[dst] == 0 {
				ready = append(ready, int(dst))
			}
		}
	}
	return lists
}

// checkPinnedRun runs d pinned to lists and checks that every task ran
// exactly once, on its assigned worker, in list order, and that nothing
// was stolen.
func checkPinnedRun(t *testing.T, d *sched.DAG, lists [][]int) {
	t.Helper()
	ran := make([][]int, len(lists))
	var mu sync.Mutex
	st, err := Run(context.Background(), d, len(lists), lists, func(w, task int) error {
		mu.Lock()
		ran[w] = append(ran[w], task)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("pinned run on %d workers: %v", len(lists), err)
	}
	if st.Executed != int64(d.NTasks()) || st.Steals != 0 {
		t.Fatalf("pinned run on %d workers: stats %+v for %d tasks", len(lists), st, d.NTasks())
	}
	for w := range lists {
		if len(ran[w]) != len(lists[w]) {
			t.Fatalf("worker %d ran %v, pinned to %v", w, ran[w], lists[w])
		}
		for i := range lists[w] {
			if ran[w][i] != lists[w][i] {
				t.Fatalf("worker %d ran %v, pinned to %v", w, ran[w], lists[w])
			}
		}
	}
}

// layered returns a graph of `layers` waves of `width` tasks, each task
// depending on every task of the previous wave.
func layered(t *testing.T, layers, width int) *sched.DAG {
	var edges [][2]int
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				edges = append(edges, [2]int{l*width + i, (l+1)*width + j})
			}
		}
	}
	return mustDAG(t, layers*width, edges)
}

func TestPinnedRunsListsInOrder(t *testing.T) {
	d := layered(t, 6, 5)
	for _, workers := range []int{1, 2, 3, 7} {
		checkPinnedRun(t, d, dealTopo(d, workers))
	}
	// One worker owning a whole chain while another owns nothing.
	chain := mustDAG(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	checkPinnedRun(t, chain, [][]int{{0, 1, 2, 3}, {}})
}

// waitGoroutines fails the test unless the goroutine count drops back to
// before within a grace period.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPinnedAbortsParkedWorker fails worker 0's task while worker 1 is
// parked waiting on that task's successor: Run must return the error, never
// run the successor, and unwind both workers.
func TestPinnedAbortsParkedWorker(t *testing.T) {
	d := mustDAG(t, 2, [][2]int{{0, 1}})
	boom := errors.New("boom")
	for attempt := 0; ; attempt++ {
		before := runtime.NumGoroutine()
		var ranSucc atomic.Bool
		st, err := Run(context.Background(), d, 2, [][]int{{0}, {1}}, func(w, task int) error {
			if task == 1 {
				ranSucc.Store(true)
				return nil
			}
			time.Sleep(5 * time.Millisecond) // let worker 1 park
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want boom", err)
		}
		if ranSucc.Load() || st.Executed != 0 {
			t.Fatalf("successor ran after its predecessor failed (stats %+v)", st)
		}
		waitGoroutines(t, before)
		if st.Parks > 0 {
			return
		}
		if attempt == 20 {
			t.Fatal("worker 1 never parked in 20 attempts")
		}
	}
}

func TestPinnedRejectsNonPartition(t *testing.T) {
	d := mustDAG(t, 3, [][2]int{{0, 1}, {1, 2}})
	for name, lists := range map[string][][]int{
		"duplicate":    {{0, 1}, {1, 2}},
		"missing":      {{0, 1}, {}},
		"out of range": {{0, 1}, {2, 3}},
		"negative":     {{-1, 0, 1}, {2}},
		"list count":   {{0, 1, 2}},
		"empty":        {},
	} {
		var ran atomic.Int32
		_, err := Run(context.Background(), d, 2, lists, func(w, task int) error {
			ran.Add(1)
			return nil
		})
		if err == nil || ran.Load() != 0 {
			t.Fatalf("%s: err = %v after %d tasks, want a rejection before any task", name, err, ran.Load())
		}
	}
}

// TestRunDetectsStuckGraph gives both policies a graph they cannot finish —
// a misordered pinned list, and a cycle that bypasses NewDAG — and expects
// an error instead of a hang.
func TestRunDetectsStuckGraph(t *testing.T) {
	chain := mustDAG(t, 3, [][2]int{{0, 1}, {1, 2}})
	cyclic := &sched.DAG{Outs: [][]int32{{1}, {2}, {1}}} // 0 → 1 ⇄ 2
	for _, tc := range []struct {
		name  string
		d     *sched.DAG
		lists [][]int
	}{
		{"reversed pinned", chain, [][]int{{2, 1, 0}}},
		{"misordered pinned", chain, [][]int{{2, 0}, {1}}},
		{"cyclic pinned", cyclic, [][]int{{0, 1}, {2}}},
		{"cyclic stealing", cyclic, nil},
	} {
		workers := len(tc.lists)
		if tc.lists == nil {
			workers = 3
		}
		done := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), tc.d, workers, tc.lists, func(w, task int) error { return nil })
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s: run reported success", tc.name)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: run hung", tc.name)
		}
	}
}
