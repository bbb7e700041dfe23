package dynsched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/pastix-go/pastix/internal/sched"
)

// countingExec returns an ExecFunc that atomically counts executions per
// task, plus the counter slice.
func countingExec(n int) (ExecFunc, []atomic.Int32) {
	counts := make([]atomic.Int32, n)
	return func(w, task int) error {
		counts[task].Add(1)
		return nil
	}, counts
}

func mustDAG(t *testing.T, n int, edges [][2]int) *sched.DAG {
	t.Helper()
	d, err := sched.NewDAG(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func checkAllOnce(t *testing.T, counts []atomic.Int32) {
	t.Helper()
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("task %d executed %d times", i, c)
		}
	}
}

func TestRunEmpty(t *testing.T) {
	d := mustDAG(t, 0, nil)
	st, err := Run(context.Background(), d, 4, nil, func(w, task int) error { return nil })
	if err != nil || st.Executed != 0 {
		t.Fatalf("empty run: %v %+v", err, st)
	}
}

func TestRunChainRespectsOrder(t *testing.T) {
	// 0 → 1 → 2 → … → 63: only ever one ready task, any worker count.
	const n = 64
	var edges [][2]int
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	d := mustDAG(t, n, edges)
	for _, workers := range []int{1, 4, 16} {
		var mu sync.Mutex
		var order []int
		st, err := Run(context.Background(), d, workers, nil, func(w, task int) error {
			mu.Lock()
			order = append(order, task)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Executed != n {
			t.Fatalf("workers=%d: executed %d of %d", workers, st.Executed, n)
		}
		for i, task := range order {
			if task != i {
				t.Fatalf("workers=%d: position %d ran task %d (chain demands program order)", workers, i, task)
			}
		}
	}
}

func TestRunDiamondAndParallelEdges(t *testing.T) {
	// Diamond with a doubled edge: 3's in-degree is 3, so the countdown must
	// handle parallel edges exactly like DAG.InDegrees counts them.
	d := mustDAG(t, 4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 3}})
	exec, counts := countingExec(4)
	st, err := Run(context.Background(), d, 3, nil, exec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 4 {
		t.Fatalf("executed %d of 4", st.Executed)
	}
	checkAllOnce(t, counts)
}

func TestRunPriorityOrdersLocalPop(t *testing.T) {
	// One root fans out to 8 ready tasks on a single worker: they must run
	// in priority order (highest first, id breaking ties).
	const n = 9
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	d := mustDAG(t, n, edges)
	d.Priority = make([]int64, n)
	for i := 1; i < n; i++ {
		d.Priority[i] = int64(i % 3) // ties inside each class → id ascending
	}
	var order []int
	_, err := Run(context.Background(), d, 1, nil, func(w, task int) error {
		order = append(order, task)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 5, 8, 1, 4, 7, 3, 6}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestRunAbortsOnError(t *testing.T) {
	const n = 32
	var edges [][2]int
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	d := mustDAG(t, n, edges)
	boom := errors.New("boom")
	var ran atomic.Int32
	st, err := Run(context.Background(), d, 4, nil, func(w, task int) error {
		ran.Add(1)
		if task == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st.Executed >= n {
		t.Fatalf("executed %d tasks despite abort at task 5", st.Executed)
	}
}

// TestRunHonorsContext cancels a run from inside a task, under both
// placement policies: Run must return ctx.Err() and unwind every worker.
func TestRunHonorsContext(t *testing.T) {
	const n = 128
	var edges [][2]int
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	d := mustDAG(t, n, edges)
	for _, pinned := range [][][]int{nil, dealTopo(d, 2)} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		_, err := Run(ctx, d, 2, pinned, func(w, task int) error {
			if task == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pinned=%v: err = %v, want context.Canceled", pinned != nil, err)
		}
		waitGoroutines(t, before)
	}
}

func TestRunRejectsBadWorkerCount(t *testing.T) {
	d := mustDAG(t, 1, nil)
	if _, err := Run(context.Background(), d, 0, nil, func(w, task int) error { return nil }); err == nil {
		t.Fatal("accepted 0 workers")
	}
}

// TestStealStorm hammers the deque steal path: far more workers than ready
// tasks, wide fan-outs, tiny task bodies, many repetitions. Every task must
// run exactly once every round, and across the rounds at least one steal
// must be observed (with 32 workers racing for roots of a 4-wide graph,
// stealing is how anyone but worker 0 eats).
func TestStealStorm(t *testing.T) {
	// Layered graph: barrier-like waves that repeatedly go from "everything
	// ready" to "nothing ready".
	d := layered(t, 8, 4)
	n := d.NTasks()

	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	var totalSteals int64
	for r := 0; r < rounds; r++ {
		exec, counts := countingExec(n)
		st, err := Run(context.Background(), d, 32, nil, exec)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if st.Executed != int64(n) {
			t.Fatalf("round %d: executed %d of %d", r, st.Executed, n)
		}
		checkAllOnce(t, counts)
		totalSteals += st.Steals
	}
	if totalSteals == 0 {
		t.Fatal("no steals observed across the storm — deque steal path never exercised")
	}
}
