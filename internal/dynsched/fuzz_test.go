package dynsched

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/pastix-go/pastix/internal/sched"
)

// FuzzScheduleDAG decodes arbitrary bytes into a (task count, edge list)
// pair, builds a DAG through the same constructor the solver uses, and runs
// the executor over it under both placement policies: work stealing, and
// pinned to a topological order dealt round-robin over the workers.
// sched.NewDAG must either reject the graph (cycles, bad indices) or the
// executor must run every task exactly once (pinned: on its worker, in list
// order) with in-degree counters never going negative — the executor aborts
// with an error on a negative countdown, which would fail the invariant
// checks below.
//
// Byte layout: data[0] (mod 64) + 1 is n; each following pair of bytes is an
// edge (src, dst) taken mod n. This intentionally produces self-loops,
// cycles and parallel edges so the validator's rejection paths get fuzzed
// alongside the executor's happy path.
func FuzzScheduleDAG(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 1, 2, 2, 3})       // chain
	f.Add([]byte{3, 0, 1, 0, 2, 1, 3, 2, 3}) // diamond
	f.Add([]byte{1, 0, 1, 1, 0})             // 2-cycle → rejected
	f.Add([]byte{2, 1, 1})                   // self-loop → rejected
	f.Add([]byte{7, 0, 3, 0, 3, 0, 3, 1, 2}) // parallel edges
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%64 + 1
		var edges [][2]int
		for i := 1; i+1 < len(data); i += 2 {
			edges = append(edges, [2]int{int(data[i]) % n, int(data[i+1]) % n})
		}
		d, err := sched.NewDAG(n, edges)
		if err != nil {
			return // invalid graph correctly rejected
		}
		for _, workers := range []int{1, 4} {
			counts := make([]atomic.Int32, n)
			st, err := Run(context.Background(), d, workers, nil, func(w, task int) error {
				counts[task].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d: executor failed on valid DAG (n=%d, %d edges): %v",
					workers, n, len(edges), err)
			}
			if st.Executed != int64(n) {
				t.Fatalf("workers=%d: executed %d of %d", workers, st.Executed, n)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d: task %d executed %d times", workers, i, c)
				}
			}
			checkPinnedRun(t, d, dealTopo(d, workers))
		}
	})
}
