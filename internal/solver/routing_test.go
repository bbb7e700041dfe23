package solver

import (
	"fmt"
	"slices"
	"testing"

	"github.com/pastix-go/pastix/internal/sched"
)

// TestScheduleRouting checks sched.Schedule.UpdateTask, the one home of the
// fan-in routing rule, against the task graph Build made from it, on every
// conformance matrix at P = 2 and 4 with 2D cells present (analyzeFor sets
// Ratio2D 2). For every (k, S, T) update: a BMOD task's answer is its single
// AUB edge; a COMP1D task's answer is one of its AUB edges, and each edge
// carries exactly the elements of the updates routed to it; and the facing
// block ColBlock.BlockContaining finds for the update's rows covers them.
func TestScheduleRouting(t *testing.T) {
	for _, P := range []int{2, 4} {
		cells2D := 0
		for _, tc := range conformanceCorpus() {
			t.Run(fmt.Sprintf("%s/P=%d", tc.name, P), func(t *testing.T) {
				an := analyzeFor(t, tc.a, P)
				sch, sym := an.Sched, an.Sym
				routed := map[int]int{} // destination -> elements, per COMP1D source
				for k := range sym.CB {
					blocks := sym.CB[k].Blocks
					if sch.Comp1DOf[k] < 0 {
						cells2D++
					}
					clear(routed)
					for ti := range blocks {
						for si := ti; si < len(blocks); si++ {
							dst := sch.UpdateTask(k, si, ti)
							if dst < 0 {
								t.Fatalf("cb %d (%d,%d): no task", k, si, ti)
							}
							checkUpdateRows(t, an, k, si, ti)
							if src := sch.Comp1DOf[k]; src >= 0 {
								rs, rt := blocks[si].Rows(), blocks[ti].Rows()
								if si == ti {
									routed[dst] += rs * (rs + 1) / 2
								} else {
									routed[dst] += rs * rt
								}
								continue
							}
							bm := sch.BModOf(k, si, ti)
							aubs := aubEdges(&sch.Tasks[bm])
							if len(aubs) != 1 || aubs[0].Dst != dst {
								t.Fatalf("BMOD(%d,%d) of cb %d: routed to %d, AUB edges %+v", si, ti, k, dst, aubs)
							}
						}
					}
					if src := sch.Comp1DOf[k]; src >= 0 {
						aubs := aubEdges(&sch.Tasks[src])
						if len(aubs) != len(routed) {
							t.Fatalf("COMP1D of cb %d: %d AUB edges, updates routed to %d tasks", k, len(aubs), len(routed))
						}
						for _, e := range aubs {
							if routed[e.Dst] != e.Elems {
								t.Fatalf("COMP1D of cb %d: edge to %d carries %d elements, routed updates %d", k, e.Dst, e.Elems, routed[e.Dst])
							}
						}
					}
				}
			})
		}
		if cells2D == 0 {
			t.Fatalf("P=%d: no 2D cell in the corpus; the BMOD leg checked nothing", P)
		}
	}
}

// TestSchedulePulls checks the static lists the shared executor and fan-out
// pull their updates from (sched.Schedule.Pulls), on every conformance
// matrix at P = 2, 4 and 8 with 2D cells present: every (k, S, T) update
// lies in exactly one run, and that run belongs to UpdateTask(k, S, T);
// each task's runs are in the canonical order, k ascending, then T, then S;
// and the update's producer, the COMP1D task of k or BMOD(k, S, T), has an
// edge to that task in Schedule.DAG, so the activation countdown orders the
// producer before the pull.
func TestSchedulePulls(t *testing.T) {
	for _, P := range []int{2, 4, 8} {
		cells2D := 0
		for _, tc := range conformanceCorpus() {
			t.Run(fmt.Sprintf("%s/P=%d", tc.name, P), func(t *testing.T) {
				an := analyzeFor(t, tc.a, P)
				sch, sym := an.Sched, an.Sym
				pulls, dag := an.taskPulls(), sch.DAG()
				seen := map[[3]int]int{} // (k, S, T) -> runs holding it
				for id := range sch.Tasks {
					last := [3]int{-1, -1, -1} // (k, T, S) of the previous update
					for _, r := range pulls.Of(id) {
						if r.S0 < r.T || r.S0 >= r.S1 || int(r.S1) > len(sym.CB[r.Src].Blocks) {
							t.Fatalf("task %d: run %+v out of range", id, r)
						}
						for si := int(r.S0); si < int(r.S1); si++ {
							k, ti := int(r.Src), int(r.T)
							seen[[3]int{k, si, ti}]++
							if dst := sch.UpdateTask(k, si, ti); dst != id {
								t.Fatalf("cb %d (%d,%d): in the list of task %d, routed to %d", k, si, ti, id, dst)
							}
							if cur := [3]int{k, ti, si}; slices.Compare(cur[:], last[:]) <= 0 {
								t.Fatalf("task %d: update (k,T,S) %v after %v", id, cur, last)
							} else {
								last = cur
							}
							prod := sch.Comp1DOf[k]
							if prod < 0 {
								prod = sch.BModOf(k, si, ti)
							}
							if !slices.Contains(dag.Outs[prod], int32(id)) {
								t.Fatalf("cb %d (%d,%d): producer %d has no edge to task %d", k, si, ti, prod, id)
							}
						}
					}
				}
				for k := range sym.CB {
					if sch.Comp1DOf[k] < 0 {
						cells2D++
					}
					for ti := range sym.CB[k].Blocks {
						for si := ti; si < len(sym.CB[k].Blocks); si++ {
							if n := seen[[3]int{k, si, ti}]; n != 1 {
								t.Fatalf("cb %d (%d,%d): in %d runs", k, si, ti, n)
							}
						}
					}
				}
			})
		}
		if cells2D == 0 {
			t.Fatalf("P=%d: no 2D cell in the corpus; the BMOD leg checked nothing", P)
		}
	}
}

// checkUpdateRows checks that the block BlockContaining finds for the rows
// of the (s,t) update of cell k, in the cell block t faces, covers them.
func checkUpdateRows(t *testing.T, an *Analysis, k, s, tb int) {
	t.Helper()
	bs, bt := an.Sym.CB[k].Blocks[s], an.Sym.CB[k].Blocks[tb]
	if bs.Facing == bt.Facing {
		return // the rows lie in the facing cell's diagonal block
	}
	fcb := &an.Sym.CB[bt.Facing]
	b := fcb.BlockContaining(bs.FirstRow, bs.LastRow)
	if b < 0 {
		t.Fatalf("cb %d (%d,%d): rows [%d,%d) in no block of cb %d", k, s, tb, bs.FirstRow, bs.LastRow, bt.Facing)
	}
	if fb := fcb.Blocks[b]; fb.FirstRow > bs.FirstRow || fb.LastRow < bs.LastRow {
		t.Fatalf("cb %d (%d,%d): block %d [%d,%d) of cb %d does not cover rows [%d,%d)",
			k, s, tb, b, fb.FirstRow, fb.LastRow, bt.Facing, bs.FirstRow, bs.LastRow)
	}
}

// aubEdges returns task's AUB out-edges.
func aubEdges(task *sched.Task) []sched.Edge {
	var out []sched.Edge
	for _, e := range task.Outs {
		if e.Kind == sched.EdgeAUB {
			out = append(out, e)
		}
	}
	return out
}
