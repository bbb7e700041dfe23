package sched

import "fmt"

// DAG is the runtime-agnostic view of a task graph: successor lists and a
// scheduling priority per task, nothing else. The message-passing runtime
// consumes the full Schedule (task→processor mapping, per-processor K_p
// vectors, modelled times); the shared-memory executor (internal/dynsched)
// needs only this — which task unblocks which, and which ready task to
// prefer — plus, under its pinned policy, the K_p vectors as per-worker task
// lists. Build one from a Schedule with Schedule.DAG, or from raw edge lists
// with NewDAG (the fuzzing and unit-test entry point).
type DAG struct {
	// Outs[i] lists the tasks that depend on task i. A task may appear more
	// than once (the schedule keeps parallel edges of different kinds); the
	// in-degree counts every occurrence, so a dependency-driven runtime must
	// decrement once per edge, exactly mirroring InDegrees.
	Outs [][]int32

	// Priority orders ready tasks: on a tie for the processor's attention the
	// HIGHER priority runs first. Schedule.DAG derives it from the static
	// cost model (elimination-tree depth first — the same key the greedy
	// mapper uses — then modelled execution time); NewDAG leaves it zero
	// unless the caller fills it.
	Priority []int64
}

// NTasks returns the number of tasks in the graph.
func (d *DAG) NTasks() int { return len(d.Outs) }

// InDegrees returns the per-task incoming-edge counts — the countdowns a
// dependency-driven runtime starts from.
func (d *DAG) InDegrees() []int32 {
	in := make([]int32, len(d.Outs))
	for _, outs := range d.Outs {
		for _, dst := range outs {
			in[dst]++
		}
	}
	return in
}

// Validate checks that the graph is executable by a dependency-driven
// runtime: every edge endpoint in range, no self-loops, and no cycles (a
// cycle would leave its tasks' in-degrees forever positive — the runtime
// would deadlock). The acyclicity check is Kahn's algorithm, i.e. exactly
// the countdown the runtime performs, run to completion.
func (d *DAG) Validate() error {
	n := len(d.Outs)
	if d.Priority != nil && len(d.Priority) != n {
		return fmt.Errorf("sched: dag has %d tasks but %d priorities", n, len(d.Priority))
	}
	for src, outs := range d.Outs {
		for _, dst := range outs {
			if int(dst) < 0 || int(dst) >= n {
				return fmt.Errorf("sched: dag edge %d→%d outside [0,%d)", src, dst, n)
			}
			if int(dst) == src {
				return fmt.Errorf("sched: dag task %d depends on itself", src)
			}
		}
	}
	in := d.InDegrees()
	ready := make([]int32, 0, n)
	for i, deg := range in {
		if deg == 0 {
			ready = append(ready, int32(i))
		}
	}
	seen := 0
	for len(ready) > 0 {
		id := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		seen++
		for _, dst := range d.Outs[id] {
			in[dst]--
			if in[dst] == 0 {
				ready = append(ready, dst)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("sched: dag has a dependency cycle (%d of %d tasks reachable)", seen, n)
	}
	return nil
}

// NewDAG builds and validates a DAG from raw (src, dst) edges over n tasks.
func NewDAG(n int, edges [][2]int) (*DAG, error) {
	if n < 0 {
		return nil, fmt.Errorf("sched: dag with %d tasks", n)
	}
	d := &DAG{Outs: make([][]int32, n)}
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n {
			return nil, fmt.Errorf("sched: dag edge source %d outside [0,%d)", e[0], n)
		}
		d.Outs[e[0]] = append(d.Outs[e[0]], int32(e[1]))
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// DAG extracts the runtime-agnostic task graph from the schedule: the
// tasks' Outs edges, plus a priority per task encoding the cost model's
// preference — elimination-tree depth in the high bits (deeper supernodes
// first, the greedy mapper's ready-heap key) and the modelled execution time
// in microseconds in the low bits (longer tasks first on equal depth, so the
// work most likely to gate successors starts earliest).
func (s *Schedule) DAG() *DAG {
	d := &DAG{
		Outs:     make([][]int32, len(s.Tasks)),
		Priority: make([]int64, len(s.Tasks)),
	}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if len(t.Outs) > 0 {
			outs := make([]int32, len(t.Outs))
			for j, e := range t.Outs {
				outs[j] = int32(e.Dst)
			}
			d.Outs[i] = outs
		}
		us := int64(t.execT * 1e6)
		if us < 0 {
			us = 0
		} else if us > 1<<30 {
			us = 1 << 30
		}
		d.Priority[i] = int64(t.depth)<<32 | us
	}
	return d
}

// Pull is a run of block updates one task receives from column block Src:
// the (S, T) updates with S in [S0, S1), each routed to that task.
type Pull struct{ Src, T, S0, S1 int32 }

// Pulls lists every task's incoming block updates, fixed by the schedule
// as the fan-in rule fixes them: a task pulls these when it activates, so
// no producer has to deliver anything. Each task's runs are in the
// canonical order, source ascending, then T, then S: the order in which
// the sequential right-looking loop applies them.
type Pulls struct {
	ptr  []int32 // task i's runs are runs[ptr[i]:ptr[i+1]]
	runs []Pull
}

// Of returns the runs task id receives, in canonical order.
func (p *Pulls) Of(id int) []Pull { return p.runs[p.ptr[id]:p.ptr[id+1]] }

// Pulls builds the incoming updates of every task. It walks the updates in
// canonical order, routes each through UpdateTask and merges consecutive S
// that land in the same task, so every list is canonical by construction.
func (s *Schedule) Pulls() *Pulls {
	lists := make([][]Pull, len(s.Tasks))
	for k := range s.sym.CB {
		src, nb := int32(k), len(s.sym.CB[k].Blocks)
		for t := 0; t < nb; t++ {
			for sb := t; sb < nb; sb++ {
				dst := s.UpdateTask(k, sb, t)
				l := lists[dst]
				if n := len(l); n > 0 && l[n-1].Src == src && l[n-1].T == int32(t) && l[n-1].S1 == int32(sb) {
					l[n-1].S1++
				} else {
					lists[dst] = append(l, Pull{src, int32(t), int32(sb), int32(sb + 1)})
				}
			}
		}
	}
	p := &Pulls{ptr: make([]int32, len(lists)+1)}
	for i, l := range lists {
		p.runs = append(p.runs, l...)
		p.ptr[i+1] = int32(len(p.runs))
	}
	return p
}
