// Package sched implements the paper's static scheduling phase: from the
// block symbolic structure and the candidate-processor mapping it builds the
// task graph (COMP1D / FACTOR / BDIV / BMOD), then maps every task onto one
// of its candidate processors by a greedy simulation of the parallel
// factorization driven by the BLAS and communication time models. The
// result is, for each processor p, a vector K_p of local tasks fully ordered
// by priority — the parallel solver is entirely driven by this order.
package sched

import (
	"fmt"
	"slices"

	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// TaskType enumerates the paper's four block-computation task types.
type TaskType int8

const (
	// Comp1D updates and computes all contributions of a 1D-distributed
	// column block.
	Comp1D TaskType = iota
	// Factor factorizes the dense diagonal block of a 2D column block.
	Factor
	// BDiv updates (solves) one off-diagonal block against the diagonal.
	BDiv
	// BMod computes the contribution of one block pair (S,T) of a 2D column
	// block; it runs on the processor storing block S.
	BMod
)

func (t TaskType) String() string {
	switch t {
	case Comp1D:
		return "COMP1D"
	case Factor:
		return "FACTOR"
	case BDiv:
		return "BDIV"
	case BMod:
		return "BMOD"
	}
	return fmt.Sprintf("TaskType(%d)", int8(t))
}

// EdgeKind classifies dependency edges, which doubles as the runtime message
// taxonomy.
type EdgeKind int8

const (
	// EdgeAUB is an aggregated-update-block contribution: the source task's
	// contribution is added into an AUB that is sent (or applied locally) to
	// the destination task's region. AUB edges from tasks on the same
	// processor to the same destination aggregate into one message.
	EdgeAUB EdgeKind = iota
	// EdgeF carries the solved panel W_T of BDIV(T,k) to the BMOD tasks that
	// multiply against it.
	EdgeF
	// EdgeDiag carries the factored diagonal block (L_kk, D_k) from FACTOR
	// to the BDIV tasks of the same column block.
	EdgeDiag
	// EdgePin orders BMOD(S,T,k) after BDIV(S,k) on the same processor (the
	// BMOD task is pinned to the processor storing block S); no data moves.
	EdgePin
)

// Edge is a dependency from the task owning it to Dst.
type Edge struct {
	Dst   int
	Kind  EdgeKind
	Elems int // float64 elements transferred / aggregated
}

// Task is one node of the task graph.
type Task struct {
	ID   int
	Type TaskType
	Cell int
	S, T int // block indices within Cell (BDiv: S; BMod: S,T)

	Proc  int     // assigned processor (after Build)
	Rank  int     // global mapping order (priority)
	Start float64 // modelled start time
	End   float64 // modelled completion time

	Outs []Edge

	deps           int32
	candLo, candHi int
	pinned         bool // candidate set becomes {proc of BDIV(S,Cell)} when ready
	depth          int32
	execT          float64
	arrival        float64 // filled during mapping
}

// Schedule is the fully ordered static schedule.
type Schedule struct {
	P        int
	Tasks    []Task
	ByProc   [][]int // K_p: task ids in execution order per processor
	Makespan float64 // modelled parallel time
	SeqTime  float64 // modelled one-processor time (sum of exec times)

	// Lookup tables from symbol coordinates to task ids (-1 when absent).
	Comp1DOf []int
	FactorOf []int
	BDivOf   [][]int // [cell][blockIdx]
	// bmodBase[k] is the id of BMOD(0,0) of 2D cell k (-1 for 1D cells);
	// the cell's BMOD tasks follow it in (T, S ≥ T) order.
	bmodBase []int

	sym  *symbolic.Symbol
	mach *cost.Machine
}

// Sym returns the symbol this schedule was built for.
func (s *Schedule) Sym() *symbolic.Symbol { return s.sym }

// BModOf returns the BMOD task id for (cell, s, t), or -1.
func (s *Schedule) BModOf(cell, sIdx, tIdx int) int {
	if cell < 0 || cell >= len(s.bmodBase) || s.bmodBase[cell] < 0 {
		return -1
	}
	nb := len(s.BDivOf[cell])
	if tIdx < 0 || sIdx < tIdx || sIdx >= nb {
		return -1
	}
	return s.bmodBase[cell] + bmodIndex(nb, sIdx, tIdx)
}

// UpdateTask returns the task that receives the (S,T) update of column
// block k — the paper's fan-in rule, written once for every runtime. The
// update lands in the cell f that block T faces. When f is 1D, its COMP1D
// task owns the whole cell. When f is 2D, FACTOR(f) owns it if block S's
// rows lie in f's diagonal block, and otherwise the BDIV task of f's block
// holding those rows. It returns -1 when no block of f holds them; Build
// rejects such a symbol, so on a built schedule every update has a task.
func (s *Schedule) UpdateTask(k, sIdx, tIdx int) int {
	blocks := s.sym.CB[k].Blocks
	f := blocks[tIdx].Facing
	if id := s.Comp1DOf[f]; id >= 0 {
		return id
	}
	sb := blocks[sIdx]
	if sb.Facing == f {
		return s.FactorOf[f]
	}
	b := s.sym.CB[f].BlockContaining(sb.FirstRow, sb.LastRow)
	if b < 0 {
		return -1
	}
	return s.BDivOf[f][b]
}

// DiagTask returns the task that factors cell k's diagonal block: its
// COMP1D task when k is 1D, its FACTOR task when k is 2D.
func (s *Schedule) DiagTask(k int) int {
	if id := s.Comp1DOf[k]; id >= 0 {
		return id
	}
	return s.FactorOf[k]
}

// bmodIndex is the position of BMOD(S,T) among a cell's nb(nb+1)/2 BMOD
// tasks, created T-major: (0,0), (1,0), …, (nb-1,0), (1,1), ….
func bmodIndex(nb, sIdx, tIdx int) int {
	return tIdx*nb - tIdx*(tIdx-1)/2 + sIdx - tIdx
}

// Options tunes the scheduler.
type Options struct {
	// FirstCandidate degrades the mapper for ablation studies: instead of
	// simulating completion times and picking the soonest-finishing
	// candidate, every task goes to the first processor of its candidate
	// set (a Pothen-Sun-style static assignment without the greedy
	// simulation).
	FirstCandidate bool
}

// Build constructs the task graph and computes the static mapping and
// ordering. mapping must come from part.Map over the same symbol.
func Build(sym *symbolic.Symbol, mapping *part.Mapping, mach *cost.Machine, opts Options) (*Schedule, error) {
	ncb := sym.NumCB()
	s := &Schedule{
		P:        mapping.P,
		Comp1DOf: make([]int, ncb),
		FactorOf: make([]int, ncb),
		BDivOf:   make([][]int, ncb),
		bmodBase: make([]int, ncb),
		sym:      sym,
		mach:     mach,
	}

	// --- Create tasks. ---
	ntask := 0
	for k := 0; k < ncb; k++ {
		if nb := len(sym.CB[k].Blocks); mapping.Is2D[k] {
			ntask += 1 + nb + nb*(nb+1)/2
		} else {
			ntask++
		}
	}
	s.Tasks = make([]Task, 0, ntask)
	newTask := func(tt TaskType, cell, sIdx, tIdx int) int {
		id := len(s.Tasks)
		s.Tasks = append(s.Tasks, Task{
			ID: id, Type: tt, Cell: cell, S: sIdx, T: tIdx, Proc: -1,
			candLo: mapping.CandLo[cell], candHi: mapping.CandHi[cell],
		})
		return id
	}
	for k := 0; k < ncb; k++ {
		nb := len(sym.CB[k].Blocks)
		s.BDivOf[k] = make([]int, nb)
		s.bmodBase[k] = -1
		if !mapping.Is2D[k] {
			s.Comp1DOf[k] = newTask(Comp1D, k, -1, -1)
			s.FactorOf[k] = -1
			for b := range s.BDivOf[k] {
				s.BDivOf[k][b] = -1
			}
			continue
		}
		s.Comp1DOf[k] = -1
		s.FactorOf[k] = newTask(Factor, k, -1, -1)
		for b := 0; b < nb; b++ {
			s.BDivOf[k][b] = newTask(BDiv, k, b, -1)
		}
		s.bmodBase[k] = len(s.Tasks)
		for t := 0; t < nb; t++ {
			for sb := t; sb < nb; sb++ {
				id := newTask(BMod, k, sb, t)
				s.Tasks[id].pinned = true
			}
		}
	}

	// --- Depth (distance from root) for the priority rule: the task coming
	// from the lowest (deepest) node of the elimination tree goes first. ---
	depth := make([]int32, ncb)
	for k := ncb - 1; k >= 0; k-- {
		if p := sym.Parent[k]; p != -1 {
			depth[k] = depth[p] + 1
		}
	}
	for i := range s.Tasks {
		s.Tasks[i].depth = depth[s.Tasks[i].Cell]
	}

	// --- Edges. ---
	// Collected flat, then grouped by source into one backing array (each
	// source's edges in the order they were added).
	type srcEdge struct {
		src int
		e   Edge
	}
	var edges []srcEdge
	addEdge := func(src, dst int, kind EdgeKind, elems int) {
		edges = append(edges, srcEdge{src, Edge{Dst: dst, Kind: kind, Elems: elems}})
		s.Tasks[dst].deps++
	}
	// contributionTarget is UpdateTask with the coverage check every
	// runtime relies on: once Build succeeds, every update has a task.
	contributionTarget := func(k, sIdx, tIdx int) (int, error) {
		dst := s.UpdateTask(k, sIdx, tIdx)
		if dst < 0 {
			blocks := sym.CB[k].Blocks
			return -1, fmt.Errorf("sched: contribution rows [%d,%d) of cb %d not covered by one block of cb %d",
				blocks[sIdx].FirstRow, blocks[sIdx].LastRow, k, blocks[tIdx].Facing)
		}
		return dst, nil
	}
	contribElems := func(k, sIdx, tIdx int) int {
		blocks := sym.CB[k].Blocks
		rs := blocks[sIdx].Rows()
		rt := blocks[tIdx].Rows()
		if sIdx == tIdx {
			return rs * (rs + 1) / 2
		}
		return rs * rt
	}

	// A COMP1D source aggregates its contributions per destination into
	// one AUB edge each: aggElems accumulates them (indexed by destination
	// task), dsts lists the destinations touched, emitted ascending.
	aggElems := make([]int, len(s.Tasks))
	var dsts []int
	for k := 0; k < ncb; k++ {
		blocks := sym.CB[k].Blocks
		nb := len(blocks)
		w := sym.CB[k].Width()
		if s.Comp1DOf[k] >= 0 {
			src := s.Comp1DOf[k]
			dsts = dsts[:0]
			for t := 0; t < nb; t++ {
				for sb := t; sb < nb; sb++ {
					dst, err := contributionTarget(k, sb, t)
					if err != nil {
						return nil, err
					}
					if aggElems[dst] == 0 { // contributions are never empty
						dsts = append(dsts, dst)
					}
					aggElems[dst] += contribElems(k, sb, t)
				}
			}
			slices.Sort(dsts)
			for _, dst := range dsts {
				addEdge(src, dst, EdgeAUB, aggElems[dst])
				aggElems[dst] = 0
			}
			continue
		}
		// 2D cell: FACTOR → BDIVs; BDIV(T) → BMOD(S,T); BDIV(S) pin → BMOD;
		// BMOD → its contribution target.
		diagElems := w * (w + 1) / 2
		for b := 0; b < nb; b++ {
			addEdge(s.FactorOf[k], s.BDivOf[k][b], EdgeDiag, diagElems)
		}
		for t := 0; t < nb; t++ {
			for sb := t; sb < nb; sb++ {
				bm := s.bmodBase[k] + bmodIndex(nb, sb, t)
				addEdge(s.BDivOf[k][sb], bm, EdgePin, 0)
				if sb != t {
					addEdge(s.BDivOf[k][t], bm, EdgeF, blocks[t].Rows()*w)
				}
				dst, err := contributionTarget(k, sb, t)
				if err != nil {
					return nil, err
				}
				addEdge(bm, dst, EdgeAUB, contribElems(k, sb, t))
			}
		}
	}
	start := make([]int, len(s.Tasks)+1)
	for _, se := range edges {
		start[se.src+1]++
	}
	for i := range s.Tasks {
		start[i+1] += start[i]
	}
	all := make([]Edge, len(edges))
	fill := append([]int(nil), start[:len(s.Tasks)]...)
	for _, se := range edges {
		all[fill[se.src]] = se.e
		fill[se.src]++
	}
	for i := range s.Tasks {
		if start[i] < start[i+1] {
			s.Tasks[i].Outs = all[start[i]:start[i+1]:start[i+1]]
		}
	}

	// --- Execution-time model per task (kernel + aggregation work). ---
	aggIn := make([]int, len(s.Tasks))
	for i := range s.Tasks {
		for _, e := range s.Tasks[i].Outs {
			if e.Kind == EdgeAUB {
				aggIn[e.Dst] += e.Elems
			}
		}
	}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		cb := &sym.CB[t.Cell]
		w := cb.Width()
		var kt float64
		switch t.Type {
		case Comp1D:
			kt = mach.FactorTime(w) + mach.TrsmTime(cb.RowsBelow(), w)
			blocks := cb.Blocks
			cum := cb.RowsBelow()
			for ti := 0; ti < len(blocks); ti++ {
				kt += mach.GemmTime(cum, blocks[ti].Rows(), w)
				cum -= blocks[ti].Rows()
			}
		case Factor:
			kt = mach.FactorTime(w)
		case BDiv:
			kt = mach.TrsmTime(cb.Blocks[t.S].Rows(), w)
		case BMod:
			kt = mach.GemmTime(cb.Blocks[t.S].Rows(), cb.Blocks[t.T].Rows(), w)
		}
		outAgg := 0
		for _, e := range t.Outs {
			if e.Kind == EdgeAUB {
				outAgg += e.Elems
			}
		}
		if outAgg > 0 {
			kt += mach.AddTime(outAgg)
		}
		if aggIn[i] > 0 {
			kt += mach.AddTime(aggIn[i])
		}
		t.execT = kt
		s.SeqTime += kt
	}

	if err := s.mapTasks(opts); err != nil {
		return nil, err
	}
	return s, nil
}

// readyHeap orders ready tasks: deepest elimination-tree node first, then
// cell, then id (deterministic).
type readyItem struct {
	depth int32
	cell  int
	id    int
}
type readyHeap []readyItem

func (a readyItem) less(b readyItem) bool {
	if a.depth != b.depth {
		return a.depth > b.depth
	}
	if a.cell != b.cell {
		return a.cell < b.cell
	}
	return a.id < b.id
}

func (h *readyHeap) push(it readyItem) {
	q := append(*h, it)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].less(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *readyHeap) pop() readyItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].less(q[c]) {
			c++
		}
		if !q[c].less(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// mapTasks runs the greedy mapping simulation.
func (s *Schedule) mapTasks(opts Options) error {
	P := s.P
	timer := make([]float64, P)
	heaps := make([]readyHeap, P)
	s.ByProc = make([][]int, P)

	// Incoming edges per destination, for arrival computation: reversed
	// edges (src stored in the Dst field) of task d at in[inPtr[d]:inPtr[d+1]].
	inPtr := make([]int, len(s.Tasks)+1)
	for i := range s.Tasks {
		for _, e := range s.Tasks[i].Outs {
			inPtr[e.Dst+1]++
		}
	}
	for d := range s.Tasks {
		inPtr[d+1] += inPtr[d]
	}
	in := make([]Edge, inPtr[len(s.Tasks)])
	fill := append([]int(nil), inPtr[:len(s.Tasks)]...)
	for i := range s.Tasks {
		for _, e := range s.Tasks[i].Outs {
			in[fill[e.Dst]] = Edge{Dst: i, Kind: e.Kind, Elems: e.Elems}
			fill[e.Dst]++
		}
	}

	pushReady := func(id int) {
		t := &s.Tasks[id]
		lo, hi := t.candLo, t.candHi
		if t.pinned {
			// BMOD runs where block S is stored: the processor of BDIV(S).
			bd := s.BDivOf[t.Cell][t.S]
			p := s.Tasks[bd].Proc
			if p < 0 {
				return // not possible: pin edge guarantees BDIV mapped first
			}
			lo, hi = p, p+1
		}
		for p := lo; p < hi; p++ {
			heaps[p].push(readyItem{t.depth, t.Cell, id})
		}
	}
	for i := range s.Tasks {
		if s.Tasks[i].deps == 0 {
			pushReady(i)
		}
	}

	mapped := 0
	rank := 0
	for mapped < len(s.Tasks) {
		// Pick, among the heads of all ready heaps, the task from the lowest
		// (deepest) elimination-tree node.
		best := -1
		var bestItem readyItem
		for p := 0; p < P; p++ {
			for len(heaps[p]) > 0 && s.Tasks[heaps[p][0].id].Proc >= 0 {
				heaps[p].pop() // stale: already mapped via another heap
			}
			if len(heaps[p]) == 0 {
				continue
			}
			it := heaps[p][0]
			if best == -1 || it.less(bestItem) {
				best, bestItem = it.id, it
			}
		}
		if best == -1 {
			return fmt.Errorf("sched: deadlock with %d of %d tasks mapped", mapped, len(s.Tasks))
		}
		t := &s.Tasks[best]

		// Completion-time estimate per candidate processor; take the soonest.
		lo, hi := t.candLo, t.candHi
		if t.pinned {
			p := s.Tasks[s.BDivOf[t.Cell][t.S]].Proc
			lo, hi = p, p+1
		}
		if opts.FirstCandidate {
			hi = lo + 1
		}
		bestProc, bestEnd, bestStart := -1, 0.0, 0.0
		for q := lo; q < hi; q++ {
			arrival := 0.0
			for _, e := range in[inPtr[best]:inPtr[best+1]] {
				src := &s.Tasks[e.Dst]
				at := src.End
				if src.Proc != q && e.Kind != EdgePin {
					at += s.mach.SendTimeBetween(src.Proc, q, e.Elems*8)
				}
				if at > arrival {
					arrival = at
				}
			}
			start := timer[q]
			if arrival > start {
				start = arrival
			}
			end := start + t.execT
			if bestProc == -1 || end < bestEnd {
				bestProc, bestEnd, bestStart = q, end, start
			}
		}
		t.Proc = bestProc
		t.Start = bestStart
		t.End = bestEnd
		t.Rank = rank
		rank++
		timer[bestProc] = bestEnd
		s.ByProc[bestProc] = append(s.ByProc[bestProc], best)
		mapped++

		for _, e := range t.Outs {
			d := &s.Tasks[e.Dst]
			d.deps--
			if d.deps == 0 {
				pushReady(e.Dst)
			}
		}
	}
	for _, tm := range timer {
		if tm > s.Makespan {
			s.Makespan = tm
		}
	}
	return nil
}

// Validate checks schedule invariants: every task mapped exactly once onto a
// candidate processor, per-processor lists ordered by rank, and every
// dependency edge satisfied by the rank order.
func (s *Schedule) Validate() error {
	seen := make([]bool, len(s.Tasks))
	for p, list := range s.ByProc {
		prev := -1
		for _, id := range list {
			t := &s.Tasks[id]
			if seen[id] {
				return fmt.Errorf("sched: task %d scheduled twice", id)
			}
			seen[id] = true
			if t.Proc != p {
				return fmt.Errorf("sched: task %d on list of proc %d but assigned %d", id, p, t.Proc)
			}
			if t.Rank <= prev {
				return fmt.Errorf("sched: proc %d list not rank-ordered at task %d", p, id)
			}
			prev = t.Rank
			if !t.pinned && (t.Proc < t.candLo || t.Proc >= t.candHi) {
				return fmt.Errorf("sched: task %d mapped to %d outside candidates [%d,%d)",
					id, t.Proc, t.candLo, t.candHi)
			}
		}
	}
	for id := range s.Tasks {
		if !seen[id] {
			return fmt.Errorf("sched: task %d never scheduled", id)
		}
	}
	for i := range s.Tasks {
		for _, e := range s.Tasks[i].Outs {
			if s.Tasks[e.Dst].Rank <= s.Tasks[i].Rank {
				return fmt.Errorf("sched: edge %d→%d violates rank order", i, e.Dst)
			}
		}
	}
	// BMOD pinning.
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if t.Type == BMod {
			if bd := s.BDivOf[t.Cell][t.S]; s.Tasks[bd].Proc != t.Proc {
				return fmt.Errorf("sched: BMOD %d not on the processor of its BDIV(S)", i)
			}
		}
	}
	return nil
}

// Replay re-simulates the mapped schedule with fan-in aggregation modelled
// exactly (one message per source processor per destination task) and
// returns the makespan. This is the modelled parallel factorization time
// used for Table 2; it differs slightly from the greedy mapper's internal
// estimate because sends aggregate.
func (s *Schedule) Replay() float64 { return s.ReplayOn(s.mach) }

// ReplayOn replays the mapped schedule under a different machine profile —
// e.g. a schedule built with a flat network model replayed on an SMP
// topology, to quantify what topology-aware scheduling buys.
func (s *Schedule) ReplayOn(mach *cost.Machine) float64 {
	n := len(s.Tasks)
	// For each destination, group incoming AUB edges by source proc; track F
	// and Diag edges individually.
	type msg struct {
		elems int
		srcs  []int // contributing task ids
	}
	aubIn := make([]map[int]*msg, n) // dst -> srcProc -> aggregated message
	var directIn [][]Edge            // dst -> direct edges (src id in Dst field)
	directIn = make([][]Edge, n)
	for i := range s.Tasks {
		for _, e := range s.Tasks[i].Outs {
			switch e.Kind {
			case EdgeAUB:
				if s.Tasks[i].Proc == s.Tasks[e.Dst].Proc {
					directIn[e.Dst] = append(directIn[e.Dst], Edge{Dst: i, Kind: EdgePin})
					continue
				}
				if aubIn[e.Dst] == nil {
					aubIn[e.Dst] = make(map[int]*msg)
				}
				m := aubIn[e.Dst][s.Tasks[i].Proc]
				if m == nil {
					m = &msg{}
					aubIn[e.Dst][s.Tasks[i].Proc] = m
				}
				m.elems += e.Elems
				m.srcs = append(m.srcs, i)
			default:
				directIn[e.Dst] = append(directIn[e.Dst], Edge{Dst: i, Kind: e.Kind, Elems: e.Elems})
			}
		}
	}
	end := make([]float64, n)
	timer := make([]float64, s.P)
	// Execute in rank order (a topological order by construction).
	order := make([]int, n)
	for i := range s.Tasks {
		order[s.Tasks[i].Rank] = i
	}
	for _, id := range order {
		t := &s.Tasks[id]
		arrival := 0.0
		for _, e := range directIn[id] {
			at := end[e.Dst]
			if e.Kind != EdgePin && s.Tasks[e.Dst].Proc != t.Proc {
				at += mach.SendTimeBetween(s.Tasks[e.Dst].Proc, t.Proc, e.Elems*8)
			}
			if at > arrival {
				arrival = at
			}
		}
		for srcProc, m := range aubIn[id] {
			ready := 0.0
			for _, src := range m.srcs {
				if end[src] > ready {
					ready = end[src]
				}
			}
			if at := ready + mach.SendTimeBetween(srcProc, t.Proc, m.elems*8); at > arrival {
				arrival = at
			}
		}
		start := timer[t.Proc]
		if arrival > start {
			start = arrival
		}
		end[id] = start + t.execT
		timer[t.Proc] = end[id]
	}
	mk := 0.0
	for _, tm := range timer {
		if tm > mk {
			mk = tm
		}
	}
	return mk
}

// Stats summarises a schedule for reporting.
type Stats struct {
	NTasks                         int
	NComp1D, NFactor, NBDiv, NBMod int
	Makespan, SeqTime              float64
	LoadImbalance                  float64 // max proc busy time / mean busy time
	CommVolume                     int64   // bytes crossing processors (model)
	N2DCells                       int
}

// ComputeStats derives summary statistics from a mapped schedule.
func (s *Schedule) ComputeStats() Stats {
	st := Stats{NTasks: len(s.Tasks), Makespan: s.Makespan, SeqTime: s.SeqTime}
	busy := make([]float64, s.P)
	for i := range s.Tasks {
		t := &s.Tasks[i]
		busy[t.Proc] += t.execT
		switch t.Type {
		case Comp1D:
			st.NComp1D++
		case Factor:
			st.NFactor++
		case BDiv:
			st.NBDiv++
		case BMod:
			st.NBMod++
		}
		for _, e := range t.Outs {
			if e.Kind != EdgePin && s.Tasks[e.Dst].Proc != t.Proc {
				st.CommVolume += int64(e.Elems) * 8
			}
		}
	}
	cells := make(map[int]bool)
	for i := range s.Tasks {
		if s.Tasks[i].Type == Factor {
			cells[s.Tasks[i].Cell] = true
		}
	}
	st.N2DCells = len(cells)
	mean, mx := 0.0, 0.0
	for _, b := range busy {
		mean += b
		if b > mx {
			mx = b
		}
	}
	mean /= float64(s.P)
	if mean > 0 {
		st.LoadImbalance = mx / mean
	}
	return st
}

// MemoryPerProc returns the factor bytes owned by each processor under the
// schedule's data distribution (the quantity the paper's static regulation
// balances alongside work): COMP1D owners hold whole column blocks, FACTOR
// owners the dense diagonal triangles, BDIV owners their off-diagonal
// blocks.
func (s *Schedule) MemoryPerProc() []int64 {
	mem := make([]int64, s.P)
	sym := s.sym
	for k := range sym.CB {
		w := int64(sym.CB[k].Width())
		if id := s.Comp1DOf[k]; id >= 0 {
			mem[s.Tasks[id].Proc] += 8 * w * (w + int64(sym.CB[k].RowsBelow()))
			continue
		}
		mem[s.Tasks[s.FactorOf[k]].Proc] += 8 * w * (w + 1) / 2
		for b := range sym.CB[k].Blocks {
			mem[s.Tasks[s.BDivOf[k][b]].Proc] += 8 * w * int64(sym.CB[k].Blocks[b].Rows())
		}
	}
	return mem
}
