package solver

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix/internal/symbolic"
	"github.com/pastix-go/pastix/internal/trace"
)

// This file implements the level-set solve engine: triangular solves
// scheduled by a subtree mapping of the elimination tree (SolvePlan) instead
// of the factorization's proc mapping, over the factor's panel form
// (panels). Each column block streams its off-diagonal panel once per sweep:
// forward, one product t_k = −P_k·y_k; backward, one product x_k −= P_kᵀ·g
// over the facing x g, read through the panel row index. The engine is
// bitwise-identical to the sequential Factors.Solve for ANY worker count and
// any shared set, because it pushes below the shared top and pulls at it:
//
// The sequential solve adds each source cell's t into the entries it faces
// right after computing it, so every element takes its contributions in
// ascending source order. A cell's sources lie in its elimination subtree,
// so an owned cell's sources run before it on its own worker, ascending:
// owned cells run the reference's cell routine (cellSweep), adding their
// product straight into x. Only the rows that face shared cells — a suffix
// of the panel, as the shared set is ancestor-closed and blocks ascend —
// and a shared cell's whole product go to slots of a contribution buffer,
// which each shared cell pulls after the barrier in that same canonical
// (source, block) order into its segment, holding b alone. No two cells
// write the same slot or segment, so neither the execution order nor the
// cell→worker assignment can change a single bit. Backward, each cell reads
// the already-final facing entries (its own worker's, or shared and final
// after the barrier) through the row index. No kernel's per-element
// operation order depends on the leading dimension, so reading the strided
// cells in place perturbs nothing either.
//
// A split shared cell keeps the argument per element: the forward cell
// routine gives each panel row its updates in ascending column order, and
// the backward one sums each column over the panel rows in ascending order,
// whatever row or column range they are called on. So dividing a cell's
// panel rows (forward) or columns (backward) among workers leaves every
// element's operation sequence as it was.

// solveIn is one incoming contribution of a shared cell: rows entries of a
// column of the contribution buffer from t on, added to x from row on.
type solveIn struct{ t, row, rows int32 }

// solveIndex is the worker-independent part of every solve plan of one
// symbolic structure, built once per analysis and shared by its plans: the
// panel row index, the per-cell cost the plans balance on, and the tree's
// shape.
type solveIndex struct {
	// rows is the panel row index (Symbol.PanelRows), cell k's panel facing
	// x at rows[tOff[k]:tOff[k+1]].
	rows, tOff []int32
	// rbMax is the longest panel: the size of a worker's scratch.
	rbMax int
	cost  []int64 // triangular solves + both panel products + pushes + panel rows read
	sub   []int64 // the summed cost of the elimination subtree rooted at each cell
	// total is the summed cost: the one-worker plan owns every cell, so its
	// makespan is total plus one barrier.
	total int64
	// levels and maxWidth count the level sets of the solve's dependencies
	// and the cells of the widest: a cell's level is its subtree's height,
	// since every cell it faces is an ancestor and its parent the first.
	levels, maxWidth int
	// bufs holds the idle contribution buffers of every plan of the
	// structure, rhs the idle permuted right-hand sides of its callers.
	bufs, rhs bufPool
}

// newSolveIndex builds the row index and costs of sym.
func newSolveIndex(sym *symbolic.Symbol) *solveIndex {
	ncb := sym.NumCB()
	ix := &solveIndex{
		rows: sym.PanelRows(), cost: make([]int64, ncb), sub: make([]int64, ncb),
		bufs: make(bufPool, runtime.GOMAXPROCS(0)), rhs: make(bufPool, runtime.GOMAXPROCS(0)),
	}
	ix.tOff, ix.rbMax = panelOffsets(sym)
	height := make([]int32, ncb)
	for k := range sym.CB {
		w, rb := sym.CB[k].Width(), sym.CB[k].RowsBelow()
		ix.cost[k] = int64(w*w + 2*rb*w + 2*rb)
		ix.total += ix.cost[k]
		// Children have smaller indices than their parent, so sub[k] and
		// height[k] are complete here.
		ix.sub[k] += ix.cost[k]
		ix.levels = max(ix.levels, int(height[k])+1)
		if par := sym.Parent[k]; par >= 0 {
			ix.sub[par] += ix.sub[k]
			height[par] = max(height[par], height[k]+1)
		}
	}
	width := make([]int, ix.levels)
	for _, h := range height {
		width[h]++
		ix.maxWidth = max(ix.maxWidth, width[h])
	}
	return ix
}

// bufPool holds idle buffers, at most one per processor: more solves than
// processors never all run at once. Unlike a sync.Pool it keeps them across
// garbage collections, so a stream of solves allocates none.
type bufPool chan []float64

// get takes an idle buffer of at least n entries, or makes one.
func (bp bufPool) get(n int) []float64 {
	select {
	case b := <-bp:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]float64, n)
}

// put returns a buffer for the next solve to take, unless enough are idle
// already.
func (bp bufPool) put(b []float64) {
	select {
	case bp <- b:
	default:
	}
}

// SolvePlan is a reusable schedule for the level-set solve engine on a fixed
// worker count: a subtree mapping of the elimination tree, as the paper's
// proportional mapping gives whole subtrees to one processor and shares only
// the uppermost supernodes. Each worker owns whole subtrees and runs their
// cells with no synchronization; the cells above them are shared and run
// after one barrier, those the cost model says pay split across the workers
// (panel rows forward, columns backward). Plans are immutable and cached per
// (Analysis, workers) — see Analysis.SolvePlanFor.
type SolvePlan struct {
	sym     *symbolic.Symbol
	ix      *solveIndex
	workers int

	owned  [][]int32 // per worker: the cells of its subtrees, ascending
	shared []int32   // the cells above every owned subtree, ascending

	// slot lays out the contribution buffer: cell k's slot holds the last
	// slot[k+1]−slot[k] rows of its panel product, those that face shared
	// cells (every row of a shared cell's), in rows [slot[k], slot[k+1]) of
	// each column. ins[k] lists shared cell k's incoming contributions.
	slot []int32
	ins  [][]solveIn

	split      []bool // per cell: a shared cell every worker takes part in
	splitCells int
	// makespan is the plan's predicted time in cost units, barriers and
	// worker start-up included.
	makespan int64
}

// PlanStats summarizes a SolvePlan for reporting (the service returns it
// from /v1/factorize and /v1/solve). Workers is the number of workers the
// engine runs the plan on; Cells counts the column blocks, Levels the level
// sets of the solve's dependency graph (the cells on the longest
// leaf-to-root path of the elimination tree) and MaxLevelWidth the cells of
// the widest. ParallelSteps is 1 on several workers (they run their owned
// subtrees at once), else 0; ChainCells counts the shared cells and
// SplitCells those every worker takes part in.
type PlanStats struct {
	Workers       int `json:"workers"`
	Cells         int `json:"cells"`
	Levels        int `json:"levels"`
	ParallelSteps int `json:"parallel_steps"`
	ChainCells    int `json:"chain_cells"`
	SplitCells    int `json:"split_cells"`
	MaxLevelWidth int `json:"max_level_width"`
}

// Stats reports the plan's shape.
func (pl *SolvePlan) Stats() PlanStats {
	st := PlanStats{
		Workers:       pl.workers,
		Cells:         pl.sym.NumCB(),
		Levels:        pl.ix.levels,
		ChainCells:    len(pl.shared),
		SplitCells:    pl.splitCells,
		MaxLevelWidth: pl.ix.maxWidth,
	}
	if pl.workers > 1 {
		st.ParallelSteps = 1
	}
	return st
}

// Cost model charges, in the units of the per-cell cost proxy (one unit
// takes about 0.4–0.9 ns on the 2-core x86-64 host the charges were measured
// on, AVX2 kernels).
const (
	// barrierCharge is one barrier as the engine pays it: the generation
	// swap itself (about 0.3 µs, BenchmarkSolveBarrier) plus the skew and
	// cache-line traffic around it. Fitted to one- against two-worker engine
	// times on 3-D Poisson 8³–24³: about 3.5 µs a barrier.
	barrierCharge = 4000
	// spawnCharge is taking one more worker for a solve. Alone on the
	// machine that costs a few µs (BenchmarkSolveSpawn), but where other
	// goroutines share the cores the extra worker has to wait for one: two
	// callers solving Poisson 12³ over HTTP on 2 cores spent 0.45 ms per
	// solve in the engine on two workers against 0.35 ms on one, about 160k
	// units over the two-worker makespan predicted without this charge.
	spawnCharge = 160000
)

// planOn builds a solve plan of sym for the given workers: the shared top
// of the elimination tree with the lowest predicted makespan, its subtrees
// assigned to the workers, and the split of every shared cell that the cost
// model predicts runs faster across the workers than on one. It leaves the
// buffer of a one-RHS solve in the index's pool.
func planOn(sym *symbolic.Symbol, ix *solveIndex, workers int) *SolvePlan {
	pl := &SolvePlan{sym: sym, ix: ix, workers: max(workers, 1)}
	pl.mapSubtrees(pl.searchShared())
	ix.bufs.put(make([]float64, pl.bufLen(1)))
	return pl
}

// searchShared picks the shared top of the elimination tree. Starting from
// the roots as candidate subtrees, it repeatedly makes the heaviest
// candidate's root shared and its children candidates, assigns the
// candidates to the workers by longest processing time first after every
// step, and returns the shared set of the step with the lowest predicted
// makespan. It stops once no further step can beat that: the shared cells'
// time only grows, and the owned subtrees take at least their summed cost
// over the workers.
func (pl *SolvePlan) searchShared() []bool {
	ix, parent := pl.ix, pl.sym.Parent
	ncb := len(parent)
	kidPtr := make([]int32, ncb+1) // cell k's children are kids[kidPtr[k]:kidPtr[k+1]]
	for _, par := range parent {
		if par >= 0 {
			kidPtr[par+1]++
		}
	}
	for k := range ncb {
		kidPtr[k+1] += kidPtr[k]
	}
	kids, next := make([]int32, kidPtr[ncb]), slices.Clone(kidPtr[:ncb])
	var cands []int32
	for k, par := range parent {
		if par < 0 {
			cands = append(cands, int32(k))
		} else {
			kids[next[par]] = int32(k)
			next[par]++
		}
	}
	heavier := heavierFirst(ix.sub)
	slices.SortFunc(cands, heavier)
	loads := make([]int64, pl.workers)
	var expanded []int32
	var sharedSpan int64
	ownedCost := ix.total
	best, bestN := pl.span(lpt(cands, ix.sub, loads, nil), 0, false), 0
	for len(cands) > 0 {
		k := cands[0]
		cands = slices.Delete(cands, 0, 1)
		expanded = append(expanded, k)
		c, _ := pl.sharedCost(int(k))
		sharedSpan += c
		ownedCost -= ix.cost[k]
		for _, ch := range kids[kidPtr[k]:kidPtr[k+1]] {
			i, _ := slices.BinarySearchFunc(cands, ch, heavier)
			cands = slices.Insert(cands, i, ch)
		}
		if pl.span(ownedCost/int64(pl.workers), sharedSpan, true) >= best {
			break
		}
		if s := pl.span(lpt(cands, ix.sub, loads, nil), sharedSpan, true); s < best {
			best, bestN = s, len(expanded)
		}
	}
	shared := make([]bool, ncb)
	for _, k := range expanded[:bestN] {
		shared[k] = true
	}
	return shared
}

// span is the predicted makespan of a plan whose busiest worker owns load
// and whose shared cells take sharedSpan: one barrier between the sweeps,
// two more around the shared cells when there are any, and the start-up of
// every worker beyond the first.
func (pl *SolvePlan) span(load, sharedSpan int64, anyShared bool) int64 {
	s := load + sharedSpan + barrierCharge + int64(pl.workers-1)*spawnCharge
	if anyShared {
		s += 2 * barrierCharge
	}
	return s
}

// heavierFirst orders subtree roots by descending subtree cost, then by
// ascending index.
func heavierFirst(sub []int64) func(a, b int32) int {
	return func(a, b int32) int {
		if c := cmp.Compare(sub[b], sub[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
}

// lpt assigns the subtrees rooted at cands, heaviest first, each to the
// least loaded worker (the lowest index on a tie), and returns the largest
// load. loads is scratch of one entry per worker; owner, when non-nil,
// receives each root's worker.
func lpt(cands []int32, sub, loads []int64, owner []int32) int64 {
	clear(loads)
	for _, c := range cands {
		p := 0
		for q := range loads {
			if loads[q] < loads[p] {
				p = q
			}
		}
		loads[p] += sub[c]
		if owner != nil {
			owner[c] = int32(p)
		}
	}
	return slices.Max(loads)
}

// mapSubtrees fills the plan for the given shared set, which must hold the
// ancestors of each of its cells: the subtrees below it go to the workers by
// longest processing time first, every shared cell is split or not by the
// cost model, the makespan is predicted and the contribution buffer laid
// out.
func (pl *SolvePlan) mapSubtrees(shared []bool) {
	ix, parent := pl.ix, pl.sym.Parent
	ncb := len(parent)
	var cands []int32
	for k, par := range parent {
		if !shared[k] && (par < 0 || shared[par]) {
			cands = append(cands, int32(k))
		}
	}
	slices.SortFunc(cands, heavierFirst(ix.sub))
	owner := make([]int32, ncb)
	load := lpt(cands, ix.sub, make([]int64, pl.workers), owner)
	// Parents have larger indices, so a descending pass sees every parent's
	// owner before its children.
	for k := ncb - 1; k >= 0; k-- {
		if par := parent[k]; shared[k] {
			owner[k] = -1
		} else if par >= 0 && !shared[par] {
			owner[k] = owner[par]
		}
	}
	pl.owned = make([][]int32, pl.workers)
	pl.shared, pl.split, pl.splitCells = nil, make([]bool, ncb), 0
	var sharedSpan int64
	for k, p := range owner {
		if p >= 0 {
			pl.owned[p] = append(pl.owned[p], int32(k))
			continue
		}
		pl.shared = append(pl.shared, int32(k))
		c, split := pl.sharedCost(k)
		sharedSpan += c
		if split {
			pl.split[k] = true
			pl.splitCells++
		}
	}
	pl.makespan = pl.span(load, sharedSpan, len(pl.shared) > 0)
	pl.layOutSlots(shared)
}

// layOutSlots gives every panel row that faces a shared cell a slot in the
// contribution buffer, a suffix of its panel, and lists each shared cell's
// incoming slots in canonical order.
func (pl *SolvePlan) layOutSlots(shared []bool) {
	pl.slot, pl.ins = make([]int32, pl.sym.NumCB()+1), make([][]solveIn, pl.sym.NumCB())
	for k := range pl.sym.CB {
		t := pl.slot[k]
		for _, blk := range pl.sym.CB[k].Blocks {
			if shared[blk.Facing] {
				pl.ins[blk.Facing] = append(pl.ins[blk.Facing], solveIn{t: t, row: int32(blk.FirstRow), rows: int32(blk.Rows())})
				t += int32(blk.Rows())
			}
		}
		pl.slot[k+1] = t
	}
}

// bufLen is the buffer a solve of nrhs right-hand sides on the plan takes:
// its slots per right-hand side, then each worker's scratch.
func (pl *SolvePlan) bufLen(nrhs int) int {
	return int(pl.slot[len(pl.slot)-1])*nrhs + pl.workers*pl.ix.rbMax
}

// sharedCost returns the predicted time of shared cell k and whether it runs
// across the workers. Split, worker 0 alone pulls and runs both triangular
// solves; the forward panel product divides by panel row and the backward
// one by column, every worker gathering the whole panel's x for its
// columns; two barriers per sweep.
func (pl *SolvePlan) sharedCost(k int) (int64, bool) {
	cost := pl.ix.cost[k]
	if pl.workers == 1 {
		return cost, false
	}
	nw := int64(pl.workers)
	w, rb := int64(pl.sym.CB[k].Width()), int64(pl.sym.CB[k].RowsBelow())
	split := cost - 2*rb*w + (rb+nw-1)/nw*w + (w+nw-1)/nw*rb + 4*barrierCharge
	if split >= cost {
		return cost, false
	}
	return split, true
}

// solveIndex returns the row index and costs every solve plan of the
// analysis shares, built on first use.
func (an *Analysis) solveIndex() *solveIndex {
	an.indexOnce.Do(func() {
		an.index = newSolveIndex(an.Sym)
	})
	return an.index
}

// RHSBuffer takes an idle buffer of n entries for a caller's permuted
// right-hand side, or makes one; ReleaseRHS hands it back once the solve is
// done with it, so a stream of solves allocates only their solutions.
func (an *Analysis) RHSBuffer(n int) []float64 { return an.solveIndex().rhs.get(n) }

// ReleaseRHS returns a buffer RHSBuffer handed out.
func (an *Analysis) ReleaseRHS(b []float64) { an.solveIndex().rhs.put(b) }

// SolvePlanFor returns the cached level-set solve plan for exactly the given
// worker count, building it on first request. Plans are immutable; the cache
// is a sync.Map keyed by worker count.
func (an *Analysis) SolvePlanFor(workers int) *SolvePlan {
	if workers < 1 {
		workers = 1
	}
	if v, ok := an.solvePlans.Load(workers); ok {
		return v.(*SolvePlan)
	}
	pl := planOn(an.Sym, an.solveIndex(), workers)
	v, _ := an.solvePlans.LoadOrStore(workers, pl)
	return v.(*SolvePlan)
}

// SolvePlan returns the plan solves of this analysis run: the plan for the
// schedule's processor count when its predicted makespan beats one worker's,
// else the one-worker plan (small problems, where the barriers and the extra
// goroutines cost more than the parallel cells save). One worker owns every
// cell, so its makespan is known without its plan.
func (an *Analysis) SolvePlan() *SolvePlan {
	if an.Sched.P > 1 {
		if pl := an.SolvePlanFor(an.Sched.P); pl.makespan < an.solveIndex().total+barrierCharge {
			return pl
		}
	}
	return an.SolvePlanFor(1)
}

// PrepareSolve returns the stats of the solve plan, building it if the
// analysis has not (Analyze does), so a serving layer pays the whole
// solve-planning cost before the first request. The factor needs no
// preparation: every solve engine reads the cells the factorization wrote.
func (an *Analysis) PrepareSolve(*Factors) PlanStats {
	return an.SolvePlan().Stats()
}

// LevelOptions configures one level-set solve.
type LevelOptions struct {
	// NRHS is the number of right-hand sides (<= 0 means 1); b is an
	// n×NRHS column-major panel.
	NRHS int
	// Trace records each worker's forward and backward sweep, and every
	// wait in a barrier, as phase events (nil disables tracing).
	Trace *trace.Recorder
}

// SolveLevelCtx runs the level-set solve engine on the plan: forward sweep,
// diagonal scaling and backward sweep over the factor's panels, with one
// barrier between the owned and the shared cells of each sweep, one between
// the sweeps and two per split shared cell. Worker 0 runs on the
// calling goroutine. Each column of the result is bitwise-identical to the
// sequential Factors.Solve of that column: every column keeps the single-RHS
// division semantics, however wide the panel. b is not modified.
// Cancelling ctx aborts at the next barrier on every worker and returns
// ctx.Err().
func SolveLevelCtx(ctx context.Context, pl *SolvePlan, f *Factors, b []float64, opts LevelOptions) ([]float64, error) {
	x := append([]float64(nil), b...)
	if err := SolveLevelInPlace(ctx, pl, f, x, opts); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveLevelInPlace is SolveLevelCtx on x, the n×NRHS column-major panel of
// right-hand sides, which it overwrites with the solution. After an error x
// holds no meaningful values.
func SolveLevelInPlace(ctx context.Context, pl *SolvePlan, f *Factors, x []float64, opts LevelOptions) error {
	nrhs := opts.NRHS
	if nrhs <= 0 {
		nrhs = 1
	}
	sym := pl.sym
	if f.Sym != sym {
		return fmt.Errorf("solver: factor was not built from the plan's symbolic structure")
	}
	if len(x) != sym.N*nrhs {
		return fmt.Errorf("solver: rhs panel length %d, want n×nrhs = %d×%d: %w", len(x), sym.N, nrhs, ErrShape)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	nt := int(pl.slot[len(pl.slot)-1])
	buf := pl.ix.bufs.get(pl.bufLen(nrhs))
	defer pl.ix.bufs.put(buf)
	r := &levelRun{
		pl: pl, rec: opts.Trace, ctx: ctx,
		sweep: cellSweep[float64]{
			p: f.panels(), rows: pl.ix.rows, tOff: pl.ix.tOff, slot: pl.slot,
			x: x, out: buf[:nt*nrhs], n: sym.N, nt: nt, nrhs: nrhs,
		},
		scratch: buf[nt*nrhs:],
		bar:     spinBarrier{n: int32(pl.workers)},
	}
	if ctx.Done() != nil {
		r.check = r.checkCtx
	}
	var wg sync.WaitGroup
	wg.Add(pl.workers - 1)
	for p := 1; p < pl.workers; p++ {
		go func(p int) {
			defer wg.Done()
			r.worker(p)
		}(p)
	}
	if pl.workers > 1 {
		// Yield once, so the worker just started does not sit in this
		// processor's run-next slot, which an idle processor does not take
		// at once (it started about 60 µs late on a 24³ solve).
		runtime.Gosched()
	}
	r.worker(0)
	wg.Wait()
	if r.err != nil {
		return r.err
	}
	return ctx.Err()
}

// levelRun is the per-call state of one level-set solve.
type levelRun struct {
	pl  *SolvePlan
	rec *trace.Recorder
	ctx context.Context

	// sweep runs the cells on the caller's panel x, out the contribution
	// buffer: the forward sweep leaves y in x, and the backward sweep
	// overwrites each cell's segment with the solution in place — a cell
	// reads its own y before writing its x, and otherwise only the x of the
	// final cells it faces. Each worker runs a copy with its own scratch.
	sweep   cellSweep[float64]
	scratch []float64

	bar spinBarrier
	// check is r.checkCtx, run by the last worker into each barrier (nil
	// for a context that is never done).
	check func()
	// stop is the verdict of the last check: written only by the last
	// worker into a barrier, before it releases the others, and read by
	// every worker right after that barrier, so all of them read the same
	// value and leave together. err is the context error behind it.
	stop atomic.Bool
	err  error
}

// checkCtx stops the run when the context is done.
func (r *levelRun) checkCtx() {
	if err := r.ctx.Err(); err != nil {
		r.err = err
		r.stop.Store(true)
	}
}

// sync waits at the barrier and reports whether the run goes on. Every
// worker makes the identical sequence of sync calls, fixed by the plan, so
// the barrier generations line up and a stop verdict unwinds all workers at
// the same barrier.
func (r *levelRun) sync(p int) bool {
	if r.rec == nil {
		r.bar.wait(r.check)
	} else {
		start := r.rec.Now()
		r.bar.wait(r.check)
		r.rec.Phase(p, trace.PhaseBarrier, start, r.rec.Now())
	}
	return !r.stop.Load()
}

// worker runs both sweeps. Forward: its owned cells in ascending order,
// with no synchronization (a cell's sources all lie in its own subtree), a
// barrier, then the shared cells and a barrier. Backward, the mirror image:
// the shared cells in descending order, a barrier, then its owned cells in
// descending order (the cells they face are its own or shared). The last
// owned cell needs no barrier: the caller joins the workers instead. Without
// shared cells one barrier between the sweeps is all.
func (r *levelRun) worker(p int) {
	var start time.Duration
	if r.rec != nil {
		start = r.rec.Now()
	}
	sw, rb := r.sweep, r.pl.ix.rbMax
	sw.t = r.scratch[p*rb : (p+1)*rb]
	owned, shared := r.pl.owned[p], len(r.pl.shared) > 0
	for _, k := range owned {
		sw.forward(int(k))
	}
	if !r.sync(p) || shared && (!r.chain(p, true, &sw) || !r.sync(p)) {
		return
	}
	if r.rec != nil {
		r.rec.Phase(p, trace.PhaseForward, start, r.rec.Now())
		start = r.rec.Now()
	}
	if shared && (!r.chain(p, false, &sw) || !r.sync(p)) {
		return
	}
	for i := len(owned) - 1; i >= 0; i-- {
		k := int(owned[i])
		sw.backward(k, true, 0, r.pl.sym.CB[k].Width())
	}
	if r.rec != nil {
		r.rec.Phase(p, trace.PhaseBackward, start, r.rec.Now())
	}
}

// chain runs the shared cells in ascending order (descending backward) on
// worker p, whose cell sweep is sw. Worker 0 runs the unsplit cells alone.
// A split cell takes every worker. Forward: worker 0 pulls and solves, a
// barrier, each worker's rows of the panel product, then a barrier so
// worker 0 can read t_k (the closing barrier of the sweep when the cell is
// the last). Backward: a barrier so worker 0's earlier cells are visible
// (none is needed for the first cell, which follows the barrier between the
// sweeps), each worker's columns, a barrier, then worker 0's triangular
// solve — which the next split cell's first barrier, or the closing
// barrier, publishes.
func (r *levelRun) chain(p int, fwd bool, sw *cellSweep[float64]) bool {
	cells, nw := r.pl.shared, r.pl.workers
	last := len(cells) - 1
	for i := range cells {
		k := int(cells[i])
		if !fwd {
			k = int(cells[last-i])
		}
		w := r.pl.sym.CB[k].Width()
		if !r.pl.split[k] {
			if p == 0 && fwd {
				r.forward(k, true, 0, r.pl.sym.CB[k].RowsBelow())
			} else if p == 0 {
				sw.backward(k, true, 0, w)
			}
			continue
		}
		if fwd {
			if p == 0 {
				r.forward(k, true, 0, 0)
			}
			if !r.sync(p) {
				return false
			}
			rb := r.pl.sym.CB[k].RowsBelow()
			r.forward(k, false, p*rb/nw, (p+1)*rb/nw)
			if i < last && !r.sync(p) {
				return false
			}
			continue
		}
		if i > 0 && !r.sync(p) {
			return false
		}
		sw.backward(k, false, p*w/nw, (p+1)*w/nw)
		if !r.sync(p) {
			return false
		}
		if p == 0 {
			sw.backward(k, true, 0, 0)
		}
	}
	return true
}

// forward runs shared cell k's forward solve, one right-hand side at a
// time: with tri, its incoming contributions in canonical (source, block)
// order and the unit-lower triangle; then rows [lo, hi) of the panel
// product t_k = −P_k·y_k into its slot.
func (r *levelRun) forward(k int, tri bool, lo, hi int) {
	cb, s := &r.pl.sym.CB[k], &r.sweep
	t0, t1 := int(r.pl.slot[k]), int(r.pl.slot[k+1])
	for c := 0; c < s.nrhs; c++ {
		x, t := s.x[c*s.n:(c+1)*s.n], s.out[c*s.nt:(c+1)*s.nt]
		if tri {
			for _, in := range r.pl.ins[k] {
				for i, ti := range t[in.t : in.t+in.rows] {
					x[int(in.row)+i] += ti
				}
			}
		}
		s.p.forward(k, tri, lo, hi, x[cb.Cols[0]:cb.Cols[1]], t[t0:t1])
	}
}

// barrierSpin is how many times a barrier waiter polls before it starts
// yielding its thread on every poll.
const barrierSpin = 256

// spinBarrier is a reusable generation barrier that never parks: a waiter
// polls the generation and, after barrierSpin polls, yields with
// runtime.Gosched on every further poll, so it never sleeps in the OS (a
// park and a wake-up cost more than a whole solve step) and still lets a
// worker without a thread of its own run when there are more workers than
// GOMAXPROCS.
type spinBarrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
}

// wait returns once all n workers have called it for the current
// generation. The last to arrive runs last (if non-nil) before it releases
// the others, so whatever last writes is visible to every worker after
// wait.
func (b *spinBarrier) wait(last func()) {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		if last != nil {
			last()
		}
		b.count.Store(0)
		b.gen.Store(g + 1)
		return
	}
	for i := 0; b.gen.Load() == g; i++ {
		if i >= barrierSpin {
			runtime.Gosched()
		}
	}
}
