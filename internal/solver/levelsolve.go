package solver

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/symbolic"
	"github.com/pastix-go/pastix/internal/trace"
)

// This file implements the level-set solve engine: triangular solves
// scheduled by the solve DAG's level sets (sched.SolveDAG) instead of the
// factorization's proc mapping, over the factor's packed cells (compress.go).
// The engine is bitwise-identical to the sequential Factors.Solve for ANY
// worker count, any hybrid cutoff and either dispatch mode, because of a
// consumer-pull determinism argument:
//
// The sequential forward sweep updates each destination segment x_f by the
// contributions of (source cell k, block bi) in ascending (k, bi) order,
// interleaved with updates to other destinations — but per element of x_f
// the order is exactly ascending (k, bi). Here every destination cell pulls
// its own incoming contributions, applying them in that same canonical
// order directly into its b-initialized segment; level sets guarantee every
// source segment is final before any consumer in a later level reads it, and
// no two cells write the same segment. So neither the within-level execution
// order nor the cell→worker assignment can change a single bit. The backward
// sweep is symmetric (each cell folds its own blocks' dot products in block
// order). No kernel's per-element operation order depends on the leading
// dimension, so reading packed cells does not perturb results either.
//
// A split chain cell keeps the argument per element: GemvN gives each
// destination row its updates in ascending source-column order, and GemvT
// sums each column over the rows in ascending order, whatever row or column
// range they are called on. So dividing a cell's rows (forward) or columns
// (backward) among workers, each applying every contribution to its own
// range in canonical order, leaves every element's operation sequence as it
// was.

// solveIn is one incoming forward contribution of a destination cell: block
// bi of source cell src. Its rows in the destination's segment follow from
// the block. Lists are built in canonical (src, bi) order.
type solveIn struct {
	src int32
	bi  int32
}

// solvePulls is the worker-independent part of every solve plan of one
// symbolic structure, built once per analysis and shared by its plans:
// each cell's incoming forward contributions and the per-cell cost the
// plans balance on.
type solvePulls struct {
	ptr  []int32   // cell k's contributions are ins[ptr[k]:ptr[k+1]]
	ins  []solveIn // in canonical order per destination cell
	cost []int64   // forward pulls + backward dots + the triangular solves
	// total is the summed cost: the one-worker plan runs every cell in a
	// single chain step, so its makespan is total plus one barrier.
	total int64
}

// newSolvePulls builds the pull lists and costs of sym.
func newSolvePulls(sym *symbolic.Symbol) *solvePulls {
	ncb := sym.NumCB()
	sp := &solvePulls{ptr: make([]int32, ncb+1), cost: make([]int64, ncb)}
	for k := range sym.CB {
		for _, blk := range sym.CB[k].Blocks {
			sp.ptr[blk.Facing+1]++
		}
	}
	for k := 0; k < ncb; k++ {
		sp.ptr[k+1] += sp.ptr[k]
	}
	sp.ins = make([]solveIn, sp.ptr[ncb])
	next := slices.Clone(sp.ptr[:ncb]) // per-cell fill cursors
	for k := range sym.CB {
		for bi, blk := range sym.CB[k].Blocks {
			sp.ins[next[blk.Facing]] = solveIn{src: int32(k), bi: int32(bi)}
			next[blk.Facing]++
		}
	}
	for k := range sym.CB {
		cb := &sym.CB[k]
		w := int64(cb.Width())
		c := w*w + 16
		for _, in := range sp.in(k) {
			c += int64(sym.CB[in.src].Blocks[in.bi].Rows()) * int64(sym.CB[in.src].Width())
		}
		c += int64(cb.RowsBelow()) * w
		sp.cost[k] = c
		sp.total += c
	}
	return sp
}

// in returns cell k's incoming contributions.
func (sp *solvePulls) in(k int) []solveIn { return sp.ins[sp.ptr[k]:sp.ptr[k+1]] }

// SolvePlan is a reusable schedule for the level-set solve engine on a fixed
// worker count: the hybrid steps, a cost-balanced contiguous partition of
// each parallel step, and the chain cells whose rows (forward) and columns
// (backward) are split across the workers. Plans are immutable and cached
// per (Analysis, workers) — see Analysis.SolvePlanFor.
type SolvePlan struct {
	sym     *symbolic.Symbol
	dag     *sched.SolveDAG
	pulls   *solvePulls
	steps   []sched.SolveStep
	parts   [][][]int32 // per parallel step: worker -> contiguous cell run
	workers int
	cutoff  int

	// rowCut is nil when no chain cell is split. Otherwise rowCut[k] is nil
	// for a cell one worker runs whole, and for a split chain cell the
	// workers+1 bounds of each worker's forward destination rows, balanced
	// by pull volume.
	rowCut     [][]int32
	splitCells int
	// makespan is the plan's predicted time in cost units, barriers and
	// worker start-up included.
	makespan int64
}

// cut returns chain cell k's row bounds, nil when one worker runs it.
func (pl *SolvePlan) cut(k int) []int32 {
	if pl.rowCut == nil {
		return nil
	}
	return pl.rowCut[k]
}

// PlanStats summarizes a SolvePlan for reporting (the service returns it
// from /v1/factorize and /v1/solve). Workers is the number of workers the
// engine runs the plan on; SplitCells counts the chain cells every worker
// takes part in.
type PlanStats struct {
	Workers       int `json:"workers"`
	Cells         int `json:"cells"`
	Levels        int `json:"levels"`
	ParallelSteps int `json:"parallel_steps"`
	ChainSteps    int `json:"chain_steps"`
	ChainCells    int `json:"chain_cells"`
	SplitCells    int `json:"split_cells"`
	MaxLevelWidth int `json:"max_level_width"`
	Cutoff        int `json:"cutoff"`
}

// Stats reports the plan's shape.
func (pl *SolvePlan) Stats() PlanStats {
	st := PlanStats{
		Workers:       pl.workers,
		Cells:         pl.sym.NumCB(),
		Levels:        pl.dag.Depth(),
		SplitCells:    pl.splitCells,
		MaxLevelWidth: pl.dag.MaxWidth,
		Cutoff:        pl.cutoff,
	}
	for _, s := range pl.steps {
		if s.Parallel {
			st.ParallelSteps++
		} else {
			st.ChainSteps++
			st.ChainCells += len(s.Cells)
		}
	}
	return st
}

// Workers returns the worker count the plan runs on.
func (pl *SolvePlan) Workers() int { return pl.workers }

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

// BuildSolvePlan builds a level-set solve plan: hybrid steps from the DAG
// (cutoff <= 0 selects sched.DefaultSolveCutoff), per-cell pull lists in
// canonical order, a cost-balanced contiguous partition of every parallel
// step across the workers, and the split of every chain cell that the cost
// model predicts runs faster across the workers than on one.
func BuildSolvePlan(sym *symbolic.Symbol, dag *sched.SolveDAG, workers, cutoff int) *SolvePlan {
	return planOn(sym, dag, newSolvePulls(sym), workers, cutoff)
}

// planOn is BuildSolvePlan on pull lists already built for sym.
func planOn(sym *symbolic.Symbol, dag *sched.SolveDAG, pulls *solvePulls, workers, cutoff int) *SolvePlan {
	if workers < 1 {
		workers = 1
	}
	if cutoff <= 0 {
		cutoff = sched.DefaultSolveCutoff(workers)
	}
	steps := dag.HybridSteps(workers, cutoff)
	cost := pulls.cost
	pl := &SolvePlan{
		sym: sym, dag: dag, pulls: pulls, steps: steps,
		workers: workers, cutoff: cutoff,
		parts: make([][][]int32, len(steps)),
	}
	// The predicted makespan: every step ends in a barrier per sweep (the
	// last backward one is the join), every split cell adds two per sweep.
	span := int64(2*len(steps)-1) * barrierCharge
	for si, st := range steps {
		if st.Parallel {
			pl.parts[si] = splitByCost(st.Cells, cost, workers)
			var worst int64
			for _, part := range pl.parts[si] {
				var c int64
				for _, k := range part {
					c += cost[k]
				}
				worst = max(worst, c)
			}
			span += worst
			continue
		}
		for _, k := range st.Cells {
			span += pl.splitChainCell(int(k))
		}
	}
	if workers > 1 {
		span += int64(workers-1) * spawnCharge
	}
	pl.makespan = span
	return pl
}

// splitChainCell decides whether chain cell k runs across the workers and
// returns its predicted time. Split, the forward pulls divide by destination
// row (balanced by each row's pull volume), the backward dots by column
// (every column costs the same), and worker 0 alone runs both triangular
// solves, between two barriers per sweep.
func (pl *SolvePlan) splitChainCell(k int) int64 {
	cost := pl.pulls.cost[k]
	if pl.workers == 1 {
		return cost
	}
	cb := &pl.sym.CB[k]
	w := cb.Width()
	cut, worst := pl.pullCut(k)
	cols := int64((w + pl.workers - 1) / pl.workers)
	split := worst + cols*int64(cb.RowsBelow()) + int64(w*w+16) + 4*barrierCharge
	if split >= cost {
		return cost
	}
	if pl.rowCut == nil {
		pl.rowCut = make([][]int32, pl.sym.NumCB())
	}
	pl.rowCut[k] = cut
	pl.splitCells++
	return split
}

// pullCut splits cell k's rows into one contiguous range per worker, balanced
// by pull volume (a row's volume is the summed width of the sources that
// update it), and returns the workers+1 bounds and the largest share.
func (pl *SolvePlan) pullCut(k int) ([]int32, int64) {
	fcb := &pl.sym.CB[k]
	w := fcb.Width()
	pre := make([]int64, w+1) // per-row volume deltas, then prefix sums
	for _, in := range pl.pulls.in(k) {
		scb := &pl.sym.CB[in.src]
		blk := &scb.Blocks[in.bi]
		sw := int64(scb.Width())
		pre[blk.FirstRow-fcb.Cols[0]] += sw
		pre[blk.LastRow-fcb.Cols[0]] -= sw
	}
	var row, total int64
	for i := 0; i < w; i++ {
		row += pre[i]
		pre[i] = total
		total += row
	}
	pre[w] = total
	cut := make([]int32, pl.workers+1)
	var worst int64
	for p, i := 1, 0; p <= pl.workers; p++ {
		target := total * int64(p) / int64(pl.workers)
		for i < w && pre[i+1] <= target {
			i++
		}
		if p == pl.workers {
			i = w
		}
		cut[p] = int32(i)
		worst = max(worst, pre[i]-pre[cut[p-1]])
	}
	return cut, worst
}

// splitByCost partitions cells into at most `workers` contiguous runs of
// near-equal total cost (contiguity keeps each worker on neighbouring cells
// and right-hand-side segments).
func splitByCost(cells []int32, cost []int64, workers int) [][]int32 {
	parts := make([][]int32, workers)
	var total int64
	for _, c := range cells {
		total += cost[c]
	}
	i := 0
	rem := total
	for p := 0; p < workers && i < len(cells); p++ {
		if workers-p == 1 {
			parts[p] = cells[i:]
			i = len(cells)
			break
		}
		target := (rem + int64(workers-p) - 1) / int64(workers-p)
		start := i
		var acc int64
		for i < len(cells) && acc < target {
			acc += cost[cells[i]]
			i++
		}
		parts[p] = cells[start:i]
		rem -= acc
	}
	return parts
}

// SolveDAG returns the analysis's solve DAG, built on first use (internally
// synchronized; safe for concurrent callers).
func (an *Analysis) SolveDAG() *sched.SolveDAG {
	an.solveDAGOnce.Do(func() {
		an.solveDAG = sched.BuildSolveDAG(an.Sym)
	})
	return an.solveDAG
}

// solvePulls returns the pull lists and costs every solve plan of the
// analysis shares, built on first use.
func (an *Analysis) solvePulls() *solvePulls {
	an.pullsOnce.Do(func() {
		an.pulls = newSolvePulls(an.Sym)
	})
	return an.pulls
}

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
	pl := planOn(an.Sym, an.SolveDAG(), an.solvePulls(), workers, 0)
	v, _ := an.solvePlans.LoadOrStore(workers, pl)
	return v.(*SolvePlan)
}

// SolvePlan returns the plan solves of this analysis run: the plan for the
// schedule's processor count when its predicted makespan beats one worker's,
// else the one-worker plan (small problems, where the barriers and the extra
// goroutines cost more than the parallel cells save). One worker runs every
// cell in a single chain step, so its makespan is known without its plan.
func (an *Analysis) SolvePlan() *SolvePlan {
	if an.Sched.P > 1 {
		if pl := an.SolvePlanFor(an.Sched.P); pl.makespan < an.solvePulls().total+barrierCharge {
			return pl
		}
	}
	return an.SolvePlanFor(1)
}

// PrepareSolve eagerly builds the solve plan, so a serving layer can pay the
// whole solve-planning cost at factorize time instead of on the first
// request. The factor needs no preparation: factorization already left it in
// the packed layout every solve engine reads.
func (an *Analysis) PrepareSolve(*Factors) PlanStats {
	return an.SolvePlan().Stats()
}

// LevelStats carries per-worker observability of one level-set solve:
// Executed[p] counts the parallel-step cells worker p ran. Chain cells are
// not counted, split ones included.
type LevelStats struct {
	Executed []int64
}

// LevelOptions configures one level-set solve.
type LevelOptions struct {
	// NRHS is the number of right-hand sides (<= 0 means 1); b is an
	// n×NRHS column-major panel.
	NRHS int
	// Dynamic selects atomic-counter dispatch of parallel steps (workers
	// fetch cells as they free up) instead of the static cost-balanced
	// partition. Both are bitwise-identical to sequential.
	Dynamic bool
	// Trace records each worker's forward and backward sweep, and every
	// wait in a step barrier, as phase events (nil disables tracing).
	Trace *trace.Recorder
	// Stats, when non-nil, receives per-worker execution counts.
	Stats *LevelStats
}

// SolveLevelCtx runs the level-set solve engine on the plan: forward sweep,
// diagonal scaling and backward sweep over the factor's packed cells, with
// one barrier per hybrid step and two per split chain cell. Worker 0 runs on
// the calling goroutine. Each column of the result is bitwise-identical to the
// sequential Factors.Solve of that column: every column keeps the single-RHS
// division semantics, however wide the panel.
// Cancelling ctx aborts at the next barrier on every worker and returns
// ctx.Err().
func SolveLevelCtx(ctx context.Context, pl *SolvePlan, f *Factors, b []float64, opts LevelOptions) ([]float64, error) {
	nrhs := opts.NRHS
	if nrhs <= 0 {
		nrhs = 1
	}
	sym := pl.sym
	if f.Sym != sym {
		return nil, fmt.Errorf("solver: factor was not built from the plan's symbolic structure")
	}
	if len(b) != sym.N*nrhs {
		return nil, fmt.Errorf("solver: rhs panel length %d, want n×nrhs = %d×%d: %w", len(b), sym.N, nrhs, ErrShape)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := sym.N
	y := make([]float64, n*nrhs)
	r := &levelRun{
		pl: pl, cells: f.lrCells, nrhs: nrhs, dynamic: opts.Dynamic,
		rec: opts.Trace, ctx: ctx,
		y: y, x: y,
		fcursors: make([]atomic.Int64, len(pl.steps)),
		bcursors: make([]atomic.Int64, len(pl.steps)),
		executed: make([]int64, pl.workers),
		bar:      spinBarrier{n: int32(pl.workers)},
	}
	if ctx.Done() != nil {
		r.check = r.checkCtx
	}
	packRHS(sym, b, r.y, nrhs)
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
		return nil, r.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Stats != nil {
		opts.Stats.Executed = append([]int64(nil), r.executed...)
	}
	if nrhs == 1 {
		// One column's cell-major layout is the identity (see packRHS): the
		// engine's x is the answer.
		return r.x, nil
	}
	out := make([]float64, n*nrhs)
	unpackRHS(sym, r.x, out, nrhs)
	return out, nil
}

// packRHS lays the n×nrhs column-major panel b out as per-cell w×nrhs
// panels, cell-major (cell k's panel starts at Cols[0]*nrhs). For nrhs == 1
// the layout is the identity because the cells partition [0, n).
func packRHS(sym *symbolic.Symbol, b, y []float64, nrhs int) {
	if nrhs == 1 {
		copy(y, b)
		return
	}
	n := sym.N
	for k := range sym.CB {
		cb := &sym.CB[k]
		w := cb.Width()
		base := cb.Cols[0] * nrhs
		for c := 0; c < nrhs; c++ {
			copy(y[base+c*w:base+c*w+w], b[cb.Cols[0]+c*n:cb.Cols[1]+c*n])
		}
	}
}

// unpackRHS is the inverse of packRHS.
func unpackRHS(sym *symbolic.Symbol, y, out []float64, nrhs int) {
	n := sym.N
	for k := range sym.CB {
		cb := &sym.CB[k]
		w := cb.Width()
		base := cb.Cols[0] * nrhs
		for c := 0; c < nrhs; c++ {
			copy(out[cb.Cols[0]+c*n:cb.Cols[1]+c*n], y[base+c*w:base+c*w+w])
		}
	}
}

// levelRun is the per-call state of one level-set solve.
type levelRun struct {
	pl      *SolvePlan
	cells   []lrCell
	nrhs    int
	dynamic bool
	rec     *trace.Recorder
	ctx     context.Context

	// y and x are one cell-major RHS panel: the forward sweep leaves its
	// result in it, and the backward sweep overwrites each cell's segment
	// with the solution in place — a cell reads its own y before writing
	// its x, and otherwise only the x of the final cells it faces.
	y, x []float64

	fcursors []atomic.Int64 // per-step dynamic fetch cursors, forward
	bcursors []atomic.Int64 // and backward (separate: no reset races)
	executed []int64        // per worker; each worker touches only its own slot

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

// worker runs both sweeps in lockstep with the other workers: one barrier
// per hybrid step, the backward sweep walking steps (and chain cells) in
// reverse. The last backward step needs no barrier: the caller joins the
// workers instead.
func (r *levelRun) worker(p int) {
	var start time.Duration
	if r.rec != nil {
		start = r.rec.Now()
	}
	steps := r.pl.steps
	for si := range steps {
		if !r.step(p, si, true) || !r.sync(p) {
			return
		}
	}
	if r.rec != nil {
		r.rec.Phase(p, trace.PhaseForward, start, r.rec.Now())
		start = r.rec.Now()
	}
	for si := len(steps) - 1; si >= 0; si-- {
		if !r.step(p, si, false) || (si > 0 && !r.sync(p)) {
			return
		}
	}
	if r.rec != nil {
		r.rec.Phase(p, trace.PhaseBackward, start, r.rec.Now())
	}
}

// step runs worker p's share of step si and reports whether the run goes on
// (a chain step holds barriers of its own).
func (r *levelRun) step(p, si int, fwd bool) bool {
	st := &r.pl.steps[si]
	if !st.Parallel {
		return r.chain(p, st.Cells, fwd)
	}
	if r.dynamic {
		cur := &r.fcursors[si]
		if !fwd {
			cur = &r.bcursors[si]
		}
		limit := int64(len(st.Cells))
		for {
			i := cur.Add(1) - 1
			if i >= limit {
				return true
			}
			r.cell(int(st.Cells[i]), fwd)
			r.executed[p]++
		}
	}
	for _, c := range r.pl.parts[si][p] {
		r.cell(int(c), fwd)
		r.executed[p]++
	}
	return true
}

// cell runs one whole cell of a sweep on the calling worker.
func (r *levelRun) cell(k int, fwd bool) {
	w := r.pl.sym.CB[k].Width()
	if fwd {
		r.pull(k, 0, w)
		r.trsvForward(k)
	} else {
		r.dots(k, 0, w)
		r.trsvBackward(k)
	}
}

// chain runs a chain step: the collapsed narrow levels in order (reverse
// order backward). Worker 0 runs the unsplit cells alone. A split cell
// takes every worker: a barrier so worker 0's earlier cells are visible
// (none is needed for the first cell, which follows the step barrier), each
// worker's share of the pulls or dots, a barrier, then worker 0's
// triangular solve — which the next split cell's first barrier, or the step
// barrier, publishes.
func (r *levelRun) chain(p int, cells []int32, fwd bool) bool {
	nw := r.pl.workers
	for i := range cells {
		k := int(cells[i])
		if !fwd {
			k = int(cells[len(cells)-1-i])
		}
		cut := r.pl.cut(k)
		if cut == nil {
			if p == 0 {
				r.cell(k, fwd)
			}
			continue
		}
		if i > 0 && !r.sync(p) {
			return false
		}
		if fwd {
			r.pull(k, int(cut[p]), int(cut[p+1]))
		} else {
			w := r.pl.sym.CB[k].Width()
			r.dots(k, p*w/nw, (p+1)*w/nw)
		}
		if !r.sync(p) {
			return false
		}
		if p == 0 {
			if fwd {
				r.trsvForward(k)
			} else {
				r.trsvBackward(k)
			}
		}
	}
	return true
}

// pull applies cell fc's incoming contributions to rows [lo, hi) of its
// segment, in canonical (source, block) order, one right-hand side at a
// time. GemvN gives each row the same operation sequence whatever row range
// it is called on, so a row's bits do not depend on the split.
func (r *levelRun) pull(fc, lo, hi int) {
	sym := r.pl.sym
	cb := &sym.CB[fc]
	w := cb.Width()
	nr := r.nrhs
	yf := r.y[cb.Cols[0]*nr:]
	for _, in := range r.pl.pulls.in(fc) {
		scb := &sym.CB[in.src]
		blk := &scb.Blocks[in.bi]
		off, rows := blk.FirstRow-cb.Cols[0], blk.Rows()
		a0, a1 := max(lo, off), min(hi, off+rows)
		if a0 >= a1 {
			continue
		}
		sw := scb.Width()
		ys := r.y[scb.Cols[0]*nr:]
		cell := &r.cells[in.src]
		lb := cell.lowRank(int(in.bi))
		for c := 0; c < nr; c++ {
			xs := ys[c*sw : c*sw+sw]
			yd := yf[c*w+off : c*w+off+rows]
			if lb != nil {
				blas.LRGemvNRows(rows, sw, lb.Rank, a0-off, a1-off, lb.U, lb.V, xs, yd)
				continue
			}
			a := cell.dense[int(cell.off[in.bi])+a0-off:]
			blas.GemvN(a1-a0, sw, a, rows, xs, yd[a0-off:a1-off])
		}
	}
}

// trsvForward finishes cell fc's forward solve: the unit-lower triangular
// solve of its pulled segment.
func (r *levelRun) trsvForward(fc int) {
	cb := &r.pl.sym.CB[fc]
	w := cb.Width()
	yf := r.y[cb.Cols[0]*r.nrhs:]
	for c := 0; c < r.nrhs; c++ {
		blas.TrsvLowerUnit(w, r.cells[fc].diag, w, yf[c*w:c*w+w])
	}
}

// dots starts cell kc's backward solve on columns [lo, hi) of its segment:
// the diagonal division (the sequential single-RHS semantics, per column),
// then the dot products of kc's own blocks in block order against the
// already-final facing segments. GemvT sums each column over the rows in
// ascending order whatever column range it is called on, so a column's bits
// do not depend on the split.
func (r *levelRun) dots(kc, lo, hi int) {
	if lo >= hi {
		return
	}
	sym := r.pl.sym
	cb := &sym.CB[kc]
	w := cb.Width()
	nr := r.nrhs
	base := cb.Cols[0] * nr
	xk := r.x[base : base+w*nr]
	yk := r.y[base : base+w*nr]
	cell := &r.cells[kc]
	diag := cell.diag
	for c := 0; c < nr; c++ {
		for j := lo; j < hi; j++ {
			xk[c*w+j] = yk[c*w+j] / diag[j+j*w]
		}
	}
	for bi := range cb.Blocks {
		blk := &cb.Blocks[bi]
		fcb := &sym.CB[blk.Facing]
		fw := fcb.Width()
		off := blk.FirstRow - fcb.Cols[0]
		rows := blk.Rows()
		xf := r.x[fcb.Cols[0]*nr:]
		lb := cell.lowRank(bi)
		for c := 0; c < nr; c++ {
			xs := xf[c*fw+off : c*fw+off+rows]
			if lb != nil {
				blas.LRGemvTCols(rows, w, lb.Rank, lo, hi, lb.U, lb.V, xs, xk[c*w:c*w+w])
				continue
			}
			a := cell.dense[int(cell.off[bi])+lo*rows:]
			blas.GemvT(rows, hi-lo, a, rows, xs, xk[c*w+lo:c*w+hi])
		}
	}
}

// trsvBackward finishes cell kc's backward solve: the transposed unit
// triangular solve.
func (r *levelRun) trsvBackward(kc int) {
	cb := &r.pl.sym.CB[kc]
	w := cb.Width()
	xk := r.x[cb.Cols[0]*r.nrhs:]
	for c := 0; c < r.nrhs; c++ {
		blas.TrsvLowerTransUnit(w, r.cells[kc].diag, w, xk[c*w:c*w+w])
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
