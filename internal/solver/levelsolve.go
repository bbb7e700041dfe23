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
// factorization's proc mapping, over the factor's panel form (panels). Each
// column block streams its off-diagonal panel once per sweep: forward, one
// product t_k = −P_k·y_k into the cell's slot of a per-solve contribution
// buffer; backward, one product x_k −= P_kᵀ·g over the facing x gathered
// into that same slot. The engine is bitwise-identical to the sequential
// Factors.Solve for ANY worker count, any hybrid cutoff and either dispatch
// mode, because of a consumer-pull determinism argument:
//
// The sequential solve adds each source cell's t into the segments it faces
// right after computing it, so each element of a destination segment takes
// its contributions in ascending source order (a source's blocks cover
// disjoint rows). Here every destination cell pulls its own incoming
// contributions in that same canonical (source, block) order into its
// b-initialized segment; level sets guarantee every source's t is final
// before any consumer in a later level reads it, and no two cells write the
// same segment or slot. So neither the within-level execution order nor the
// cell→worker assignment can change a single bit. The backward sweep is
// symmetric: each cell gathers the already-final facing segments and folds
// them in with its own panel product. No kernel's per-element operation
// order depends on the leading dimension, so reading the strided cells in
// place perturbs nothing either.
//
// A split chain cell keeps the argument per element: GemvN gives each panel
// row its updates in ascending column order, and GemvT sums each column over
// the panel rows in ascending order, whatever row or column range they are
// called on. So dividing a cell's panel rows (forward) or columns (backward)
// among workers leaves every element's operation sequence as it was.

// solveIn is one incoming forward contribution of a destination cell: rows
// entries of a column of the contribution buffer from t on, added to the
// solution from row on. Lists are built in canonical (source, block) order.
type solveIn struct {
	t, row, rows int32
}

// solvePulls is the worker-independent part of every solve plan of one
// symbolic structure, built once per analysis and shared by its plans:
// each cell's incoming forward contributions, its slot in the contribution
// buffer, and the per-cell cost the plans balance on.
type solvePulls struct {
	ptr  []int32   // cell k's contributions are ins[ptr[k]:ptr[k+1]]
	ins  []solveIn // in canonical order per destination cell
	tOff []int32   // cell k's slot is rows [tOff[k], tOff[k+1]) of each column
	// rbMax is the longest panel: the size of a split cell's private
	// gather buffer.
	rbMax int
	cost  []int64 // triangular solves + both panel products + pulls + gather
	// total is the summed cost: the one-worker plan runs every cell in a
	// single chain step, so its makespan is total plus one barrier.
	total int64
	// bufs holds the idle contribution buffers of every plan of the
	// structure, at most one per processor: more solves than processors
	// never all run at once. Unlike a sync.Pool it keeps them across
	// garbage collections, so a stream of solves allocates none.
	bufs chan []float64
}

// newSolvePulls builds the pull lists, slots and costs of sym, and the
// first contribution buffer, sized for one right-hand side on up to
// workers workers.
func newSolvePulls(sym *symbolic.Symbol, workers int) *solvePulls {
	ncb := sym.NumCB()
	sp := &solvePulls{
		ptr: make([]int32, ncb+1), tOff: make([]int32, ncb+1), cost: make([]int64, ncb),
		bufs: make(chan []float64, runtime.GOMAXPROCS(0)),
	}
	for k := range sym.CB {
		w, rb := sym.CB[k].Width(), sym.CB[k].RowsBelow()
		sp.tOff[k+1] = sp.tOff[k] + int32(rb)
		sp.rbMax = max(sp.rbMax, rb)
		sp.cost[k] += int64(w*w + 2*rb*w + rb)
		for _, blk := range sym.CB[k].Blocks {
			sp.ptr[blk.Facing+1]++
			sp.cost[blk.Facing] += int64(blk.Rows())
		}
	}
	for k := 0; k < ncb; k++ {
		sp.ptr[k+1] += sp.ptr[k]
		sp.total += sp.cost[k]
	}
	sp.ins = make([]solveIn, sp.ptr[ncb])
	next := slices.Clone(sp.ptr[:ncb]) // per-cell fill cursors
	for k := range sym.CB {
		t := sp.tOff[k]
		for _, blk := range sym.CB[k].Blocks {
			sp.ins[next[blk.Facing]] = solveIn{t: t, row: int32(blk.FirstRow), rows: int32(blk.Rows())}
			next[blk.Facing]++
			t += int32(blk.Rows())
		}
	}
	sp.bufs <- make([]float64, sp.bufLen(1, workers))
	return sp
}

// bufLen is the length of the contribution buffer of a solve of nrhs
// right-hand sides on the given workers: every cell's slot per right-hand
// side, then one private gather buffer per worker for the split chain
// cells.
func (sp *solvePulls) bufLen(nrhs, workers int) int {
	n := int(sp.tOff[len(sp.tOff)-1]) * nrhs
	if workers > 1 {
		n += workers * sp.rbMax
	}
	return n
}

// buffer takes an idle contribution buffer of at least n entries, or makes
// one.
func (sp *solvePulls) buffer(n int) []float64 {
	select {
	case b := <-sp.bufs:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]float64, n)
}

// release returns a buffer for the next solve to take, unless enough are
// idle already.
func (sp *solvePulls) release(b []float64) {
	select {
	case sp.bufs <- b:
	default:
	}
}

// in returns cell k's incoming contributions.
func (sp *solvePulls) in(k int) []solveIn { return sp.ins[sp.ptr[k]:sp.ptr[k+1]] }

// SolvePlan is a reusable schedule for the level-set solve engine on a fixed
// worker count: the hybrid steps, a cost-balanced contiguous partition of
// each parallel step, and the chain cells whose panel rows (forward) and
// columns (backward) are split across the workers. Plans are immutable and cached
// per (Analysis, workers) — see Analysis.SolvePlanFor.
type SolvePlan struct {
	sym     *symbolic.Symbol
	dag     *sched.SolveDAG
	pulls   *solvePulls
	steps   []sched.SolveStep
	parts   [][][]int32 // per parallel step: worker -> contiguous cell run
	workers int
	cutoff  int

	// split is nil when no chain cell is split, else it marks the chain
	// cells every worker takes part in.
	split      []bool
	splitCells int
	// makespan is the plan's predicted time in cost units, barriers and
	// worker start-up included.
	makespan int64
}

// splits reports whether every worker takes part in chain cell k.
func (pl *SolvePlan) splits(k int) bool { return pl.split != nil && pl.split[k] }

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
	return planOn(sym, dag, newSolvePulls(sym, workers), workers, cutoff)
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
// returns its predicted time. Split, worker 0 alone pulls and runs both
// triangular solves; the forward panel product divides by panel row and the
// backward one by column, every worker gathering the whole panel's x for
// its columns; two barriers per sweep.
func (pl *SolvePlan) splitChainCell(k int) int64 {
	cost := pl.pulls.cost[k]
	if pl.workers == 1 {
		return cost
	}
	nw := int64(pl.workers)
	w, rb := int64(pl.sym.CB[k].Width()), int64(pl.rows(k))
	split := cost - 2*rb*w + (rb+nw-1)/nw*w + (w+nw-1)/nw*rb + 4*barrierCharge
	if split >= cost {
		return cost
	}
	if pl.split == nil {
		pl.split = make([]bool, pl.sym.NumCB())
	}
	pl.split[k] = true
	pl.splitCells++
	return split
}

// rows returns the length of cell k's panel.
func (pl *SolvePlan) rows(k int) int { return int(pl.pulls.tOff[k+1] - pl.pulls.tOff[k]) }

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
		an.pulls = newSolvePulls(an.Sym, an.Sched.P)
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
// request. The factor needs no preparation: every solve engine reads the
// cells the factorization wrote.
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
	// Trace records each worker's forward and backward sweep, and every
	// wait in a step barrier, as phase events (nil disables tracing).
	Trace *trace.Recorder
	// Stats, when non-nil, receives per-worker execution counts.
	Stats *LevelStats
}

// SolveLevelCtx runs the level-set solve engine on the plan: forward sweep,
// diagonal scaling and backward sweep over the factor's panels, with one
// barrier per hybrid step and two per split chain cell. Worker 0 runs on the
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
	sp := pl.pulls
	nt := int(sp.tOff[len(sp.tOff)-1])
	buf := sp.buffer(sp.bufLen(nrhs, pl.workers))
	defer sp.release(buf)
	r := &levelRun{
		pl: pl, panels: f.panels(), nrhs: nrhs,
		rec: opts.Trace, ctx: ctx,
		x: x, n: sym.N, t: buf[:nt*nrhs], nt: nt, gbuf: buf[nt*nrhs:],
		executed: make([]int64, pl.workers),
		bar:      spinBarrier{n: int32(pl.workers)},
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
	if err := ctx.Err(); err != nil {
		return err
	}
	if opts.Stats != nil {
		opts.Stats.Executed = append([]int64(nil), r.executed...)
	}
	return nil
}

// levelRun is the per-call state of one level-set solve.
type levelRun struct {
	pl     *SolvePlan
	panels panels[float64]
	nrhs   int
	rec    *trace.Recorder
	ctx    context.Context

	// x is the caller's n×nrhs panel: the forward sweep leaves y in it, and
	// the backward sweep overwrites each cell's segment with the solution
	// in place — a cell reads its own y before writing its x, and otherwise
	// only the x of the final cells it faces.
	x []float64
	n int
	// t is the contribution buffer, nt×nrhs: cell k's slot holds t_k =
	// −P_k·y_k after its forward sweep, and the gathered facing x of its
	// backward sweep. gbuf is one private gather buffer of pulls.rbMax
	// entries per worker, for the split chain cells.
	t    []float64
	nt   int
	gbuf []float64

	executed []int64 // per worker; each worker touches only its own slot

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
	for _, c := range r.pl.parts[si][p] {
		r.cell(int(c), fwd)
		r.executed[p]++
	}
	return true
}

// cell runs one whole cell of a sweep on the calling worker.
func (r *levelRun) cell(k int, fwd bool) {
	if fwd {
		r.pullSolve(k)
		r.product(k, 0, r.pl.rows(k))
	} else {
		r.dots(k, 0, r.pl.sym.CB[k].Width(), nil)
		r.trsvBackward(k)
	}
}

// chain runs a chain step: the collapsed narrow levels in order (reverse
// order backward). Worker 0 runs the unsplit cells alone. A split cell
// takes every worker. Forward: worker 0 pulls and solves, a barrier, each
// worker's rows of the panel product, then a barrier so worker 0 can read
// t_k (the step barrier when the cell is the step's last). Backward: a
// barrier so worker 0's earlier cells are visible (none is needed for the
// first cell, which follows the step barrier), each worker's columns, a
// barrier, then worker 0's triangular solve — which the next split cell's
// first barrier, or the step barrier, publishes.
func (r *levelRun) chain(p int, cells []int32, fwd bool) bool {
	nw := r.pl.workers
	last := len(cells) - 1
	for i := range cells {
		k := int(cells[i])
		if !fwd {
			k = int(cells[last-i])
		}
		if !r.pl.splits(k) {
			if p == 0 {
				r.cell(k, fwd)
			}
			continue
		}
		if fwd {
			if p == 0 {
				r.pullSolve(k)
			}
			if !r.sync(p) {
				return false
			}
			rb := r.pl.rows(k)
			r.product(k, p*rb/nw, (p+1)*rb/nw)
			if i < last && !r.sync(p) {
				return false
			}
			continue
		}
		if i > 0 && !r.sync(p) {
			return false
		}
		w, g := r.pl.sym.CB[k].Width(), r.pl.pulls.rbMax
		r.dots(k, p*w/nw, (p+1)*w/nw, r.gbuf[p*g:(p+1)*g])
		if !r.sync(p) {
			return false
		}
		if p == 0 {
			r.trsvBackward(k)
		}
	}
	return true
}

// pullSolve starts cell k's forward solve: its incoming contributions, in
// canonical (source, block) order, then the unit-lower triangular solve,
// one right-hand side at a time.
func (r *levelRun) pullSolve(k int) {
	cb := &r.pl.sym.CB[k]
	d, ld := r.panels.cellDiag(k)
	ins := r.pl.pulls.in(k)
	for c := 0; c < r.nrhs; c++ {
		x, t := r.x[c*r.n:(c+1)*r.n], r.t[c*r.nt:(c+1)*r.nt]
		for _, in := range ins {
			addTo(x[in.row:in.row+in.rows], t[in.t:])
		}
		blas.TrsvLowerUnit(cb.Width(), d, ld, x[cb.Cols[0]:cb.Cols[1]])
	}
}

// product finishes panel rows [lo, hi) of cell k's forward solve: t_k =
// −P_k·y_k into its slot.
func (r *levelRun) product(k, lo, hi int) {
	cb := &r.pl.sym.CB[k]
	t0, t1 := int(r.pl.pulls.tOff[k]), int(r.pl.pulls.tOff[k+1])
	for c := 0; c < r.nrhs; c++ {
		tk := r.t[c*r.nt+t0 : c*r.nt+t1]
		clear(tk[lo:hi])
		r.panels.panelN(k, lo, hi, r.x[c*r.n+cb.Cols[0]:c*r.n+cb.Cols[1]], tk)
	}
}

// dots starts columns [lo, hi) of cell k's backward solve: the diagonal
// division (the sequential single-RHS semantics, per column), the facing x
// gathered over the panel's rows into g (nil: the cell's own slot of t),
// and the panel product.
func (r *levelRun) dots(k, lo, hi int, g []float64) {
	if lo >= hi {
		return
	}
	cb := &r.pl.sym.CB[k]
	d, ld := r.panels.cellDiag(k)
	t0, t1 := int(r.pl.pulls.tOff[k]), int(r.pl.pulls.tOff[k+1])
	for c := 0; c < r.nrhs; c++ {
		x := r.x[c*r.n : (c+1)*r.n]
		xk := x[cb.Cols[0]:cb.Cols[1]]
		for j := lo; j < hi; j++ {
			xk[j] /= d[j+j*ld]
		}
		gc := g
		if gc == nil {
			gc = r.t[c*r.nt+t0 : c*r.nt+t1]
		}
		r.panels.panelT(k, lo, hi, gather(cb, x, gc), xk)
	}
}

// trsvBackward finishes cell k's backward solve: the transposed unit
// triangular solve.
func (r *levelRun) trsvBackward(k int) {
	cb := &r.pl.sym.CB[k]
	d, ld := r.panels.cellDiag(k)
	for c := 0; c < r.nrhs; c++ {
		blas.TrsvLowerTransUnit(cb.Width(), d, ld, r.x[c*r.n+cb.Cols[0]:c*r.n+cb.Cols[1]])
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
