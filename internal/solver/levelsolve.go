package solver

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/lowrank"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/symbolic"
	"github.com/pastix-go/pastix/internal/trace"
)

// This file implements the level-set solve engine: triangular solves
// scheduled by the solve DAG's level sets (sched.SolveDAG) instead of the
// factorization's proc mapping, over per-factor packed panels
// (blas/packed.go). The engine is bitwise-identical to the sequential
// Factors.Solve for ANY worker count, any hybrid cutoff and either dispatch
// mode, because of a consumer-pull determinism argument:
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
// order). The packed kernels replicate the strided kernels' operation order
// exactly, so packing does not perturb results either.

// solveIn is one incoming forward contribution of a destination cell: block
// bi of source cell src lands at rows [off, off+rows) of the destination's
// segment. Lists are built in canonical (src, bi) order.
type solveIn struct {
	src  int32
	bi   int32
	off  int32
	rows int32
}

// SolvePlan is a reusable schedule for the level-set solve engine on a fixed
// worker count: the hybrid steps, a cost-balanced contiguous partition of
// each parallel step, and the per-cell pull lists. Plans are immutable and
// cached per (Analysis, workers) — see Analysis.SolvePlanFor.
type SolvePlan struct {
	sym     *symbolic.Symbol
	dag     *sched.SolveDAG
	steps   []sched.SolveStep
	parts   [][][]int32 // per parallel step: worker -> contiguous cell run
	ins     [][]solveIn
	cost    []int64
	workers int
	cutoff  int
}

// PlanStats summarizes a SolvePlan for reporting (the service returns it
// from /v1/factorize and /v1/solve).
type PlanStats struct {
	Workers       int `json:"workers"`
	Cells         int `json:"cells"`
	Levels        int `json:"levels"`
	ParallelSteps int `json:"parallel_steps"`
	ChainSteps    int `json:"chain_steps"`
	ChainCells    int `json:"chain_cells"`
	MaxLevelWidth int `json:"max_level_width"`
	Cutoff        int `json:"cutoff"`
}

// Stats reports the plan's shape.
func (pl *SolvePlan) Stats() PlanStats {
	st := PlanStats{
		Workers:       pl.workers,
		Cells:         pl.sym.NumCB(),
		Levels:        pl.dag.Depth(),
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

// Workers returns the worker count the plan was built for.
func (pl *SolvePlan) Workers() int { return pl.workers }

// BuildSolvePlan builds a level-set solve plan: hybrid steps from the DAG
// (cutoff <= 0 selects sched.DefaultSolveCutoff), per-cell pull lists in
// canonical order, and a cost-balanced contiguous partition of every
// parallel step across the workers.
func BuildSolvePlan(sym *symbolic.Symbol, dag *sched.SolveDAG, workers, cutoff int) *SolvePlan {
	if workers < 1 {
		workers = 1
	}
	if cutoff <= 0 {
		cutoff = sched.DefaultSolveCutoff(workers)
	}
	steps := dag.HybridSteps(workers, cutoff)
	ncb := sym.NumCB()
	ins := make([][]solveIn, ncb)
	for k := 0; k < ncb; k++ {
		cb := &sym.CB[k]
		for bi := range cb.Blocks {
			blk := &cb.Blocks[bi]
			fcb := &sym.CB[blk.Facing]
			ins[blk.Facing] = append(ins[blk.Facing], solveIn{
				src: int32(k), bi: int32(bi),
				off: int32(blk.FirstRow - fcb.Cols[0]), rows: int32(blk.Rows()),
			})
		}
	}
	// Per-cell solve cost (forward pulls + backward dots + the triangular
	// solves), used to balance the contiguous partitions.
	cost := make([]int64, ncb)
	for k := 0; k < ncb; k++ {
		cb := &sym.CB[k]
		w := int64(cb.Width())
		c := w*w + 16
		for _, in := range ins[k] {
			c += int64(in.rows) * int64(sym.CB[in.src].Width())
		}
		c += int64(cb.RowsBelow()) * w
		cost[k] = c
	}
	parts := make([][][]int32, len(steps))
	for si, st := range steps {
		if st.Parallel {
			parts[si] = splitByCost(st.Cells, cost, workers)
		}
	}
	return &SolvePlan{
		sym: sym, dag: dag, steps: steps, parts: parts, ins: ins,
		cost: cost, workers: workers, cutoff: cutoff,
	}
}

// splitByCost partitions cells into at most `workers` contiguous runs of
// near-equal total cost (contiguity keeps each worker streaming through the
// packed level buffer).
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

// solvePack holds contiguous copies of a factor's solve operands, laid out
// in level order: per cell the w×w diagonal block and the off-diagonal
// blocks (rows×w each, block bi at off[bi] inside blk[k]). Built once per
// factor (guarded by Factors.packMu) on first use or by PrepareSolve. For a
// BLR-compressed factor the pack aliases the compressed cells zero-copy
// (they are already packed); lr is non-nil and lr[k][bi] != nil marks a
// low-rank block (off[k][bi] is negative for those).
type solvePack struct {
	diag [][]float64
	blk  [][]float64
	off  [][]int32
	lr   [][]*lowrank.LRBlock
}

// solvePackFor builds (once) and returns the factor's packed solve panels.
func (f *Factors) solvePackFor(dag *sched.SolveDAG) *solvePack {
	f.packMu.Lock()
	defer f.packMu.Unlock()
	if f.pack != nil {
		return f.pack
	}
	sym := f.Sym
	ncb := sym.NumCB()
	pk := &solvePack{
		diag: make([][]float64, ncb),
		blk:  make([][]float64, ncb),
		off:  make([][]int32, ncb),
	}
	if f.lrCells != nil {
		pk.lr = make([][]*lowrank.LRBlock, ncb)
		for k := 0; k < ncb; k++ {
			cell := &f.lrCells[k]
			pk.diag[k] = cell.diag
			pk.blk[k] = cell.dense
			pk.off[k] = cell.off
			pk.lr[k] = cell.lr
		}
		f.pack = pk
		return pk
	}
	for _, cells := range dag.Levels {
		total := 0
		for _, c := range cells {
			cb := &sym.CB[c]
			w := cb.Width()
			total += w*w + cb.RowsBelow()*w
		}
		buf := make([]float64, total)
		pos := 0
		for _, c := range cells {
			k := int(c)
			cb := &sym.CB[k]
			w := cb.Width()
			ld := f.LD[k]
			f.EnsureCell(k)
			pk.diag[k] = buf[pos : pos+w*w]
			blas.PackPanel(w, w, f.Data[k], ld, pk.diag[k])
			pos += w * w
			pk.off[k] = make([]int32, len(cb.Blocks))
			blkStart := pos
			for bi := range cb.Blocks {
				rows := cb.Blocks[bi].Rows()
				pk.off[k][bi] = int32(pos - blkStart)
				blas.PackPanel(rows, w, f.Data[k][f.BlockOff[k][bi]:], ld, buf[pos:pos+rows*w])
				pos += rows * w
			}
			pk.blk[k] = buf[blkStart:pos]
		}
	}
	f.pack = pk
	return pk
}

// SolveDAG returns the analysis's solve DAG, built on first use (internally
// synchronized; safe for concurrent callers).
func (an *Analysis) SolveDAG() *sched.SolveDAG {
	an.solveDAGOnce.Do(func() {
		an.solveDAG = sched.BuildSolveDAG(an.Sym)
	})
	return an.solveDAG
}

// SolvePlanFor returns the cached level-set solve plan for the given worker
// count, building it on first request. Plans are immutable; the cache is a
// sync.Map keyed by worker count.
func (an *Analysis) SolvePlanFor(workers int) *SolvePlan {
	if workers < 1 {
		workers = 1
	}
	if v, ok := an.solvePlans.Load(workers); ok {
		return v.(*SolvePlan)
	}
	pl := BuildSolvePlan(an.Sym, an.SolveDAG(), workers, 0)
	v, _ := an.solvePlans.LoadOrStore(workers, pl)
	return v.(*SolvePlan)
}

// PrepareSolve eagerly builds the solve plan for the schedule's worker count
// and packs the factor's solve panels, so a serving layer can pay the whole
// solve-planning cost at factorize time instead of on the first request.
func (an *Analysis) PrepareSolve(f *Factors) PlanStats {
	pl := an.SolvePlanFor(an.Sched.P)
	f.solvePackFor(pl.dag)
	return pl.Stats()
}

// LevelStats carries per-worker observability of one level-set solve:
// Executed[p] counts the parallel-step cells worker p ran (chain cells run
// on worker 0 and are not counted).
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
	// Trace records each worker's forward and backward sweep as phase
	// events (nil disables tracing).
	Trace *trace.Recorder
	// Stats, when non-nil, receives per-worker execution counts.
	Stats *LevelStats
}

// SolveLevelCtx runs the level-set solve engine on the plan: forward sweep,
// diagonal scaling and backward sweep over packed panels, with one barrier
// per hybrid step. Each column of the result is bitwise-identical to the
// sequential Factors.Solve of that column (note: Factors.SolveMany scales
// the diagonal by reciprocal-multiply and so differs in the last bits; this
// engine keeps the single-RHS division semantics for every column).
// Cancelling ctx aborts at the next step boundary on every worker and
// returns ctx.Err().
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
	pk := f.solvePackFor(pl.dag)
	n := sym.N
	r := &levelRun{
		pl: pl, pk: pk, nrhs: nrhs, dynamic: opts.Dynamic,
		rec: opts.Trace, ctx: ctx,
		y: make([]float64, n*nrhs), x: make([]float64, n*nrhs),
		fcursors: make([]atomic.Int64, len(pl.steps)),
		bcursors: make([]atomic.Int64, len(pl.steps)),
		executed: make([]int64, pl.workers),
		bar:      newStepBarrier(pl.workers),
	}
	packRHS(sym, b, r.y, nrhs)
	var wg sync.WaitGroup
	for p := 0; p < pl.workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r.worker(p)
		}(p)
	}
	wg.Wait()
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
	pk      *solvePack
	nrhs    int
	dynamic bool
	rec     *trace.Recorder
	ctx     context.Context

	y, x []float64 // cell-major RHS panels: forward result, then solution

	fcursors []atomic.Int64 // per-step dynamic fetch cursors, forward
	bcursors []atomic.Int64 // and backward (separate: no reset races)
	executed []int64        // per worker; each worker touches only its own slot
	bar      *stepBarrier
	failed   atomic.Bool
}

// worker runs both sweeps in lockstep with the other workers: one barrier
// per hybrid step, the backward sweep walking steps (and chain cells) in
// reverse. Every worker executes the identical barrier sequence, so
// cancellation (checked at step boundaries) unwinds all of them uniformly.
func (r *levelRun) worker(p int) {
	var start time.Duration
	if r.rec != nil {
		start = r.rec.Now()
	}
	for si := range r.pl.steps {
		r.step(p, si, true)
		r.bar.wait()
	}
	if r.rec != nil {
		r.rec.Phase(p, trace.PhaseForward, start, r.rec.Now())
		start = r.rec.Now()
	}
	for si := len(r.pl.steps) - 1; si >= 0; si-- {
		r.step(p, si, false)
		r.bar.wait()
	}
	if r.rec != nil {
		r.rec.Phase(p, trace.PhaseBackward, start, r.rec.Now())
	}
}

func (r *levelRun) step(p, si int, fwd bool) {
	if r.failed.Load() {
		return
	}
	if r.ctx.Err() != nil {
		r.failed.Store(true)
		return
	}
	st := &r.pl.steps[si]
	if !st.Parallel {
		// Chain step: worker 0 runs the collapsed narrow levels sequentially
		// (forward in level order, backward in reverse).
		if p != 0 {
			return
		}
		if fwd {
			for _, c := range st.Cells {
				r.forwardCell(int(c))
			}
		} else {
			for i := len(st.Cells) - 1; i >= 0; i-- {
				r.backwardCell(int(st.Cells[i]))
			}
		}
		return
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
				return
			}
			if fwd {
				r.forwardCell(int(st.Cells[i]))
			} else {
				r.backwardCell(int(st.Cells[i]))
			}
			r.executed[p]++
		}
	}
	for _, c := range r.pl.parts[si][p] {
		if fwd {
			r.forwardCell(int(c))
		} else {
			r.backwardCell(int(c))
		}
		r.executed[p]++
	}
}

// forwardCell completes cell fc's forward solve: pull every incoming
// contribution in canonical (source, block) order into the b-initialized
// segment, then the unit-lower triangular solve — all on packed operands.
func (r *levelRun) forwardCell(fc int) {
	sym := r.pl.sym
	cb := &sym.CB[fc]
	w := cb.Width()
	nr := r.nrhs
	base := cb.Cols[0] * nr
	yf := r.y[base : base+w*nr]
	for _, in := range r.pl.ins[fc] {
		scb := &sym.CB[in.src]
		sw := scb.Width()
		ys := r.y[scb.Cols[0]*nr:]
		rows := int(in.rows)
		if r.pk.lr != nil {
			if lb := r.pk.lr[in.src][in.bi]; lb != nil {
				if nr == 1 {
					blas.LRGemvN(rows, sw, lb.Rank, lb.U, lb.V, ys[:sw], yf[in.off:int(in.off)+rows])
				} else {
					blas.LRGemmNN(rows, sw, lb.Rank, nr, lb.U, lb.V, ys[:sw*nr], sw, yf[in.off:], w)
				}
				continue
			}
		}
		a := r.pk.blk[in.src][r.pk.off[in.src][in.bi]:]
		if nr == 1 {
			blas.GemvNPacked(rows, sw, a, ys[:sw], yf[in.off:int(in.off)+rows])
		} else {
			blas.GemmNNPacked(rows, nr, sw, a, ys[:sw*nr], sw, yf[in.off:], w)
		}
	}
	if nr == 1 {
		blas.TrsvLowerUnitPacked(w, r.pk.diag[fc], yf)
	} else {
		blas.TrsmLowerUnitPacked(w, nr, r.pk.diag[fc], yf)
	}
}

// backwardCell completes cell kc's backward solve: diagonal division (the
// sequential single-RHS semantics, per column), the dot products of kc's own
// blocks in block order against the already-final facing segments, then the
// transposed triangular solve.
func (r *levelRun) backwardCell(kc int) {
	sym := r.pl.sym
	cb := &sym.CB[kc]
	w := cb.Width()
	nr := r.nrhs
	base := cb.Cols[0] * nr
	xk := r.x[base : base+w*nr]
	yk := r.y[base : base+w*nr]
	diag := r.pk.diag[kc]
	for c := 0; c < nr; c++ {
		for j := 0; j < w; j++ {
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
		if r.pk.lr != nil {
			if lb := r.pk.lr[kc][bi]; lb != nil {
				if nr == 1 {
					blas.LRGemvT(rows, w, lb.Rank, lb.U, lb.V, xf[off:off+rows], xk)
				} else {
					blas.LRGemmTN(rows, w, lb.Rank, nr, lb.U, lb.V, xf[off:], fw, xk, w)
				}
				continue
			}
		}
		a := r.pk.blk[kc][r.pk.off[kc][bi]:]
		if nr == 1 {
			blas.GemvTPacked(rows, w, a, xf[off:off+rows], xk)
		} else {
			blas.GemmTNPacked(w, nr, rows, a, xf[off:], fw, xk, w)
		}
	}
	if nr == 1 {
		blas.TrsvLowerTransUnitPacked(w, diag, xk)
	} else {
		blas.TrsmLTransUnitPacked(w, nr, diag, xk)
	}
}

// stepBarrier is a reusable generation barrier for the engine's lockstep
// steps.
type stepBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newStepBarrier(n int) *stepBarrier {
	b := &stepBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *stepBarrier) wait() {
	b.mu.Lock()
	g := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for g == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
