package solver

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/faults"
	"github.com/pastix-go/pastix/internal/mpsim"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/trace"
)

// Parallel triangular solve. The distribution follows the factorization
// schedule's ownership: the diagonal block of a column block lives on its
// FACTOR (or COMP1D) processor and each off-diagonal block on its BDIV (or
// COMP1D) processor. The forward sweep pipelines y segments down the
// elimination order with fan-in aggregation of the L·y contributions; the
// backward sweep runs the mirror image. Both phases are fully determined by
// the static schedule, like the factorization itself.
const (
	msgYSeg int8 = 10 + iota // forward solution segment of a cell (Tag = cell)
	msgFwdC                  // aggregated forward contributions (Tag = target cell)
	msgXSeg                  // backward solution segment (Tag = cell)
	msgBwdC                  // aggregated backward dot-products (Tag = target cell)
)

// solvePlan precomputes the per-cell communication counts of the parallel
// solve from the schedule's ownership.
type solvePlan struct {
	sch       *sched.Schedule
	diagOwner []int
	blockOwn  [][]int
	// Forward: contributions into cell k come from owners of blocks facing k.
	fwdMsgs  []int         // distinct remote source procs per cell
	fwdLocal []map[int]int // per proc: #owned blocks facing cell k
	ySendTo  [][]int       // per cell: distinct remote procs owning its blocks
	// Backward: dot-products for cell k come from owners of k's own blocks;
	// x_k is needed by owners of blocks facing k.
	bwdMsgs  []int
	bwdLocal []map[int]int
	xSendTo  [][]int
}

func newSolvePlan(sch *sched.Schedule) *solvePlan {
	sym := sch.Sym()
	ncb := sym.NumCB()
	P := sch.P
	pl := &solvePlan{
		sch:       sch,
		diagOwner: make([]int, ncb),
		blockOwn:  make([][]int, ncb),
		fwdMsgs:   make([]int, ncb),
		fwdLocal:  make([]map[int]int, P),
		ySendTo:   make([][]int, ncb),
		bwdMsgs:   make([]int, ncb),
		bwdLocal:  make([]map[int]int, P),
		xSendTo:   make([][]int, ncb),
	}
	for p := 0; p < P; p++ {
		pl.fwdLocal[p] = make(map[int]int)
		pl.bwdLocal[p] = make(map[int]int)
	}
	for k := 0; k < ncb; k++ {
		if id := sch.Comp1DOf[k]; id >= 0 {
			pl.diagOwner[k] = sch.Tasks[id].Proc
		} else {
			pl.diagOwner[k] = sch.Tasks[sch.FactorOf[k]].Proc
		}
		pl.blockOwn[k] = make([]int, len(sym.CB[k].Blocks))
		for b := range sym.CB[k].Blocks {
			if id := sch.Comp1DOf[k]; id >= 0 {
				pl.blockOwn[k][b] = sch.Tasks[id].Proc
			} else {
				pl.blockOwn[k][b] = sch.Tasks[sch.BDivOf[k][b]].Proc
			}
		}
	}
	fwdSrc := make([]map[int]bool, ncb) // target cell -> source procs
	ySend := make([]map[int]bool, ncb)
	bwdSrc := make([]map[int]bool, ncb)
	xSend := make([]map[int]bool, ncb)
	for k := 0; k < ncb; k++ {
		fwdSrc[k] = make(map[int]bool)
		ySend[k] = make(map[int]bool)
		bwdSrc[k] = make(map[int]bool)
		xSend[k] = make(map[int]bool)
	}
	for k := 0; k < ncb; k++ {
		for b, blk := range sym.CB[k].Blocks {
			o := pl.blockOwn[k][b]
			f := blk.Facing
			// Forward: block (k,b) contributes L_b·y_k into cell f's segment.
			if o != pl.diagOwner[f] {
				fwdSrc[f][o] = true
			}
			pl.fwdLocal[o][f]++
			// Forward: the block owner needs y_k.
			if o != pl.diagOwner[k] {
				ySend[k][o] = true
			}
			// Backward: block (k,b) computes L_bᵀ·x_f for cell k's segment.
			if o != pl.diagOwner[k] {
				bwdSrc[k][o] = true
			}
			pl.bwdLocal[o][k]++
			// Backward: the block owner needs x_f.
			if o != pl.diagOwner[f] {
				xSend[f][o] = true
			}
		}
	}
	setToSlice := func(m map[int]bool) []int {
		out := make([]int, 0, len(m))
		for p := range m {
			out = append(out, p)
		}
		return out
	}
	for k := 0; k < ncb; k++ {
		pl.fwdMsgs[k] = len(fwdSrc[k])
		pl.bwdMsgs[k] = len(bwdSrc[k])
		pl.ySendTo[k] = setToSlice(ySend[k])
		pl.xSendTo[k] = setToSlice(xSend[k])
	}
	return pl
}

// SolveOptions tunes the parallel triangular solve runtime.
type SolveOptions struct {
	// Trace attaches an execution recorder (see ParOptions.Trace).
	Trace *trace.Recorder
	// Faults injects deterministic message and worker faults and arms the
	// mpsim reliability layer (see ParOptions.Faults).
	Faults *faults.Plan
}

// SolveParManyOpts solves A·X = B for nrhs right-hand sides at once on the
// parallel message-passing runtime: b is an n×nrhs column-major panel in the
// permuted ordering, and both sweeps run over whole panels — one message per
// solution segment carrying nrhs columns instead of nrhs separate sweeps.
// The per-column arithmetic (kernel loop order and the canonical source-sorted
// application of remote contributions) is exactly that of the single-RHS
// solve, so column r of the result is bit-identical to a one-column
// SolveParManyOpts call on column r of b.
func SolveParManyOpts(ctx context.Context, sch *sched.Schedule, f *Factors, b []float64, nrhs int, sopts SolveOptions) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sym := sch.Sym()
	if nrhs <= 0 || len(b) != sym.N*nrhs {
		return nil, fmt.Errorf("solver: rhs panel must be n×nrhs = %d×%d: %w", sym.N, nrhs, ErrShape)
	}
	if f.Compressed() {
		return nil, ErrCompressed
	}
	pl := newSolvePlan(sch)
	P := sch.P
	rec := sopts.Trace
	x := make([]float64, sym.N*nrhs)
	comm := mpsim.NewComm(P)
	if rec != nil {
		comm.SetTrace(rec)
	}
	var inj *faults.Injector
	if sopts.Faults.Active() {
		var err error
		inj, err = faults.New(*sopts.Faults)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			inj.SetTrace(rec)
		}
		comm.EnableFaults(inj, sopts.Faults.Reliability)
	}
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				comm.Close()
			case <-stop:
			}
		}()
	}
	workers := make([]*solveWorker, P)
	err := comm.Run(func(p int) error {
		// As in the factorization, the worker state is the completion log: a
		// restarted worker resumes its sweep at the cell it crashed before.
		w := workers[p]
		if w == nil {
			w = &solveWorker{p: p, pl: pl, f: f, comm: comm, inj: inj,
				nrhs: nrhs, n: sym.N,
				y:      make(map[int][]float64),
				xs:     make(map[int][]float64),
				fwdAcc: make(map[int][]float64),
				fwdRem: make(map[int]int),
				fwdIn:  make(map[int][]aubContrib),
				bwdAcc: make(map[int][]float64),
				bwdRem: make(map[int]int),
				bwdIn:  make(map[int][]aubContrib),
				got:    make(map[int]int),
				bwdK:   sym.NumCB() - 1,
			}
			workers[p] = w
		}
		return w.run(b, x, rec)
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if errors.Is(err, ErrFaultBudget) {
			ncb := sym.NumCB()
			prog := make([]TaskProgress, P)
			for p := 0; p < P; p++ {
				prog[p] = TaskProgress{Total: 2 * ncb}
				if w := workers[p]; w != nil {
					prog[p].Done = w.fwdK + (ncb - 1 - w.bwdK)
				}
			}
			return nil, &FaultBudgetError{Progress: prog, Err: err}
		}
		return nil, err
	}
	return x, nil
}

type solveWorker struct {
	p    int
	pl   *solvePlan
	f    *Factors
	comm *mpsim.Comm
	inj  *faults.Injector // nil disables fault injection
	nrhs int              // right-hand sides per panel (1 = classic solve)
	n    int              // matrix order (panel leading dimension)

	y      map[int][]float64 // forward segments by cell (width×nrhs panels)
	xs     map[int][]float64 // backward segments by cell (width×nrhs panels)
	fwdAcc map[int][]float64 // locally aggregated forward contributions by target cell
	fwdRem map[int]int
	bwdAcc map[int][]float64
	bwdRem map[int]int
	got    map[int]int // received aggregated messages per cell
	// fwdIn/bwdIn buffer received remote contribution messages per target
	// cell; they are applied in canonical (source-sorted) order once the cell
	// is processed, for bit-reproducibility (see procState.aubIn).
	fwdIn map[int][]aubContrib
	bwdIn map[int][]aubContrib
	// pending buffers backward-phase messages that arrive while this
	// processor is still in its forward sweep (peers may run ahead).
	pending []mpsim.Message

	// Completion log for crash recovery: phase initialisation flags and the
	// sweep positions (next forward cell ascending, next backward cell
	// descending). Boundary steps are numbered fwdK in the forward sweep and
	// 2·ncb−1−bwdK in the backward sweep, stable across restarts.
	fwdInit bool
	fwdDone bool
	bwdInit bool
	fwdK    int
	bwdK    int
}

// boundary is the per-cell task boundary: heartbeat plus any scheduled crash
// or stall.
func (w *solveWorker) boundary(step int) error {
	if w.inj == nil {
		return nil
	}
	w.comm.Heartbeat(w.p)
	return w.inj.Boundary(w.p, step)
}

// run executes (or resumes) both sweeps.
func (w *solveWorker) run(b, x []float64, rec *trace.Recorder) error {
	if !w.fwdInit {
		for k, c := range w.pl.fwdLocal[w.p] {
			w.fwdRem[k] = c
		}
		w.fwdInit = true
	}
	if !w.fwdDone {
		var fwdStart time.Duration
		if rec != nil {
			fwdStart = rec.Now()
		}
		if err := w.forward(b); err != nil {
			return err
		}
		if rec != nil {
			rec.Phase(w.p, trace.PhaseForward, fwdStart, rec.Now())
		}
		w.fwdDone = true
	}
	if !w.bwdInit {
		for k, c := range w.pl.bwdLocal[w.p] {
			w.bwdRem[k] = c
		}
		w.got = make(map[int]int)
		w.bwdInit = true
	}
	var bwdStart time.Duration
	if rec != nil {
		bwdStart = rec.Now()
	}
	if err := w.backward(x); err != nil {
		return err
	}
	if rec != nil {
		rec.Phase(w.p, trace.PhaseBackward, bwdStart, rec.Now())
	}
	return nil
}

// applyIn drains buf[k] in canonical source order into apply.
func applyIn(buf map[int][]aubContrib, k int, apply func([]float64)) {
	contribs := buf[k]
	if len(contribs) == 0 {
		return
	}
	delete(buf, k)
	sort.SliceStable(contribs, func(i, j int) bool { return contribs[i].src < contribs[j].src })
	for _, c := range contribs {
		apply(c.data)
	}
}

func (w *solveWorker) handleFwd(m mpsim.Message) error {
	switch m.Kind {
	case msgXSeg, msgBwdC:
		// A peer already entered its backward sweep; keep for later.
		w.pending = append(w.pending, m)
	case msgYSeg:
		w.y[m.Tag] = m.Data
	case msgFwdC:
		w.fwdIn[m.Tag] = append(w.fwdIn[m.Tag], aubContrib{src: m.Src, data: m.Data})
		w.got[m.Tag]++
	default:
		return fmt.Errorf("solver: unexpected message kind %d in forward solve", m.Kind)
	}
	return nil
}

func (w *solveWorker) forward(b []float64) error {
	pl := w.pl
	sym := pl.sch.Sym()
	for ; w.fwdK < sym.NumCB(); w.fwdK++ {
		k := w.fwdK
		if err := w.boundary(k); err != nil {
			return err
		}
		cb := &sym.CB[k]
		wdt := cb.Width()
		data, ld := w.f.Data[k], w.f.LD[k]
		if pl.diagOwner[k] == w.p {
			for w.got[k] < pl.fwdMsgs[k] {
				m, err := w.comm.Recv(w.p)
				if err != nil {
					return err
				}
				if err := w.handleFwd(m); err != nil {
					return err
				}
			}
			yk := make([]float64, wdt*w.nrhs)
			for r := 0; r < w.nrhs; r++ {
				copy(yk[r*wdt:(r+1)*wdt], b[cb.Cols[0]+r*w.n:cb.Cols[1]+r*w.n])
			}
			if acc := w.fwdAcc[k]; acc != nil {
				for i := range yk {
					yk[i] -= acc[i]
				}
				delete(w.fwdAcc, k)
			}
			applyIn(w.fwdIn, k, func(data []float64) {
				for i := range yk {
					yk[i] -= data[i]
				}
			})
			blas.TrsmLeftLowerUnit(wdt, w.nrhs, data, ld, yk, wdt)
			w.y[k] = yk
			for _, q := range pl.ySendTo[k] {
				w.comm.Send(mpsim.Message{Kind: msgYSeg, Src: w.p, Dst: q, Tag: k, Data: yk})
			}
		}
		// Owned off-diagonal blocks contribute L_b·y_k to their facing cells.
		for bi, blk := range cb.Blocks {
			if pl.blockOwn[k][bi] != w.p {
				continue
			}
			for w.y[k] == nil {
				m, err := w.comm.Recv(w.p)
				if err != nil {
					return err
				}
				if err := w.handleFwd(m); err != nil {
					return err
				}
			}
			f := blk.Facing
			fcb := &sym.CB[f]
			fw := fcb.Width()
			acc := w.fwdAcc[f]
			if acc == nil {
				acc = make([]float64, fw*w.nrhs)
				w.fwdAcc[f] = acc
			}
			// acc[rows] += L_b · Y_k  (GemmNN computes C -= A·B, so negate by
			// accumulating into a positively-signed buffer via a temp panel).
			off := blk.FirstRow - fcb.Cols[0]
			br := blk.Rows()
			tmp := make([]float64, br*w.nrhs)
			blas.GemmNN(br, w.nrhs, wdt, data[w.f.BlockOff[k][bi]:], ld, w.y[k], wdt, tmp, br)
			for r := 0; r < w.nrhs; r++ {
				seg := acc[off+r*fw : off+r*fw+br]
				ts := tmp[r*br : (r+1)*br]
				for i := range seg {
					seg[i] -= ts[i] // tmp = -L·Y, so acc += L·Y
				}
			}
			w.fwdRem[f]--
			if w.fwdRem[f] == 0 && pl.diagOwner[f] != w.p {
				buf := w.fwdAcc[f]
				delete(w.fwdAcc, f)
				delete(w.fwdRem, f)
				w.comm.Send(mpsim.Message{Kind: msgFwdC, Src: w.p, Dst: pl.diagOwner[f], Tag: f, Data: buf})
			}
		}
	}
	return nil
}

func (w *solveWorker) handleBwd(m mpsim.Message) error {
	switch m.Kind {
	case msgXSeg:
		w.xs[m.Tag] = m.Data
	case msgBwdC:
		w.bwdIn[m.Tag] = append(w.bwdIn[m.Tag], aubContrib{src: m.Src, data: m.Data})
		w.got[m.Tag]++
	default:
		return fmt.Errorf("solver: unexpected message kind %d in backward solve", m.Kind)
	}
	return nil
}

func (w *solveWorker) backward(x []float64) error {
	for _, m := range w.pending {
		if err := w.handleBwd(m); err != nil {
			return err
		}
	}
	w.pending = nil
	pl := w.pl
	sym := pl.sch.Sym()
	ncb := sym.NumCB()
	for ; w.bwdK >= 0; w.bwdK-- {
		k := w.bwdK
		if err := w.boundary(2*ncb - 1 - k); err != nil {
			return err
		}
		cb := &sym.CB[k]
		wdt := cb.Width()
		data, ld := w.f.Data[k], w.f.LD[k]
		// Owned blocks of cell k compute L_bᵀ·x_f into k's accumulator.
		for bi, blk := range cb.Blocks {
			if pl.blockOwn[k][bi] != w.p {
				continue
			}
			f := blk.Facing
			for w.xs[f] == nil {
				m, err := w.comm.Recv(w.p)
				if err != nil {
					return err
				}
				if err := w.handleBwd(m); err != nil {
					return err
				}
			}
			acc := w.bwdAcc[k]
			if acc == nil {
				acc = make([]float64, wdt*w.nrhs)
				w.bwdAcc[k] = acc
			}
			off := blk.FirstRow - sym.CB[f].Cols[0]
			blas.GemmTN(wdt, w.nrhs, blk.Rows(), data[w.f.BlockOff[k][bi]:], ld,
				w.xs[f][off:], sym.CB[f].Width(), acc, wdt)
			// GemmTN computes acc -= L_bᵀ·X, which is exactly the sign needed.
			w.bwdRem[k]--
			if w.bwdRem[k] == 0 && pl.diagOwner[k] != w.p {
				buf := w.bwdAcc[k]
				delete(w.bwdAcc, k)
				delete(w.bwdRem, k)
				w.comm.Send(mpsim.Message{Kind: msgBwdC, Src: w.p, Dst: pl.diagOwner[k], Tag: k, Data: buf})
			}
		}
		if pl.diagOwner[k] != w.p {
			continue
		}
		for w.got[k] < pl.bwdMsgs[k] {
			m, err := w.comm.Recv(w.p)
			if err != nil {
				return err
			}
			if err := w.handleBwd(m); err != nil {
				return err
			}
		}
		// X_k = L_kkᵀ \ (D⁻¹ Y_k + Σ accumulated −L_bᵀ X).
		xk := make([]float64, wdt*w.nrhs)
		yk := w.y[k]
		for r := 0; r < w.nrhs; r++ {
			for j := 0; j < wdt; j++ {
				xk[r*wdt+j] = yk[r*wdt+j] / data[j+j*ld]
			}
		}
		if acc := w.bwdAcc[k]; acc != nil {
			for i := range xk {
				xk[i] += acc[i]
			}
			delete(w.bwdAcc, k)
		}
		applyIn(w.bwdIn, k, func(data []float64) {
			for i := range xk {
				xk[i] += data[i]
			}
		})
		blas.TrsmLeftLTransUnit(wdt, w.nrhs, data, ld, xk, wdt)
		w.xs[k] = xk
		for r := 0; r < w.nrhs; r++ {
			copy(x[cb.Cols[0]+r*w.n:cb.Cols[1]+r*w.n], xk[r*wdt:(r+1)*wdt])
		}
		for _, q := range pl.xSendTo[k] {
			w.comm.Send(mpsim.Message{Kind: msgXSeg, Src: w.p, Dst: q, Tag: k, Data: xk})
		}
	}
	return nil
}
