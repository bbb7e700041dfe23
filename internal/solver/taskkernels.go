package solver

import (
	"fmt"
	"sync"
	"time"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/symbolic"
	"github.com/pastix-go/pastix/internal/trace"
)

// This file is the per-task kernel layer under every factorization driver:
// the sequential reference, the shared-memory executor (pinned and work
// stealing), the message-passing runtime and fan-out. A driver decides when
// a task runs, on which processor, where its operands come from and which
// task receives each block update (sched.Schedule.UpdateTask); the kernels
// here do the arithmetic, each in one operation order. So the drivers can
// differ in where an update is added, never in what it computes.

// target is where the (s,t) update of a column block lands: cell Cell, the
// block of Cell holding the update's rows (Block; -1 for its diagonal
// block), and the update's top-left corner at row Row of Cell's array and
// column Col of Cell.
type target struct{ Cell, Block, Row, Col int }

// updateTarget locates the (s,t) update of column block k in f's layout: in
// the cell block t faces, the rows of block s lie in its diagonal block when
// block s faces the same cell, and otherwise in the one off-diagonal block
// that holds them.
func updateTarget[T blas.Scalar](f *Storage[T], k, s, t int) (target, error) {
	cb := &f.Sym.CB[k]
	bs, bt := &cb.Blocks[s], &cb.Blocks[t]
	fcb := &f.Sym.CB[bt.Facing]
	g := target{Cell: bt.Facing, Block: -1, Row: bs.FirstRow - fcb.Cols[0], Col: bt.FirstRow - fcb.Cols[0]}
	if bs.Facing != g.Cell {
		b := fcb.BlockContaining(bs.FirstRow, bs.LastRow)
		if b < 0 {
			return target{}, fmt.Errorf("solver: contribution rows [%d,%d) of cb %d not in cb %d",
				bs.FirstRow, bs.LastRow, k, g.Cell)
		}
		g.Block, g.Row = b, f.BlockOff[g.Cell][b]+bs.FirstRow-fcb.Blocks[b].FirstRow
	}
	return g, nil
}

// update subtracts the (s,t) update of column block cb, W_s·diag(scale)·W_tᵀ,
// from dst: ws holds block s's panel rows (leading dimension lds), wt block
// t's (ldt), and dst starts at the update's corner (leading dimension ldc).
// When s == t only the lower triangle is updated (SYRK), otherwise the whole
// rectangle (GEMM). The operands are the caller's, so the same kernel serves
// a panel in place, a received panel and an aggregation buffer.
func update[T blas.Scalar](cb *symbolic.ColBlock, s, t int, ws []T, lds int, scale, wt []T, ldt int, dst []T, ldc int) {
	kern := blas.KernelsOf[T]()
	rs, w := cb.Blocks[s].Rows(), cb.Width()
	if s == t {
		kern.SyrkLowerNDT(rs, w, ws, lds, scale, dst, ldc)
	} else {
		kern.GemmNDT(rs, cb.Blocks[t].Rows(), w, ws, lds, scale, wt, ldt, dst, ldc)
	}
}

// updateCell applies the (s,t) update of column block k, from the given
// operands, in place to its target cell of f.
func updateCell[T blas.Scalar](f *Storage[T], k, s, t int, ws []T, lds int, scale, wt []T, ldt int) error {
	g, err := updateTarget(f, k, s, t)
	if err != nil {
		return err
	}
	f.EnsureCell(g.Cell)
	ld := f.LD[g.Cell]
	update(&f.Sym.CB[k], s, t, ws, lds, scale, wt, ldt, f.Data[g.Cell][g.Row+g.Col*ld:], ld)
	return nil
}

// updateFromPanel applies the (s,t) update of column block k in place,
// reading both operands from panel, an array in the layout of k's cell in f.
func updateFromPanel[T blas.Scalar](f *Storage[T], k, s, t int, panel, scale []T) error {
	ld := f.LD[k]
	return updateCell(f, k, s, t, panel[f.BlockOff[k][s]:], ld, scale, panel[f.BlockOff[k][t]:], ld)
}

// applyRun applies the updates of run r in place, in the canonical order
// (S ascending). panel holds r.Src's W = L·D in the layout of its cell, and
// invd is 1/D of r.Src.
func applyRun[T blas.Scalar](f *Storage[T], r sched.Pull, panel, invd []T) error {
	for s := r.S0; s < r.S1; s++ {
		if err := updateFromPanel(f, int(r.Src), int(s), int(r.T), panel, invd); err != nil {
			return err
		}
	}
	return nil
}

// applyUpdates applies every update of column block k to its target cell
// in f, in the canonical order: t ascending, then s. panel holds k's
// W = L·D in the layout of k's cell, and invd is 1/D of k.
func applyUpdates[T blas.Scalar](f *Storage[T], k int, panel, invd []T) error {
	nb := len(f.Sym.CB[k].Blocks)
	for t := 0; t < nb; t++ {
		for s := t; s < nb; s++ {
			if err := updateFromPanel(f, k, s, t, panel, invd); err != nil {
				return err
			}
		}
	}
	return nil
}

// assembleOwned is processor p's assembly phase: it scatters the entries of
// a into every region p's tasks own — the whole cell of a COMP1D task, the
// diagonal block of a FACTOR, block S of a BDIV — and records the phase.
func assembleOwned[T blas.Scalar](f *Storage[T], a *sparse.Sym[T], sch *sched.Schedule, p int, rec *trace.Recorder) error {
	var start time.Duration
	if rec != nil {
		start = rec.Now()
	}
	for _, id := range sch.ByProc[p] {
		t := &sch.Tasks[id]
		cb := &f.Sym.CB[t.Cell]
		var err error
		switch t.Type {
		case sched.Comp1D:
			err = f.AssembleCell(a, t.Cell, 0, a.N)
		case sched.Factor:
			err = f.AssembleCell(a, t.Cell, cb.Cols[0], cb.Cols[1])
		case sched.BDiv:
			err = f.AssembleCell(a, t.Cell, cb.Blocks[t.S].FirstRow, cb.Blocks[t.S].LastRow)
		}
		if err != nil {
			return err
		}
	}
	if rec != nil {
		rec.Phase(p, trace.PhaseAssemble, start, rec.Now())
	}
	return nil
}

// pivotLog collects the static-pivot substitutions of one factorization,
// from any number of workers. The report sorts them by column, so their
// arrival order leaves no trace.
type pivotLog struct {
	mu    sync.Mutex
	perts []Perturbation
}

// factorDiag factors cell k's diagonal block in place on processor p, with
// static-pivot threshold tau (0 disables pivoting), and logs every
// substitution into log and, when rec is set, as a pivot event of p.
func factorDiag[T blas.Scalar](f *Storage[T], k int, tau float64, log *pivotLog, rec *trace.Recorder, p int) error {
	ps, err := f.FactorDiagStatic(k, tau)
	if err != nil || len(ps) == 0 {
		return err
	}
	log.mu.Lock()
	log.perts = append(log.perts, ps...)
	log.mu.Unlock()
	if rec != nil {
		for _, pe := range ps {
			rec.Pivot(p, pe.Column)
		}
	}
	return nil
}

// solveBlock is BDIV's kernel: block b of cell k's panel, in place in f,
// becomes W_b = A_b·L_kk⁻ᵀ, with the unit-lower diagonal block read from l
// (leading dimension ldl).
func solveBlock[T blas.Scalar](f *Storage[T], k, b int, l []T, ldl int) {
	cb := &f.Sym.CB[k]
	blas.KernelsOf[T]().TrsmRightLTransUnit(cb.Blocks[b].Rows(), cb.Width(), l, ldl, f.Data[k][f.BlockOff[k][b]:], f.LD[k])
}

// scaleOwned is processor p's deferred scaling phase: every panel region
// p's tasks own — the whole panel of a COMP1D cell, block S of a BDIV —
// still holds W = L·D and is divided by D (diag returns D of a cell), and
// the phase is recorded. The drivers defer it until no task reads W again.
func scaleOwned[T blas.Scalar](f *Storage[T], sch *sched.Schedule, p int, diag func(k int) []T, rec *trace.Recorder) {
	var start time.Duration
	if rec != nil {
		start = rec.Now()
	}
	for _, id := range sch.ByProc[p] {
		t := &sch.Tasks[id]
		switch t.Type {
		case sched.Comp1D:
			f.ScalePanel(t.Cell, diag(t.Cell))
		case sched.BDiv:
			cb := &f.Sym.CB[t.Cell]
			off := f.BlockOff[t.Cell][t.S]
			blas.ScaleColumns(cb.Blocks[t.S].Rows(), cb.Width(), f.Data[t.Cell][off:], f.LD[t.Cell], diag(t.Cell))
		}
	}
	if rec != nil {
		rec.Phase(p, trace.PhaseScale, start, rec.Now())
	}
}
