package solver

import (
	"fmt"
	"slices"

	"github.com/pastix-go/pastix/internal/mpsim"
)

// Fan-out factorization: the classical column-based alternative the paper's
// fan-in scheme is contrasted against (Ashcraft-Eisenstat-Liu's comparison of
// column-based schemes, the paper's refs [3,4]). The OWNER of a column block
// factors it and broadcasts the factored diagonal block with the panel W to
// every processor owning a column block it updates; updates are computed on
// the RECEIVING side. No aggregation happens, so communication volume is
// the panel size times its remote consumer count — the trade-off that
// motivates fan-in with AUBs.
//
// Column blocks are wholly owned by their diagonal-task processor (use a
// 1D-only schedule for a faithful comparison). Each processor is
// left-looking over its own cells: before factoring cell k it pulls the
// updates into k from the schedule's static lists (sched.Schedule.Pulls),
// those of its COMP1D task, or of its FACTOR and then each BDIV, through the
// kernel layer (W = L·D with 1/D). Each list is in the sequential
// reference's order and the regions are disjoint, so every element takes
// its updates in that order, and the factor is FactorizeSeq's bit for bit
// at every P, whatever order the panels arrive in.

const msgPanel int8 = 20 // factored panel of a cell: Tag = cell

// FactorizeFanOut runs the fan-out LDLᵀ factorization of the analysed
// matrix on its schedule's goroutine processors and reports its
// communication statistics (compare with FactorizeParStats for the fan-in
// volume).
func (an *Analysis) FactorizeFanOut() (*Factors, CommStats, error) {
	a, sch, sym, pulls := an.A, an.Sched, an.Sym, an.taskPulls()
	P := sch.P
	ncb := sym.NumCB()

	// into[k]: the tasks whose regions tile cell k, in the order their
	// updates are applied. owner[k]: the processor factoring k.
	// sendSet[i]: the distinct remote processors owning a cell that i
	// updates.
	into := make([][]int, ncb)
	owner := make([]int, ncb)
	sendSet := make([][]int, ncb)
	for k := range into {
		if sch.Comp1DOf[k] >= 0 {
			into[k] = sch.Comp1DOf[k : k+1]
		} else {
			into[k] = append([]int{sch.FactorOf[k]}, sch.BDivOf[k]...)
		}
		owner[k] = sch.Tasks[into[k][0]].Proc
		for _, id := range into[k] {
			for _, r := range pulls.Of(id) { // sources precede k: owned already
				if q := owner[k]; q != owner[r.Src] && !slices.Contains(sendSet[r.Src], q) {
					sendSet[r.Src] = append(sendSet[r.Src], q)
				}
			}
		}
	}

	stores := make([]*Storage[float64], P)
	comm := mpsim.NewComm(P)
	runErr := comm.Run(func(p int) error {
		f := newStorage[float64](sym, false)
		stores[p] = f
		// A remote source's received W sits in its cell slot of f until
		// uses, its count of runs into p's cells still to apply, reaches 0.
		// invd[i] is 1/D of source i while its W is here.
		uses := make([]int, ncb)
		invd := make([][]float64, ncb)
		for k := range owner {
			if owner[k] != p {
				continue
			}
			if err := f.AssembleCell(a, k, 0, a.N); err != nil {
				return err
			}
			for _, id := range into[k] {
				for _, r := range pulls.Of(id) {
					if owner[r.Src] != p {
						uses[r.Src]++
					}
				}
			}
		}
		for k := range owner {
			if owner[k] != p {
				continue
			}
			for _, id := range into[k] {
				for _, r := range pulls.Of(id) {
					i := r.Src
					for f.Data[i] == nil {
						m, err := comm.Recv(p)
						if err != nil {
							return err
						}
						if m.Kind != msgPanel {
							return fmt.Errorf("solver: fan-out got message kind %d", m.Kind)
						}
						f.Data[m.Tag] = m.Data
					}
					if invd[i] == nil {
						invd[i] = invert(f.Diag(int(i)))
					}
					if err := applyRun(f, r, f.Data[i], invd[i]); err != nil {
						return err
					}
					if owner[i] != p {
						if uses[i]--; uses[i] == 0 {
							f.Data[i], invd[i] = nil, nil
						}
					}
				}
			}
			if _, err := f.FactorDiagStatic(k, 0); err != nil {
				return err
			}
			f.SolvePanel(k)
			// Broadcast the factored diagonal block with the unscaled W.
			if len(sendSet[k]) > 0 {
				buf := slices.Clone(f.Data[k])
				for _, q := range sendSet[k] {
					comm.Send(mpsim.Message{Kind: msgPanel, Src: p, Dst: q, Tag: k, Data: buf})
				}
			}
		}
		for k := range owner {
			if owner[k] == p {
				f.ScalePanel(k, f.Diag(k))
			}
		}
		return nil
	})
	msgs, bytes, inflight := comm.Stats()
	stats := CommStats{Messages: msgs, Bytes: bytes, MaxInFlight: inflight}
	for i := 0; i < ncb; i++ {
		stats.PredictedMessages += int64(len(sendSet[i]))
	}
	if runErr != nil {
		return nil, stats, runErr
	}
	g := newStorage[float64](sym, false)
	for k := 0; k < ncb; k++ {
		g.Data[k] = stores[owner[k]].Data[k]
	}
	return realFactors(g, StaticPivot{}, 0, nil), stats, nil
}
