package solver

import (
	"fmt"
	"slices"

	"github.com/pastix-go/pastix/internal/mpsim"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
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
// left-looking over its own cells: before factoring cell k it applies the
// update of every source cell facing k, in ascending source order, through
// the kernel layer (applyUpdates, W = L·D with 1/D). That is the order in
// which the sequential reference adds them, so the factor is FactorizeSeq's
// bit for bit at every P, whatever order the panels arrive in.

const msgPanel int8 = 20 // factored panel of a cell: Tag = cell

// inUpdate is one source cell's update into a target cell: the blocks
// [T0, T1) of cell Src face the target.
type inUpdate struct{ Src, T0, T1 int }

// FactorizeFanOut runs the fan-out LDLᵀ factorization on sch.P goroutine
// processors and reports its communication statistics (compare with
// FactorizeParStats for the fan-in volume).
func FactorizeFanOut(a *sparse.SymMatrix, sch *sched.Schedule) (*Factors, CommStats, error) {
	sym := sch.Sym()
	P := sch.P
	ncb := sym.NumCB()

	owner := make([]int, ncb)
	for k := range owner {
		owner[k] = sch.Tasks[sch.DiagTask(k)].Proc
	}
	// in[k]: the updates into cell k, by ascending source. sendSet[i]: the
	// distinct remote processors owning a cell that i updates.
	in := make([][]inUpdate, ncb)
	sendSet := make([][]int, ncb)
	for i := range sym.CB {
		blocks := sym.CB[i].Blocks
		for t0 := 0; t0 < len(blocks); {
			c := blocks[t0].Facing
			t1 := t0 + 1
			for t1 < len(blocks) && blocks[t1].Facing == c {
				t1++
			}
			in[c] = append(in[c], inUpdate{i, t0, t1})
			if q := owner[c]; q != owner[i] && !slices.Contains(sendSet[i], q) {
				sendSet[i] = append(sendSet[i], q)
			}
			t0 = t1
		}
	}

	stores := make([]*Storage[float64], P)
	comm := mpsim.NewComm(P)
	runErr := comm.Run(func(p int) error {
		f := newStorage[float64](sym, false)
		stores[p] = f
		// A remote source's received W sits in its cell slot of f until
		// uses, its count of p's cells still to update, reaches 0. invd[i]
		// is 1/D of source i while its W is here.
		uses := make([]int, ncb)
		invd := make([][]float64, ncb)
		for k := range owner {
			if owner[k] != p {
				continue
			}
			if err := f.AssembleCell(a, k); err != nil {
				return err
			}
			for _, u := range in[k] {
				if owner[u.Src] != p {
					uses[u.Src]++
				}
			}
		}
		for k := range owner {
			if owner[k] != p {
				continue
			}
			for _, u := range in[k] {
				i := u.Src
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
					invd[i] = invert(f.Diag(i))
				}
				if err := applyUpdates(f, i, u.T0, u.T1, f.Data[i], invd[i]); err != nil {
					return err
				}
				if owner[i] != p {
					if uses[i]--; uses[i] == 0 {
						f.Data[i], invd[i] = nil, nil
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
