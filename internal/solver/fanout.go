package solver

import (
	"fmt"

	"github.com/pastix-go/pastix/internal/mpsim"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
)

// Fan-out factorization: the classical column-based alternative the paper's
// fan-in scheme is contrasted against (Ashcraft-Eisenstat-Liu's comparison of
// column-based schemes, the paper's refs [3,4]). The OWNER of a column block
// factors it and broadcasts the factored panel to every processor owning a
// column block it updates; updates are computed on the RECEIVING side. No
// aggregation happens, so communication volume is the panel size times its
// remote consumer count — the trade-off that motivates fan-in with AUBs.
//
// Column blocks are wholly owned by their diagonal-task processor (use a
// 1D-only schedule for a faithful comparison). The factor equals the fan-in
// and sequential results to rounding.

const msgPanel int8 = 20 // factored panel of a cell: Tag = cell

// FactorizeFanOut runs the fan-out LDLᵀ factorization on sch.P goroutine
// processors and reports its communication statistics (compare with
// FactorizeParStats for the fan-in volume).
func FactorizeFanOut(a *sparse.SymMatrix, sch *sched.Schedule) (*Factors, CommStats, error) {
	sym := sch.Sym()
	P := sch.P
	ncb := sym.NumCB()

	owner := make([]int, ncb)
	for k := 0; k < ncb; k++ {
		owner[k] = sch.Tasks[sch.DiagTask(k)].Proc
	}
	// sendSet[i]: distinct remote processors owning a cell that i updates.
	// expected[k]: number of distinct remote updater panels cell k waits for.
	sendSet := make([][]int, ncb)
	expected := make([]int, ncb)
	for i := 0; i < ncb; i++ {
		seen := map[int]bool{}
		counted := map[int]bool{} // target cells already counted for panel i
		for _, f := range sym.Facings(i) {
			if owner[f] != owner[i] {
				if !seen[owner[f]] {
					seen[owner[f]] = true
					sendSet[i] = append(sendSet[i], owner[f])
				}
				if !counted[f] {
					counted[f] = true
					expected[f]++
				}
			}
		}
	}

	stores := make([]*Storage[float64], P)
	comm := mpsim.NewComm(P)
	runErr := comm.Run(func(p int) error {
		f := newStorage[float64](sym, false)
		stores[p] = f
		got := make(map[int]int)
		// Assemble owned cells.
		for k := 0; k < ncb; k++ {
			if owner[k] != p {
				continue
			}
			if err := f.AssembleCell(a, k); err != nil {
				return err
			}
		}
		// applyPanel computes the updates of source cell i (panel = scaled L
		// with D on the diagonal, shaped like i's full cell array) into the
		// locally owned target cells, bumping their counters.
		applyPanel := func(i int, data []float64) error {
			ldI := f.LD[i]
			w := sym.CB[i].Width()
			d := make([]float64, w)
			for j := 0; j < w; j++ {
				d[j] = data[j+j*ldI]
			}
			blocks := sym.CB[i].Blocks
			bumped := map[int]bool{}
			for t := range blocks {
				fcell := blocks[t].Facing
				if owner[fcell] != p {
					continue
				}
				// C = L_s · D · L_tᵀ subtracted from the target.
				for s := t; s < len(blocks); s++ {
					if err := updateFromPanel(f, i, s, t, data, d); err != nil {
						return err
					}
				}
				// Only REMOTE panels count toward a cell's expected arrivals;
				// local panels are applied synchronously before the target is
				// reached in the ascending sweep.
				if owner[i] != p && !bumped[fcell] {
					bumped[fcell] = true
					got[fcell]++
				}
			}
			return nil
		}

		for k := 0; k < ncb; k++ {
			if owner[k] != p {
				continue
			}
			for got[k] < expected[k] {
				m, err := comm.Recv(p)
				if err != nil {
					return err
				}
				if m.Kind != msgPanel {
					return fmt.Errorf("solver: fan-out got message kind %d", m.Kind)
				}
				if err := applyPanel(m.Tag, m.Data); err != nil {
					return err
				}
			}
			// Factor cell k: dense diagonal LDLᵀ, panel solve, scale.
			if err := f.FactorDiag(k); err != nil {
				return err
			}
			f.SolvePanel(k)
			d := f.Diag(k)
			f.ScalePanel(k, d)
			// Local updates (receiver-computes applies to ourselves too).
			if err := applyPanel(k, f.Data[k]); err != nil {
				return err
			}
			// Broadcast the factored panel to remote consumers.
			if len(sendSet[k]) > 0 {
				buf := append([]float64(nil), f.Data[k]...)
				for _, q := range sendSet[k] {
					comm.Send(mpsim.Message{Kind: msgPanel, Src: p, Dst: q, Tag: k, Data: buf})
				}
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
