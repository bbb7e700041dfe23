// Package multifrontal models the PSPASES baseline the paper compares
// against (Joshi, Karypis, Kumar, Gupta & Gustavson): a parallel
// multifrontal Cholesky (LLᵀ) factorization with subtree-to-subcube
// proportional mapping.
//
// SimulateTime is the modelled parallel time of Table 2's PSPASES column,
// where a multi-candidate front is gang-scheduled on its processor subcube
// with a Gupta–Karypis-style parallel dense-kernel model. This is what
// makes the baseline competitive at scale, as real PSPASES 2D fronts are.
// The baseline is modelled, not executed: it reuses the same analysis
// pipeline as PaStiX (with the MeTiS-like ordering, PSPASES's default).
package multifrontal

import (
	"math"

	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/solver"
)

// SimulateTime models the parallel multifrontal factorization time on the
// machine profile: subtree-to-subcube gang scheduling where a front with q
// candidate processors runs its dense kernels at q-way parallel efficiency
// following a Gupta–Karypis-style model (perfect work split plus a
// communication term ∝ front area / √q plus per-level startup), and child
// updates crossing subcube boundaries pay bandwidth.
func SimulateTime(an *solver.Analysis, mach *cost.Machine) float64 {
	sym := an.Sym
	P := an.Mapping.P
	ncb := sym.NumCB()
	chol := mach.CholRatio()
	seqWork := func(k int) float64 {
		w := sym.CB[k].Width()
		r := sym.CB[k].RowsBelow()
		t := mach.FactorTime(w) + mach.TrsmTime(r, w)
		if r > 0 {
			t += mach.GemmTime(r, r, w) / 2
			t += mach.AddTime(r * (r + 1) / 2) // extend-add of the update
		}
		return t / chol
	}
	frontPar := func(k, q int) float64 {
		seq := seqWork(k)
		if q <= 1 {
			return seq
		}
		w := sym.CB[k].Width()
		r := sym.CB[k].RowsBelow()
		n := float64(w + r)
		// Word-transfer term of 2D parallel dense Cholesky, ~c·n²/√q words
		// with c≈0.25 once send/compute overlap is accounted for.
		comm := 0.25 * n * n * 8 / math.Sqrt(float64(q)) / mach.Bandwidth
		steps := float64(w)/64 + 1
		return seq/float64(q) + comm + mach.Latency*steps*math.Log2(float64(q))
	}
	timer := make([]float64, P)
	complete := make([]float64, ncb)
	for k := 0; k < ncb; k++ {
		lo, hi := an.Mapping.CandLo[k], an.Mapping.CandHi[k]
		q := hi - lo
		ready := 0.0
		for q2 := lo; q2 < hi; q2++ {
			if timer[q2] > ready {
				ready = timer[q2]
			}
		}
		// Children completion (+ redistribution when subcubes differ).
		for c := 0; c < k; c++ {
			if sym.Parent[c] != k {
				continue
			}
			at := complete[c]
			if an.Mapping.CandLo[c] != lo || an.Mapping.CandHi[c] != hi {
				r := sym.CB[c].RowsBelow()
				at += mach.SendTime(r * (r + 1) / 2 * 8)
			}
			if at > ready {
				ready = at
			}
		}
		dur := frontPar(k, q)
		complete[k] = ready + dur
		for q2 := lo; q2 < hi; q2++ {
			timer[q2] = complete[k]
		}
	}
	mk := 0.0
	for _, t := range timer {
		if t > mk {
			mk = t
		}
	}
	return mk
}
