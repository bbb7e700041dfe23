package solver

import (
	"context"
	"fmt"

	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/sparse"
)

// AnalyzeRestoreCtx is AnalyzeCtx for restoring a persisted factor: the
// analysis is built on the column-block partition the factor was computed
// on, so a factor survives a change of the amalgamation rule or of
// opts.Part.BlockSize. bounds are the recorded column-block boundaries
// (FactorPayload.Partition). A nil bounds is a payload from before the
// partition was recorded: the analysis then uses the amalgamation rule
// those payloads were factored under, split by opts.Part as before.
func AnalyzeRestoreCtx(ctx context.Context, a *sparse.SymMatrix, opts Options, bounds []int) (*Analysis, error) {
	if bounds == nil {
		return analyze(ctx, a, opts, computeOrdering(opts.Ordering), 0, func(parent, cc []int) (*etree.Supernodes, error) {
			sn := etree.Fundamental(parent, cc)
			if !opts.Amalgamation.Disable {
				sn = legacyAmalgamate(sn, cc)
			}
			return part.SplitRanges(sn, opts.Part), nil
		})
	}
	return analyze(ctx, a, opts, computeOrdering(opts.Ordering), 0, func(parent, cc []int) (*etree.Supernodes, error) {
		n := len(parent)
		if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != n {
			return nil, fmt.Errorf("solver: recorded partition does not span the %d columns", n)
		}
		sn := &etree.Supernodes{Ranges: make([][2]int, len(bounds)-1)}
		for k := range sn.Ranges {
			if bounds[k] >= bounds[k+1] {
				return nil, fmt.Errorf("solver: recorded partition is not increasing at block %d", k)
			}
			sn.Ranges[k] = [2]int{bounds[k], bounds[k+1]}
		}
		sn.SetParents(parent)
		return sn, nil
	})
}

// legacyAmalgamate is the amalgamation rule factors were computed under
// before payloads recorded their partition, kept unchanged so those payloads
// still find their column blocks: a supernode of width at most 4 merges
// into its adjacent parent whatever the cost, a wider one when the
// estimated extra zeros are at most 5% of the merged supernode's entries.
// The estimate reads the parent's row count from its first column, which
// after a merge is the absorbed child's; that is why the rule let zeros
// pile up, and why it must not be corrected here.
func legacyAmalgamate(s *etree.Supernodes, cc []int) *etree.Supernodes {
	const minWidth, fillTol = 4, 0.05
	ns := len(s.Ranges)
	start := make([]int, ns)
	end := make([]int, ns)
	alive := make([]bool, ns)
	rep := make([]int, ns)
	for k, r := range s.Ranges {
		start[k], end[k], alive[k], rep[k] = r[0], r[1], true, k
	}
	find := func(k int) int {
		for rep[k] != k {
			rep[k] = rep[rep[k]]
			k = rep[k]
		}
		return k
	}
	for k := ns - 1; k >= 0; k-- {
		pk := s.Parent[k]
		if pk == -1 {
			continue
		}
		p := find(pk)
		if start[p] != end[k] {
			continue
		}
		ws := end[k] - start[k]
		wt := end[p] - start[p]
		rowsS := cc[start[k]] - ws
		rowsT := cc[start[p]] - wt
		extra := max(ws*(wt+rowsT-rowsS), 0)
		w := ws + wt
		mergedNNZ := w*(w+1)/2 + w*rowsT
		if ws <= minWidth || float64(extra) <= fillTol*float64(mergedNNZ) {
			start[p] = start[k]
			alive[k] = false
			rep[k] = p
		}
	}
	out := &etree.Supernodes{}
	old2new := make([]int, ns)
	for k := 0; k < ns; k++ {
		if alive[k] {
			old2new[k] = len(out.Ranges)
			out.Ranges = append(out.Ranges, [2]int{start[k], end[k]})
		}
	}
	out.Parent = make([]int, len(out.Ranges))
	for k := 0; k < ns; k++ {
		if !alive[k] {
			continue
		}
		if pk := s.Parent[k]; pk == -1 {
			out.Parent[old2new[k]] = -1
		} else {
			out.Parent[old2new[k]] = old2new[find(pk)]
		}
	}
	return out
}
