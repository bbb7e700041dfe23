package solver

import (
	"context"
	"fmt"
	"slices"

	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/graph"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/sparse"
)

// Schur complement support, in the tradition of PaStiX's Schur API consumed
// by hybrid direct/iterative solvers (HIPS, MaPHyS): the caller designates a
// set of unknowns (typically an interface separating subdomains); those are
// ordered last as one terminal column block, the factorization eliminates
// all interior unknowns, and the fully updated terminal diagonal block
// S = A_ss − A_si·A_ii⁻¹·A_is is returned dense instead of being factored.

// SchurAnalysis extends Analysis with the terminal Schur block bookkeeping.
type SchurAnalysis struct {
	*Analysis
	// SchurVars lists the designated unknowns (original indices) in the
	// order of the rows/columns of the returned Schur matrix.
	SchurVars []int
}

// AnalyzeSchur runs the analysis pipeline with the Schur unknowns ordered
// last, as one terminal column block. schurVars must be distinct valid
// indices forming a proper nonempty subset. FactorizeSchur eliminates
// sequentially and never reads the schedule, so it is built for one
// processor whatever opts.P says.
func AnalyzeSchur(a *sparse.SymMatrix, schurVars []int, opts Options) (*SchurAnalysis, error) {
	opts.P = 1
	n := a.N
	isSchur := make([]bool, n)
	for _, v := range schurVars {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("solver: schur unknown %d out of range", v)
		}
		if isSchur[v] {
			return nil, fmt.Errorf("solver: schur unknown %d listed twice", v)
		}
		isSchur[v] = true
	}
	ns := len(schurVars)
	if ns == 0 || ns == n {
		return nil, fmt.Errorf("solver: schur set must be a proper nonempty subset")
	}
	cut := n - ns

	// Order the interior subgraph only; the Schur unknowns go last, sorted.
	ord := func(g *graph.Graph) *order.Ordering {
		interior := make([]int, 0, cut)
		for v := 0; v < n; v++ {
			if !isSchur[v] {
				interior = append(interior, v)
			}
		}
		sub, l2g := g.Subgraph(interior)
		o := order.Compute(sub, opts.Ordering)
		perm := make([]int, 0, n)
		for _, lv := range o.Perm {
			perm = append(perm, l2g[lv])
		}
		perm = append(perm, schurVars...)
		slices.Sort(perm[cut:])
		iperm := make([]int, n)
		for newI, old := range perm {
			iperm[old] = newI
		}
		return &order.Ordering{Perm: perm, IPerm: iperm, SupernodeSizes: append(o.SupernodeSizes, ns)}
	}
	partition := func(parent, cc []int) (*etree.Supernodes, error) {
		sn := etree.Amalgamate(etree.Fundamental(parent, cc), cc, opts.Amalgamation)
		return forceTerminalBlock(sn, cut, opts.Part), nil
	}
	an, err := analyze(context.Background(), a, opts, ord, ns, partition)
	if err != nil {
		return nil, err
	}
	return &SchurAnalysis{Analysis: an, SchurVars: slices.Clone(an.Perm[cut:])}, nil
}

// forceTerminalBlock is the Schur partition: the supernodes of sn below cut,
// trimmed at cut (amalgamation may merge an interior chain into the Schur
// range) and split by opts, then [cut, n) as one terminal column block.
func forceTerminalBlock(sn *etree.Supernodes, cut int, opts part.Options) *etree.Supernodes {
	interior := &etree.Supernodes{}
	for _, r := range sn.Ranges {
		if r[0] < cut {
			interior.Ranges = append(interior.Ranges, [2]int{r[0], min(r[1], cut)})
			interior.Parent = append(interior.Parent, -1)
		}
	}
	out := part.SplitRanges(interior, opts)
	out.Ranges = append(out.Ranges, [2]int{cut, sn.Ranges[len(sn.Ranges)-1][1]})
	out.Parent = append(out.Parent, -1)
	return out
}

// FactorizeSchur eliminates the interior unknowns and returns the partial
// factor (strided) plus the dense Schur complement S (ns×ns, column-major,
// full symmetric storage). The terminal block of the factor is left
// unfactored.
func (san *SchurAnalysis) FactorizeSchur() (*Storage[float64], []float64, error) {
	sym := san.Sym
	ncb := sym.NumCB()
	f, _, err := factorizeSeq(san.A, sym, 0, ncb-1)
	if err != nil {
		return nil, nil, err
	}
	// The terminal cell's diagonal region now holds S (lower triangle).
	last := ncb - 1
	ns := sym.CB[last].Width()
	ld := f.LD[last]
	s := make([]float64, ns*ns)
	for j := 0; j < ns; j++ {
		for i := j; i < ns; i++ {
			v := f.Data[last][i+j*ld]
			s[i+j*ns] = v
			s[j+i*ns] = v
		}
	}
	return f, s, nil
}
