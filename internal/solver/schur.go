package solver

import (
	"fmt"
	"sort"

	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/graph"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/sched"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/symbolic"
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

// AnalyzeSchur orders the matrix with the Schur unknowns constrained last,
// then runs the usual pipeline. schurVars must be distinct valid indices.
func AnalyzeSchur(a *sparse.SymMatrix, schurVars []int, opts Options) (*SchurAnalysis, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
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
	if opts.P <= 0 {
		opts.P = 1
	}
	mach := opts.Machine
	if mach == nil {
		mach = cost.SP2()
	}

	// Order the interior subgraph only; the Schur unknowns go last (sorted,
	// one terminal supernode).
	ptr, adj := a.AdjacencyCSR()
	g := graph.FromCSR(n, ptr, adj)
	interior := make([]int, 0, n-ns)
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
	schurSorted := append([]int(nil), schurVars...)
	sort.Ints(schurSorted)
	perm = append(perm, schurSorted...)

	iperm := make([]int, n)
	for newI, old := range perm {
		iperm[old] = newI
	}
	// The terminal Schur columns form a path at the top of the etree; the
	// postorder keeps them last (they are ancestors of everything they
	// touch).
	pa, composed, iperm, parent, cc := postordered(a, ptr, adj, perm, iperm)
	// Verify the Schur unknowns stayed last (they must: every interior
	// column is eliminated before them or unrelated).
	for r := n - ns; r < n; r++ {
		if !isSchur[composed[r]] {
			return nil, fmt.Errorf("solver: schur unknowns not terminal after postorder")
		}
	}

	sn := etree.Fundamental(parent, cc)
	sn = etree.Amalgamate(sn, cc, opts.Amalgamation)
	// Merge all supernodes inside the Schur range into one terminal block,
	// then split only the interior ones.
	sn = forceTerminalBlock(sn, n-ns)
	interiorSn := &etree.Supernodes{}
	var schurRange [2]int
	for i, r := range sn.Ranges {
		if r[0] >= n-ns {
			schurRange = r
			continue
		}
		interiorSn.Ranges = append(interiorSn.Ranges, r)
		interiorSn.Parent = append(interiorSn.Parent, sn.Parent[i])
	}
	split := part.SplitRanges(interiorSn, opts.Part)
	final := &etree.Supernodes{Ranges: append(split.Ranges, schurRange), Parent: make([]int, len(split.Ranges)+1)}
	for i := range final.Parent {
		final.Parent[i] = -1 // recomputed from the block structure by symbolic.Factor
	}
	if err := final.Validate(n); err != nil {
		return nil, err
	}
	sym := symbolic.Factor(pa, final)

	mapping := part.Map(sym, mach, opts.P, opts.Part)
	schedule, err := sched.Build(sym, mapping, mach, opts.Sched)
	if err != nil {
		return nil, err
	}
	an := &Analysis{
		A: pa, Perm: composed, IPerm: iperm, Snodes: final, Sym: sym,
		Mapping: mapping, Sched: schedule, Machine: mach,
		ScalarNNZL: etree.NNZL(cc), ScalarOPC: etree.OPC(cc),
		BlockNNZL: sym.NNZL(), BlockOPC: sym.OPC(),
	}
	ordered := make([]int, ns)
	copy(ordered, composed[n-ns:])
	return &SchurAnalysis{Analysis: an, SchurVars: ordered}, nil
}

// forceTerminalBlock merges every supernode whose range intersects [cut, n)
// into one terminal supernode starting exactly at cut. Ranges never straddle
// cut because the Schur set was ordered contiguously last, and fundamental
// supernodes/amalgamation only merge adjacent ranges within the etree, but a
// merge across the cut is possible (interior chain into the terminal block);
// in that case the interior part is split back off.
func forceTerminalBlock(sn *etree.Supernodes, cut int) *etree.Supernodes {
	out := &etree.Supernodes{}
	for i, r := range sn.Ranges {
		switch {
		case r[1] <= cut:
			out.Ranges = append(out.Ranges, r)
			out.Parent = append(out.Parent, sn.Parent[i])
		case r[0] < cut:
			out.Ranges = append(out.Ranges, [2]int{r[0], cut})
			out.Parent = append(out.Parent, sn.Parent[i])
		}
	}
	n := sn.Ranges[len(sn.Ranges)-1][1]
	out.Ranges = append(out.Ranges, [2]int{cut, n})
	out.Parent = append(out.Parent, -1)
	for i := range out.Parent {
		if i < len(out.Parent)-1 {
			out.Parent[i] = -1 // parents recomputed by symbolic.Factor; unused here
		}
	}
	return out
}

// FactorizeSchur eliminates the interior unknowns and returns the partial
// factor (strided) plus the dense Schur complement S (ns×ns, column-major,
// full symmetric storage). The terminal block of the factor is left
// unfactored.
func (san *SchurAnalysis) FactorizeSchur() (*Storage[float64], []float64, error) {
	sym := san.Sym
	ncb := sym.NumCB()
	f := newStorage[float64](sym, true)
	for k := range sym.CB {
		if err := f.AssembleCell(san.A, k); err != nil {
			return nil, nil, err
		}
	}
	for k := 0; k < ncb-1; k++ {
		if err := f.FactorDiag(k); err != nil {
			return nil, nil, err
		}
		f.SolvePanel(k)
		d := f.Diag(k)
		if err := applyCellUpdates(f, k, invert(d)); err != nil {
			return nil, nil, err
		}
		f.ScalePanel(k, d)
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
