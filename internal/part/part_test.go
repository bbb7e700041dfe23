package part

import (
	"testing"

	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/graph"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/symbolic"
)

func analyzed(t *testing.T, a *sparse.SymMatrix, bs int) (*etree.Supernodes, *symbolic.Symbol) {
	t.Helper()
	ptr, adj := a.AdjacencyCSR()
	g := graph.FromCSR(a.N, ptr, adj)
	o := order.Compute(g, order.Options{Method: order.ScotchLike, LeafSize: 40})
	pa := a.Permute(o.Perm)
	parent := etree.Build(pa)
	post := etree.Postorder(parent)
	pa = pa.Permute(post)
	parent = etree.Build(pa)
	cc := etree.ColCounts(pa, parent)
	sn := etree.Fundamental(parent, cc)
	sn = etree.Amalgamate(sn, cc, etree.AmalgamateOptions{})
	sn = SplitRanges(sn, Options{BlockSize: bs})
	if err := sn.Validate(a.N); err != nil {
		t.Fatal(err)
	}
	sym := symbolic.Factor(pa, sn)
	if err := sym.Validate(); err != nil {
		t.Fatal(err)
	}
	return sn, sym
}

func TestSplitRangesWidthBound(t *testing.T) {
	sn := &etree.Supernodes{
		Ranges: [][2]int{{0, 10}, {10, 150}, {150, 151}},
		Parent: []int{1, 2, -1},
	}
	out := SplitRanges(sn, Options{BlockSize: 32})
	if err := out.Validate(151); err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Ranges {
		if r[1]-r[0] > 32 {
			t.Fatalf("chunk %v too wide", r)
		}
	}
	// 140 columns in 32-chunks → 5 chunks; widths near-equal (28).
	nchunks := 0
	for _, r := range out.Ranges {
		if r[0] >= 10 && r[1] <= 150 {
			nchunks++
			if w := r[1] - r[0]; w < 28 || w > 28 {
				t.Fatalf("uneven chunk width %d", w)
			}
		}
	}
	if nchunks != 5 {
		t.Fatalf("want 5 chunks, got %d", nchunks)
	}
}

func TestSplitRangesParentChaining(t *testing.T) {
	sn := &etree.Supernodes{
		Ranges: [][2]int{{0, 100}, {100, 110}},
		Parent: []int{1, -1},
	}
	out := SplitRanges(sn, Options{BlockSize: 40})
	// 100 wide → 3 chunks; chunks chain 0→1→2, last chunk's parent is the
	// first chunk of original supernode 1 (index 3).
	if out.Parent[0] != 1 || out.Parent[1] != 2 {
		t.Fatalf("chain parents wrong: %v", out.Parent)
	}
	if out.Parent[2] != 3 {
		t.Fatalf("last chunk parent %d want 3", out.Parent[2])
	}
	if out.Parent[3] != -1 {
		t.Fatalf("root parent %d", out.Parent[3])
	}
}

func TestMapCandidatesCoverAndNest(t *testing.T) {
	p, err := gen.Generate("QUER", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	_, sym := analyzed(t, p.A, 24)
	mach := cost.SP2()
	const P = 8
	m := Map(sym, mach, P, Options{BlockSize: 24, Ratio2D: 4})
	if err := m.Validate(sym.NumCB()); err != nil {
		t.Fatal(err)
	}
	// Nesting: a child's candidate interval must lie within its parent's.
	for k := 0; k < sym.NumCB(); k++ {
		if pa := sym.Parent[k]; pa != -1 {
			if m.CandLo[k] < m.CandLo[pa] || m.CandHi[k] > m.CandHi[pa] {
				t.Fatalf("cb %d cands [%d,%d) outside parent %d [%d,%d)",
					k, m.CandLo[k], m.CandHi[k], pa, m.CandLo[pa], m.CandHi[pa])
			}
		}
	}
	// Roots must span all processors collectively; the top root gets many.
	root := sym.NumCB() - 1
	if m.CandHi[root]-m.CandLo[root] < P/2 {
		t.Fatalf("root candidate set too small: [%d,%d)", m.CandLo[root], m.CandHi[root])
	}
}

func TestMap2DOnTopOnly(t *testing.T) {
	p, err := gen.Generate("SHIP001", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	_, sym := analyzed(t, p.A, 24)
	m := Map(sym, cost.SP2(), 16, Options{BlockSize: 24, Ratio2D: 4, MinWidth2D: 16})
	// 2D cells must exist for a problem of this size at P=16, and every 2D
	// cell must have ≥ Ratio2D candidates.
	n2d := 0
	for k := 0; k < sym.NumCB(); k++ {
		if m.Is2D[k] {
			n2d++
			if m.CandHi[k]-m.CandLo[k] < 4 {
				t.Fatalf("2D cb %d with %d candidates", k, m.CandHi[k]-m.CandLo[k])
			}
		}
	}
	if n2d == 0 {
		t.Fatal("no 2D supernodes chosen at P=16")
	}
	// Leaves (small early cells) must be 1D with few candidates.
	if m.Is2D[0] {
		t.Fatal("first leaf cell should not be 2D")
	}
}

func TestMapSingleProcessor(t *testing.T) {
	p, err := gen.Generate("THREAD", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	_, sym := analyzed(t, p.A, 32)
	m := Map(sym, cost.SP2(), 1, Options{})
	for k := 0; k < sym.NumCB(); k++ {
		if m.CandLo[k] != 0 || m.CandHi[k] != 1 {
			t.Fatalf("cb %d candidates [%d,%d) with P=1", k, m.CandLo[k], m.CandHi[k])
		}
		if m.Is2D[k] {
			t.Fatal("2D distribution with a single processor")
		}
	}
}

func TestSubtreeCostsMonotone(t *testing.T) {
	p, err := gen.Generate("OILPAN", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	_, sym := analyzed(t, p.A, 24)
	m := Map(sym, cost.SP2(), 4, Options{})
	for k := 0; k < sym.NumCB(); k++ {
		if m.SubtreeCost[k] < m.NodeCost[k] {
			t.Fatalf("cb %d subtree cost below node cost", k)
		}
		if pa := sym.Parent[k]; pa != -1 && m.SubtreeCost[pa] < m.SubtreeCost[k] {
			t.Fatalf("cb %d subtree cost exceeds parent's", k)
		}
	}
}

func TestCandidateSharingBetweenSiblings(t *testing.T) {
	// With proportional mapping over a continuum, sibling subtrees may share
	// a boundary processor; verify the mechanism triggers somewhere on a
	// real tree with an odd processor count.
	p, err := gen.Generate("QUER", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	_, sym := analyzed(t, p.A, 24)
	m := Map(sym, cost.SP2(), 7, Options{})
	children := make([][]int, sym.NumCB())
	for k := 0; k < sym.NumCB(); k++ {
		if pa := sym.Parent[k]; pa != -1 {
			children[pa] = append(children[pa], k)
		}
	}
	shared := false
	for _, ch := range children {
		for i := 0; i < len(ch); i++ {
			for j := i + 1; j < len(ch); j++ {
				a, b := ch[i], ch[j]
				if m.CandLo[a] < m.CandHi[b] && m.CandLo[b] < m.CandHi[a] {
					shared = true
				}
			}
		}
	}
	if !shared {
		t.Skip("no shared boundary processor on this instance (allowed but unusual)")
	}
}

func TestCandidatesExpansion(t *testing.T) {
	m := &Mapping{P: 8, CandLo: []int{2}, CandHi: []int{5}, Is2D: []bool{false}}
	c := m.Candidates(0)
	if len(c) != 3 || c[0] != 2 || c[2] != 4 {
		t.Fatalf("candidates %v", c)
	}
}

func TestMappingValidateErrors(t *testing.T) {
	m := &Mapping{P: 4, CandLo: []int{0}, CandHi: []int{0}, Is2D: []bool{false}}
	if err := m.Validate(1); err == nil {
		t.Fatal("empty candidate interval accepted")
	}
	m2 := &Mapping{P: 4, CandLo: []int{0}, CandHi: []int{9}, Is2D: []bool{false}}
	if err := m2.Validate(1); err == nil {
		t.Fatal("out-of-range interval accepted")
	}
	m3 := &Mapping{P: 4, CandLo: []int{0}, CandHi: []int{1}}
	if err := m3.Validate(1); err == nil {
		t.Fatal("short arrays accepted")
	}
}

// Candidates returns the candidate processors of column block k.
func (m *Mapping) Candidates(k int) []int {
	out := make([]int, 0, m.CandHi[k]-m.CandLo[k])
	for p := m.CandLo[k]; p < m.CandHi[k]; p++ {
		out = append(out, p)
	}
	return out
}
