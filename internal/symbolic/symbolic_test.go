package symbolic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/graph"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/sparse"
)

// analyze runs the standard pipeline used by the solver: order, permute,
// postorder, supernodes, block symbolic.
func analyze(t *testing.T, a *sparse.SymMatrix, m order.Method) (*sparse.SymMatrix, *etree.Supernodes, *Symbol) {
	t.Helper()
	ptr, adj := a.AdjacencyCSR()
	g := graph.FromCSR(a.N, ptr, adj)
	o := order.Compute(g, order.Options{Method: m, LeafSize: 20})
	if err := o.Validate(a.N); err != nil {
		t.Fatal(err)
	}
	pa := a.Permute(o.Perm)
	parent := etree.Build(pa)
	post := etree.Postorder(parent)
	pa = pa.Permute(post)
	parent = etree.Build(pa)
	cc := etree.ColCounts(pa, parent)
	sn := etree.Fundamental(parent, cc)
	sn = etree.Amalgamate(sn, cc, etree.AmalgamateOptions{})
	if err := sn.Validate(a.N); err != nil {
		t.Fatal(err)
	}
	sym := Factor(pa, sn)
	return pa, sn, sym
}

func laplacian2D(nx, ny int) *sparse.SymMatrix {
	b := sparse.NewBuilder(nx * ny)
	idx := func(i, j int) int { return i + j*nx }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			v := idx(i, j)
			b.Add(v, v, 4)
			if i+1 < nx {
				b.Add(v, idx(i+1, j), -1)
			}
			if j+1 < ny {
				b.Add(v, idx(i, j+1), -1)
			}
		}
	}
	return b.Build()
}

// scalarFillRows computes the exact scalar fill structure of the amalgamated
// matrix (each column of a block given the union pattern of its block) by
// dense symbolic elimination — the oracle for Factor.
func scalarFillRows(a *sparse.SymMatrix, sn *etree.Supernodes) [][]bool {
	n := a.N
	pat := make([][]bool, n)
	for i := range pat {
		pat[i] = make([]bool, n)
	}
	col2sn := sn.ColToSnode(n)
	// Amalgamated initial pattern: entry (i,j) spreads over all columns of
	// j's block, and the diagonal blocks are dense.
	for j := 0; j < n; j++ {
		r := sn.Ranges[col2sn[j]]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			for c := r[0]; c < r[1]; c++ {
				if i >= c {
					pat[i][c] = true
				} else {
					pat[c][i] = true
				}
			}
		}
		for c := r[0]; c <= j; c++ {
			pat[j][c] = true
		}
	}
	// Dense symbolic elimination. Fill spreads block-wise: after each step
	// re-amalgamate new fill across the target block's columns.
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			if !pat[i][k] {
				continue
			}
			for j := k + 1; j <= i; j++ {
				if pat[j][k] && !pat[i][j] {
					// spread over j's whole block (columns ≤ i)
					r := sn.Ranges[col2sn[j]]
					for c := r[0]; c < r[1] && c <= i; c++ {
						pat[i][c] = true
					}
				}
			}
		}
	}
	return pat
}

func TestFactorAgainstAmalgamatedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		n := 6 + rng.Intn(20)
		b := sparse.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.Add(i, i, 10)
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.2 {
					b.Add(i, j, -1)
				}
			}
		}
		a := b.Build()
		// Natural order, random-ish contiguous partition.
		var ranges [][2]int
		pos := 0
		for pos < n {
			w := 1 + rng.Intn(4)
			if pos+w > n {
				w = n - pos
			}
			ranges = append(ranges, [2]int{pos, pos + w})
			pos += w
		}
		sn := &etree.Supernodes{Ranges: ranges, Parent: make([]int, len(ranges))}
		sym := Factor(a, sn)
		if err := sym.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		oracle := scalarFillRows(a, sn)
		// Symbol block (i-row, k-block) present ⇔ oracle fill at (i, cols of k).
		got := make([][]bool, n)
		for i := range got {
			got[i] = make([]bool, n)
		}
		for k := range sym.CB {
			cb := &sym.CB[k]
			for c := cb.Cols[0]; c < cb.Cols[1]; c++ {
				for r := c; r < cb.Cols[1]; r++ {
					got[r][c] = true // dense diagonal block
				}
			}
			for _, blk := range cb.Blocks {
				for r := blk.FirstRow; r < blk.LastRow; r++ {
					for c := cb.Cols[0]; c < cb.Cols[1]; c++ {
						got[r][c] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if got[i][j] != oracle[i][j] {
					t.Fatalf("trial %d: fill mismatch at (%d,%d): got %v oracle %v",
						trial, i, j, got[i][j], oracle[i][j])
				}
			}
		}
	}
}

func TestFactorLaplacianPipeline(t *testing.T) {
	a := laplacian2D(12, 12)
	for _, m := range []order.Method{order.ScotchLike, order.MetisLike, order.PureAMD} {
		_, sn, sym := analyze(t, a, m)
		if err := sym.Validate(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if sym.NumCB() != sn.Count() {
			t.Fatalf("%v: cb count mismatch", m)
		}
		// Block NNZ must cover at least the scalar NNZ of the unamalgamated
		// factor of the same permuted matrix.
		if sym.NNZL() < int64(a.N) {
			t.Fatalf("%v: NNZL too small: %d", m, sym.NNZL())
		}
	}
}

func TestFacingsAndUpdatersAreInverse(t *testing.T) {
	a := laplacian2D(10, 10)
	_, _, sym := analyze(t, a, order.ScotchLike)
	for k := 0; k < sym.NumCB(); k++ {
		for _, f := range sym.Facings(k) {
			found := false
			for _, u := range sym.Updaters[f] {
				if u == k {
					found = true
				}
			}
			if !found {
				t.Fatalf("cb %d faces %d but is not among its updaters", k, f)
			}
		}
	}
	for f := 0; f < sym.NumCB(); f++ {
		for _, u := range sym.Updaters[f] {
			ok := false
			for _, ff := range sym.Facings(u) {
				if ff == f {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("cb %d listed as updater of %d but does not face it", u, f)
			}
		}
	}
}

// TestBlockContaining: every block is found for its own rows and for each
// single row inside it; a range that starts above a cell's first block or
// runs past the end of the block holding its first row is in no one block.
func TestBlockContaining(t *testing.T) {
	_, _, sym := analyze(t, laplacian2D(10, 10), order.ScotchLike)
	for k := range sym.CB {
		cb := &sym.CB[k]
		for b, blk := range cb.Blocks {
			if got := cb.BlockContaining(blk.FirstRow, blk.LastRow); got != b {
				t.Fatalf("cb %d: block %d rows [%d,%d) found in block %d", k, b, blk.FirstRow, blk.LastRow, got)
			}
			for r := blk.FirstRow; r < blk.LastRow; r++ {
				if got := cb.BlockContaining(r, r+1); got != b {
					t.Fatalf("cb %d: row %d of block %d found in block %d", k, r, b, got)
				}
			}
			if got := cb.BlockContaining(blk.FirstRow, blk.LastRow+1); got != -1 {
				t.Fatalf("cb %d: rows [%d,%d) overrun block %d but were found in %d", k, blk.FirstRow, blk.LastRow+1, b, got)
			}
		}
		if len(cb.Blocks) > 0 {
			if got := cb.BlockContaining(cb.Cols[0], cb.Cols[0]+1); got != -1 {
				t.Fatalf("cb %d: diagonal row %d found in block %d", k, cb.Cols[0], got)
			}
		}
	}
}

func TestSpanHelpers(t *testing.T) {
	got := spansFromSorted([]int{1, 2, 2, 3, 7, 9, 10})
	want := []Span{{1, 4}, {7, 8}, {9, 11}}
	if len(got) != len(want) {
		t.Fatalf("%v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%v want %v", got, want)
		}
	}
	u := unionSpans([]Span{{0, 3}, {8, 10}}, []Span{{2, 5}, {5, 6}, {10, 12}})
	want = []Span{{0, 6}, {8, 12}}
	if len(u) != len(want) {
		t.Fatalf("union %v", u)
	}
	for i := range want {
		if u[i] != want[i] {
			t.Fatalf("union %v want %v", u, want)
		}
	}
	c := clipSpans([]Span{{0, 4}, {6, 9}}, 3)
	want = []Span{{3, 4}, {6, 9}}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("clip %v want %v", c, want)
		}
	}
}

func TestOPCAndNNZLPositiveAndOrdered(t *testing.T) {
	small := laplacian2D(6, 6)
	big := laplacian2D(14, 14)
	_, _, symS := analyze(t, small, order.ScotchLike)
	_, _, symB := analyze(t, big, order.ScotchLike)
	if symS.OPC() <= 0 || symB.OPC() <= 0 {
		t.Fatal("OPC must be positive")
	}
	if symB.OPC() <= symS.OPC() || symB.NNZL() <= symS.NNZL() {
		t.Fatal("bigger problem should have bigger OPC/NNZL")
	}
}

func TestParentIsFirstFacing(t *testing.T) {
	a := laplacian2D(9, 9)
	_, _, sym := analyze(t, a, order.MetisLike)
	for k := 0; k < sym.NumCB(); k++ {
		if len(sym.CB[k].Blocks) == 0 {
			if sym.Parent[k] != -1 {
				t.Fatalf("cb %d: no blocks but parent %d", k, sym.Parent[k])
			}
			continue
		}
		if sym.Parent[k] != sym.CB[k].Blocks[0].Facing {
			t.Fatalf("cb %d parent mismatch", k)
		}
	}
}

// TestPanelRows checks the panel row index against the blocks: each column
// block's RowsBelow entries in turn, block by block, every row of a block
// once, and one shared slice however many callers ask at once.
func TestPanelRows(t *testing.T) {
	a := laplacian2D(9, 9)
	_, _, sym := analyze(t, a, order.MetisLike)
	got := make([][]int32, 4)
	done := make(chan int)
	for g := range got {
		go func() {
			got[g] = sym.PanelRows()
			done <- g
		}()
	}
	for range got {
		<-done
	}
	rows := got[0]
	for g := range got {
		if &got[g][0] != &rows[0] {
			t.Fatalf("caller %d got its own index", g)
		}
	}
	off := 0
	for k := range sym.CB {
		for _, blk := range sym.CB[k].Blocks {
			for i := blk.FirstRow; i < blk.LastRow; i++ {
				if rows[off] != int32(i) {
					t.Fatalf("cb %d: panel row %d faces row %d, want %d", k, off, rows[off], i)
				}
				off++
			}
		}
	}
	if off != len(rows) {
		t.Fatalf("index has %d entries, the panels %d", len(rows), off)
	}
}

// Property (testing/quick): on random matrices with random contiguous
// partitions, the block symbolic structure is internally valid and its
// NNZL/OPC are monotone under partition refinement (a finer partition never
// stores more entries than a coarser one of the same matrix... the converse:
// amalgamating ranges can only add explicit zeros).
func TestQuickFactorValidAndMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(24)
		b := sparse.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.Add(i, i, 10)
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.15 {
					b.Add(i, j, -1)
				}
			}
		}
		a := b.Build()
		// Coarse partition, then its refinement into singletons.
		var ranges [][2]int
		pos := 0
		for pos < n {
			w := 1 + rng.Intn(5)
			if pos+w > n {
				w = n - pos
			}
			ranges = append(ranges, [2]int{pos, pos + w})
			pos += w
		}
		coarse := &etree.Supernodes{Ranges: ranges, Parent: make([]int, len(ranges))}
		var singles [][2]int
		for i := 0; i < n; i++ {
			singles = append(singles, [2]int{i, i + 1})
		}
		fine := &etree.Supernodes{Ranges: singles, Parent: make([]int, n)}
		symC := Factor(a, coarse)
		symF := Factor(a, fine)
		if symC.Validate() != nil || symF.Validate() != nil {
			return false
		}
		// The singleton partition stores the exact scalar fill; the coarse
		// partition adds amalgamation zeros.
		return symC.NNZL() >= symF.NNZL()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the singleton-partition block NNZL equals the scalar fill count
// from the elimination-tree column counts.
func TestQuickSingletonMatchesScalarFill(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		b := sparse.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.Add(i, i, 5)
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.2 {
					b.Add(i, j, -1)
				}
			}
		}
		a := b.Build()
		var singles [][2]int
		for i := 0; i < n; i++ {
			singles = append(singles, [2]int{i, i + 1})
		}
		sym := Factor(a, &etree.Supernodes{Ranges: singles, Parent: make([]int, n)})
		parent := etree.Build(a)
		cc := etree.ColCounts(a, parent)
		return sym.NNZL() == etree.NNZL(cc)+int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
