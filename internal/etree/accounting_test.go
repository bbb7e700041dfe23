package etree_test

import (
	"fmt"
	"testing"

	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/graph"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// TestAmalgamateAccountingExact checks the accounting the merge rule decides
// on: for every supernode Amalgamate returns, the stored entries it tracked
// equal what the block symbolic factorization stores for that supernode on
// the unsplit partition. The matrices are the solver's conformance corpus
// plus 3-D Poisson 12³ and 24³, a 2-D 40×40 grid and a 3-dof solid, each
// in the analysis pipeline's order: the default fill-reducing ordering, then
// the etree postorder.
func TestAmalgamateAccountingExact(t *testing.T) {
	cases := []*sparse.SymMatrix{
		gen.Laplacian2D(16, 16),
		gen.Laplacian3D(7, 7, 7),
		gen.GradedPivot(4, 8, 1e-2, 0.05, false),
		gen.GradedPivot(4, 8, 1e-2, 0.05, true),
		gen.RandomSPD(160, 4, 1),
		gen.RandomSPD(160, 5, 9),
		gen.Laplacian2D(40, 40),
		gen.Solid(8, 8, 8, 3),
		gen.Laplacian3D(12, 12, 12),
		gen.Laplacian3D(24, 24, 24),
	}
	for i, a := range cases {
		t.Run(fmt.Sprintf("%d-n%d", i, a.N), func(t *testing.T) {
			ptr, adj := a.AdjacencyCSR()
			pa := a.Permute(order.Compute(graph.FromCSR(a.N, ptr, adj), order.Options{}).Perm)
			pa = pa.Permute(etree.Postorder(etree.Build(pa)))
			parent := etree.Build(pa)
			cc := etree.ColCounts(pa, parent)
			sn, tracked := etree.AmalgamateTracked(etree.Fundamental(parent, cc), cc)
			if err := sn.Validate(pa.N); err != nil {
				t.Fatal(err)
			}
			sym := symbolic.Factor(pa, sn)
			if len(tracked) != sym.NumCB() {
				t.Fatalf("tracked %d supernodes, symbol has %d", len(tracked), sym.NumCB())
			}
			var zeros, stored int64
			for k := range sym.CB {
				cb := &sym.CB[k]
				w := int64(cb.Width())
				got := w*(w+1)/2 + w*int64(cb.RowsBelow())
				if tracked[k] != got {
					t.Fatalf("supernode %d %v: tracked %d stored entries, symbolic stores %d", k, cb.Cols, tracked[k], got)
				}
				stored += got
			}
			zeros = stored - etree.NNZL(cc) - int64(pa.N)
			t.Logf("%d supernodes, %d stored entries, %.1f%% zeros", sym.NumCB(), stored, 100*float64(zeros)/float64(stored))
		})
	}
}
