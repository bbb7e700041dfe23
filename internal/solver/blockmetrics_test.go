package solver

import (
	"context"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
)

// TestBlockMetrics checks the block metrics beside the scalar Table 1
// numbers: BlockNNZL is the sum over the symbol of each column block's
// stored lower entries (the diagonal block as a triangle) and BlockOPC the
// symbol's operation count. On Poisson 24³ at P=2 the stored explicit zeros
// stay below 15% of the entries and the factor's cells below 17 MB.
func TestBlockMetrics(t *testing.T) {
	for _, nx := range []int{7, 24} {
		a := gen.Laplacian3D(nx, nx, nx)
		an, err := Analyze(a, Options{P: 2})
		if err != nil {
			t.Fatal(err)
		}
		var stored int64
		for k := range an.Sym.CB {
			cb := &an.Sym.CB[k]
			w := int64(cb.Width())
			stored += w*(w+1)/2 + w*int64(cb.RowsBelow())
		}
		if an.BlockNNZL != stored || an.BlockOPC != an.Sym.OPC() {
			t.Fatalf("%d³: BlockNNZL %d, BlockOPC %g; symbol stores %d, executes %g",
				nx, an.BlockNNZL, an.BlockOPC, stored, an.Sym.OPC())
		}
		scalar := an.ScalarNNZL + int64(a.N) // diagonal included
		if an.BlockNNZL < scalar || an.BlockOPC < an.ScalarOPC {
			t.Fatalf("%d³: block metrics %d, %g below the scalar %d, %g", nx, an.BlockNNZL, an.BlockOPC, scalar, an.ScalarOPC)
		}
		if nx != 24 {
			continue
		}
		zeros := float64(an.BlockNNZL-scalar) / float64(an.BlockNNZL)
		if zeros >= 0.15 {
			t.Fatalf("24³: %.1f%% of the %d stored entries are zeros, want < 15%%", 100*zeros, an.BlockNNZL)
		}
		f, err := an.FactorizeOptsCtx(context.Background(), ParOptions{Runtime: RuntimeSequential})
		if err != nil {
			t.Fatal(err)
		}
		if b := f.MemoryBytes(); b > 17e6 {
			t.Fatalf("24³: factor cells hold %d bytes, want at most 17 MB", b)
		}
		t.Logf("24³: %d column blocks, %d stored entries (%.1f%% zeros), %d factor bytes",
			an.Sym.NumCB(), an.BlockNNZL, 100*zeros, f.MemoryBytes())
	}
}
