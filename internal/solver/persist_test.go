package solver

import (
	"errors"
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
)

// TestImportFactorsLayouts: a dense payload is adopted in the layout it
// states. Packed cells (what ExportPayload writes) are adopted as they are;
// strided cells (what payloads held before factors were repacked) are
// repacked in place; both solve bit for bit as the exported factor. A
// missing or unknown layout fails with ErrPayloadLayout.
func TestImportFactorsLayouts(t *testing.T) {
	an := analyzeFor(t, gen.Laplacian2D(14, 14), 2)
	f, err := an.FactorizeOpts(ParOptions{Runtime: RuntimeShared})
	if err != nil {
		t.Fatal(err)
	}
	_, b := gen.RHSForSolution(an.A)
	want := f.Solve(b)
	p := f.ExportPayload()
	if p.Layout != LayoutPacked || p.Compressed() {
		t.Fatalf("dense export: layout %d, compressed %v", p.Layout, p.Compressed())
	}
	for _, q := range []*FactorPayload{p, {Cells: stridedCells(f), Layout: LayoutStrided}} {
		g, err := ImportFactors(an.Sym, q)
		if err != nil {
			t.Fatalf("layout %d: %v", q.Layout, err)
		}
		if g.Compressed() || g.Data != nil || g.MemoryBytes() != f.MemoryBytes() {
			t.Fatalf("layout %d: compressed %v, strided data kept %v, %d bytes (want %d)",
				q.Layout, g.Compressed(), g.Data != nil, g.MemoryBytes(), f.MemoryBytes())
		}
		bitwiseEqualData(t, stridedCells(f), stridedCells(g), "imported factor")
		for i, x := range g.Solve(b) {
			if x != want[i] {
				t.Fatalf("layout %d: x[%d] = %x, exported factor %x", q.Layout, i, x, want[i])
			}
		}
	}
	for _, layout := range []CellLayout{0, LayoutPacked + 1} {
		if _, err := ImportFactors(an.Sym, &FactorPayload{Cells: p.Cells, Layout: layout}); !errors.Is(err, ErrPayloadLayout) {
			t.Fatalf("layout %d: err = %v, want ErrPayloadLayout", layout, err)
		}
	}
}
