package solver

import (
	"context"
	"errors"
	"testing"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/gen"
)

// packedCells copies a dense factor's strided cells into the packed layout
// older payloads hold: the w×w diagonal block, then each off-diagonal block,
// every part with leading dimension equal to its own row count.
func packedCells(f *Factors) [][]float64 {
	out := make([][]float64, len(f.Data))
	for k, data := range f.Data {
		cb := &f.Sym.CB[k]
		w, ld := cb.Width(), f.LD[k]
		cell := make([]float64, len(data))
		blas.PackPanel(w, w, data, ld, cell)
		pos := w * w
		for bi := range cb.Blocks {
			rows := cb.Blocks[bi].Rows()
			blas.PackPanel(rows, w, data[f.BlockOff[k][bi]:], ld, cell[pos:])
			pos += rows * w
		}
		out[k] = cell
	}
	return out
}

// TestImportFactorsLayouts: a dense payload is adopted in the layout it
// states. Strided cells (what ExportPayload writes) are adopted as they
// are; packed cells (what payloads held while factors were solved packed)
// are unpacked in place; both solve bit for bit as the exported factor. A
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
	if p.Layout != LayoutStrided || p.Compressed() {
		t.Fatalf("dense export: layout %d, compressed %v", p.Layout, p.Compressed())
	}
	for _, q := range []*FactorPayload{p, {Cells: packedCells(f), Layout: LayoutPacked}} {
		g, err := ImportFactors(an.Sym, q)
		if err != nil {
			t.Fatalf("layout %d: %v", q.Layout, err)
		}
		if g.Compressed() || g.lrCells != nil || g.MemoryBytes() != f.MemoryBytes() {
			t.Fatalf("layout %d: compressed %v, compressed cells %v, %d bytes (want %d)",
				q.Layout, g.Compressed(), g.lrCells != nil, g.MemoryBytes(), f.MemoryBytes())
		}
		bitwiseEqualData(t, f.Data, g.Data, "imported factor")
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

// TestImportPackedPayloadRoundTrip: for factors from the sequential, shared
// and dynamic runtimes, a packed payload imported and exported again comes
// back strided, in cells bit-identical to the ones the factorization wrote.
func TestImportPackedPayloadRoundTrip(t *testing.T) {
	an := analyzeFor(t, gen.Laplacian3D(7, 7, 7), 2)
	for _, rt := range []Runtime{RuntimeSequential, RuntimeShared, RuntimeDynamic} {
		f, err := an.FactorizeMatrixOptsCtx(context.Background(), an.A, ParOptions{Runtime: rt})
		if err != nil {
			t.Fatalf("%v: %v", rt, err)
		}
		g, err := ImportFactors(an.Sym, &FactorPayload{Partition: an.Sym.Partition(), Cells: packedCells(f), Layout: LayoutPacked})
		if err != nil {
			t.Fatalf("%v: %v", rt, err)
		}
		p := g.ExportPayload()
		if p.Layout != LayoutStrided {
			t.Fatalf("%v: re-export layout %d, want strided", rt, p.Layout)
		}
		bitwiseEqualData(t, f.Data, p.Cells, rt.String()+" round trip")
	}
}
