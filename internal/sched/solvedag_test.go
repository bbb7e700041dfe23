package sched

import (
	"testing"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/symbolic"
)

func buildSolveDAG(t *testing.T, grid, P int) (*symbolic.Symbol, *SolveDAG) {
	t.Helper()
	sym, _ := buildSchedule(t, gen.Laplacian2D(grid, grid), P, 16)
	return sym, BuildSolveDAG(sym)
}

// TestSolveDAGLevelsTopological checks the level invariant directly against
// the block structure: every forward edge k→Facing must go to a strictly
// deeper level, and each cell's level must be exactly one more than its
// deepest predecessor (longest path, not just any topological labelling).
func TestSolveDAGLevelsTopological(t *testing.T) {
	sym, d := buildSolveDAG(t, 18, 4)
	ncb := sym.NumCB()
	if len(d.Level) != ncb {
		t.Fatalf("Level covers %d cells, want %d", len(d.Level), ncb)
	}
	deepestIn := make([]int32, ncb)
	for i := range deepestIn {
		deepestIn[i] = -1
	}
	edges := 0
	for k := 0; k < ncb; k++ {
		for _, blk := range sym.CB[k].Blocks {
			edges++
			if d.Level[blk.Facing] <= d.Level[k] {
				t.Fatalf("edge %d(level %d) -> %d(level %d) not increasing",
					k, d.Level[k], blk.Facing, d.Level[blk.Facing])
			}
			if l := d.Level[k] + 1; l > deepestIn[blk.Facing] {
				deepestIn[blk.Facing] = l
			}
		}
	}
	if edges != d.Edges {
		t.Fatalf("Edges = %d, structure has %d", d.Edges, edges)
	}
	for k := 0; k < ncb; k++ {
		want := deepestIn[k]
		if want < 0 {
			want = 0
		}
		if d.Level[k] != want {
			t.Fatalf("cell %d: level %d, longest path gives %d", k, d.Level[k], want)
		}
	}
}

// TestSolveDAGLevelsPartition checks the levels partition the cells into
// Depth non-empty level sets, the widest of which has MaxWidth cells.
func TestSolveDAGLevelsPartition(t *testing.T) {
	sym, d := buildSolveDAG(t, 16, 4)
	width := make([]int, d.Depth())
	for c, l := range d.Level {
		if l < 0 || int(l) >= d.Depth() {
			t.Fatalf("cell %d at level %d, depth %d", c, l, d.Depth())
		}
		width[l]++
	}
	maxW := 0
	for l, w := range width {
		if w == 0 {
			t.Fatalf("level %d empty", l)
		}
		maxW = max(maxW, w)
	}
	if len(d.Level) != sym.NumCB() || maxW != d.MaxWidth {
		t.Fatalf("%d cells, MaxWidth = %d; want %d cells, MaxWidth %d", len(d.Level), d.MaxWidth, sym.NumCB(), maxW)
	}
}
