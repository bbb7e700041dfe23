package bench

import (
	"strings"
	"testing"
)

// The experiment harness runs at a tiny scale in unit tests; the real tables
// are produced by cmd/pastix-bench and the root benchmarks at DefaultScale.
const testScale = 0.05

func TestTable1ShapesAndOrder(t *testing.T) {
	rows, err := Table1(testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("want 10 problems, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Columns <= 0 || r.NNZA <= 0 {
			t.Fatalf("%s: degenerate problem", r.Name)
		}
		if r.NNZLScotch < int64(r.NNZA) || r.NNZLMetis < int64(r.NNZA) {
			t.Fatalf("%s: factor cannot have less fill than A", r.Name)
		}
		if r.OPCScotch <= 0 || r.OPCMetis <= 0 {
			t.Fatalf("%s: OPC missing", r.Name)
		}
		// The block structure stores every scalar entry, diagonal included.
		if r.BlockNNZL < r.NNZLScotch+int64(r.Columns) || r.BlockOPC <= 0 {
			t.Fatalf("%s: block metrics %d, %g below the scalar ones", r.Name, r.BlockNNZL, r.BlockOPC)
		}
		// The two orderings must actually differ (different algorithms).
		if r.NNZLScotch == r.NNZLMetis && r.OPCScotch == r.OPCMetis {
			t.Fatalf("%s: Scotch and MeTiS configurations identical", r.Name)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "NNZ_L(Scotch)") || !strings.Contains(out, "NNZ_L(block)") || !strings.Contains(out, "B5TUER") {
		t.Fatal("table 1 formatting broken")
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	procs := []int{1, 4, 16, 64}
	rows, err := Table2(testScale, procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("want 10 problems")
	}
	winsAt16 := 0
	for _, r := range rows {
		// Times decrease (weakly) with processors for both solvers.
		for i := 1; i < len(procs); i++ {
			if r.Pastix[i].Time > r.Pastix[0].Time*1.05 {
				t.Fatalf("%s: PaStiX slower at P=%d than P=1", r.Name, procs[i])
			}
			// The baseline may degrade on the tiniest test problems (latency
			// dominated, as on the real SP2); bound the damage.
			if r.Pspases[i].Time > r.Pspases[0].Time*3 {
				t.Fatalf("%s: PSPASES degrades badly at P=%d", r.Name, procs[i])
			}
		}
		// Speedup bounded by P.
		if s := r.Pastix[0].Time / r.Pastix[3].Time; s > 64 {
			t.Fatalf("%s: superlinear PaStiX speedup %g", r.Name, s)
		}
		if r.Pastix[2].Time < r.Pspases[2].Time {
			winsAt16++
		}
	}
	// Paper: "PaStiX compares very favorably to PSPASES and achieves better
	// solving times in almost all cases up to 32 processors."
	if winsAt16 < 6 {
		t.Fatalf("PaStiX wins only %d/10 problems at P=16; paper shape lost", winsAt16)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "PaStiX") || !strings.Contains(out, "PSPASES") {
		t.Fatal("table 2 formatting broken")
	}
}

func TestDenseKernelsLLTFasterThanLDLT(t *testing.T) {
	res := DenseKernels(192)
	if res.LLT <= 0 || res.LDLT <= 0 {
		t.Fatal("kernel timings missing")
	}
	// The paper's §3 effect: the LDLᵀ kernel is slower than LLᵀ on ESSL
	// (ratio 1.19). Our pure-Go kernels have nearly identical inner loops,
	// so the host ratio hovers around 1 and jitters; assert only that it is
	// not wildly off, and that the SP2 model encodes the paper's ratio.
	if res.RatioHost < 0.6 || res.RatioHost > 2 {
		t.Fatalf("host LDLᵀ/LLᵀ ratio %g implausible", res.RatioHost)
	}
	if res.RatioSP2 < 1.15 || res.RatioSP2 > 1.25 {
		t.Fatalf("SP2 ratio %g should encode the paper's ≈1.19", res.RatioSP2)
	}
}

func TestAblationMixedBeats1DAndGreedyBeatsFirstCandidate(t *testing.T) {
	row, err := Ablate("BMWCRA1", 0.08, 16)
	if err != nil {
		t.Fatal(err)
	}
	if row.Mixed1D2D <= 0 || row.Only1D <= 0 || row.FirstCand <= 0 {
		t.Fatalf("missing ablation data: %+v", row)
	}
	// §2's design claims: the mixed 1D/2D distribution beats 1D-only at
	// higher processor counts, and the greedy completion-time mapper beats
	// naive first-candidate assignment.
	if row.Mixed1D2D > row.Only1D {
		t.Fatalf("mixed 1D/2D (%g) slower than 1D-only (%g)", row.Mixed1D2D, row.Only1D)
	}
	if row.Mixed1D2D > row.FirstCand {
		t.Fatalf("greedy mapping (%g) slower than first-candidate (%g)", row.Mixed1D2D, row.FirstCand)
	}
}

func TestSortedNames(t *testing.T) {
	names := SortedNames()
	if len(names) != 10 {
		t.Fatalf("%d names", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("not sorted")
		}
	}
}

func TestFormatSpeedupPlot(t *testing.T) {
	row := Table2Row{
		Name:    "TEST",
		Procs:   []int{1, 4, 16},
		Pastix:  []Table2Cell{{Time: 8}, {Time: 2}, {Time: 1}},
		Pspases: []Table2Cell{{Time: 8}, {Time: 4}, {Time: 2}},
	}
	out := FormatSpeedupPlot(row, 10)
	if !strings.Contains(out, "TEST") || !strings.Contains(out, "X") || !strings.Contains(out, "o") {
		t.Fatalf("plot malformed:\n%s", out)
	}
	if !strings.Contains(out, "P=16") {
		t.Fatal("axis missing")
	}
}

func TestBlockSweepTradeoff(t *testing.T) {
	rows, err := BlockSweep("BMWCRA1", 0.1, 16, []int{8, 32, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("bs=%3d: blockNNZL=%d tasks=%d model=%.4fs", r.BlockSize, r.BlockNNZL, r.Tasks, r.ModelTime)
	}
	// Task count must shrink with larger blocks; stored entries must grow
	// (amalgamation zeros).
	for i := 1; i < len(rows); i++ {
		if rows[i].Tasks >= rows[i-1].Tasks {
			t.Fatalf("task count not decreasing at bs=%d", rows[i].BlockSize)
		}
	}
	if rows[len(rows)-1].BlockNNZL < rows[0].BlockNNZL {
		t.Fatal("stored entries should not shrink with larger blocks")
	}
	// The paper's choice of 64 should be within 2x of the best in the sweep.
	best := rows[0].ModelTime
	var at64 float64
	for _, r := range rows {
		if r.ModelTime < best {
			best = r.ModelTime
		}
		if r.BlockSize == 64 {
			at64 = r.ModelTime
		}
	}
	if at64 > 2*best {
		t.Fatalf("blocking 64 (%.4fs) far from the sweep best (%.4fs)", at64, best)
	}
}
