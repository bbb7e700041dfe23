package sched

import (
	"math"
	"reflect"
	"testing"

	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/etree"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/graph"
	"github.com/pastix-go/pastix/internal/order"
	"github.com/pastix-go/pastix/internal/part"
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/symbolic"
)

func buildSchedule(t *testing.T, a *sparse.SymMatrix, P, bs int) (*symbolic.Symbol, *Schedule) {
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
	sn = part.SplitRanges(sn, part.Options{BlockSize: bs})
	sym := symbolic.Factor(pa, sn)
	if err := sym.Validate(); err != nil {
		t.Fatal(err)
	}
	mach := cost.SP2()
	mapping := part.Map(sym, mach, P, part.Options{BlockSize: bs, Ratio2D: 4, MinWidth2D: bs / 2})
	sch, err := Build(sym, mapping, mach, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sym, sch
}

func testMatrix(t *testing.T, name string, scale float64) *sparse.SymMatrix {
	t.Helper()
	p, err := gen.Generate(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return p.A
}

func TestScheduleValidates(t *testing.T) {
	a := testMatrix(t, "QUER", 0.03)
	for _, P := range []int{1, 2, 4, 8} {
		_, sch := buildSchedule(t, a, P, 24)
		if err := sch.Validate(); err != nil {
			t.Fatalf("P=%d: %v", P, err)
		}
	}
}

func TestScheduleCoversAllCells(t *testing.T) {
	a := testMatrix(t, "OILPAN", 0.02)
	sym, sch := buildSchedule(t, a, 8, 24)
	for k := 0; k < sym.NumCB(); k++ {
		if sch.Comp1DOf[k] >= 0 {
			continue
		}
		if sch.FactorOf[k] < 0 {
			t.Fatalf("cell %d has neither COMP1D nor FACTOR", k)
		}
		nb := len(sym.CB[k].Blocks)
		for b := 0; b < nb; b++ {
			if sch.BDivOf[k][b] < 0 {
				t.Fatalf("cell %d missing BDIV(%d)", k, b)
			}
		}
		for ti := 0; ti < nb; ti++ {
			for si := ti; si < nb; si++ {
				if sch.BModOf(k, si, ti) < 0 {
					t.Fatalf("cell %d missing BMOD(%d,%d)", k, si, ti)
				}
			}
		}
	}
}

func TestMakespanDecreasesWithProcessors(t *testing.T) {
	a := testMatrix(t, "SHIP001", 0.06)
	_, s1 := buildSchedule(t, a, 1, 24)
	_, s4 := buildSchedule(t, a, 4, 24)
	_, s16 := buildSchedule(t, a, 16, 24)
	if s4.Makespan >= s1.Makespan {
		t.Fatalf("P=4 makespan %g not below P=1 %g", s4.Makespan, s1.Makespan)
	}
	if s16.Makespan >= s4.Makespan {
		t.Fatalf("P=16 makespan %g not below P=4 %g", s16.Makespan, s4.Makespan)
	}
	// Speedup cannot exceed P.
	if s16.SeqTime/s16.Makespan > 16.001 {
		t.Fatalf("superlinear modelled speedup: %g", s16.SeqTime/s16.Makespan)
	}
}

func TestMakespanAtLeastCriticalWork(t *testing.T) {
	a := testMatrix(t, "THREAD", 0.03)
	_, sch := buildSchedule(t, a, 8, 24)
	// Makespan must be at least the largest single task and at least
	// SeqTime/P.
	var maxExec float64
	for i := range sch.Tasks {
		if sch.Tasks[i].execT > maxExec {
			maxExec = sch.Tasks[i].execT
		}
	}
	if sch.Makespan < maxExec {
		t.Fatalf("makespan %g below largest task %g", sch.Makespan, maxExec)
	}
	if sch.Makespan < sch.SeqTime/8 {
		t.Fatalf("makespan %g below SeqTime/P %g", sch.Makespan, sch.SeqTime/8)
	}
}

func TestStartTimesRespectDependencies(t *testing.T) {
	a := testMatrix(t, "QUER", 0.03)
	_, sch := buildSchedule(t, a, 8, 24)
	for i := range sch.Tasks {
		src := &sch.Tasks[i]
		for _, e := range src.Outs {
			dst := &sch.Tasks[e.Dst]
			if dst.End < src.End {
				t.Fatalf("task %d (%v) ends %g before its dependency %d (%v) at %g",
					e.Dst, dst.Type, dst.End, i, src.Type, src.End)
			}
		}
	}
}

func TestSingleProcessorScheduleIsSequential(t *testing.T) {
	a := testMatrix(t, "SHIP001", 0.04)
	_, sch := buildSchedule(t, a, 1, 32)
	if len(sch.ByProc) != 1 || len(sch.ByProc[0]) != len(sch.Tasks) {
		t.Fatal("all tasks must be on processor 0")
	}
	// With P=1 the makespan equals the sum of exec times.
	if diff := sch.Makespan - sch.SeqTime; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("P=1 makespan %g != seq time %g", sch.Makespan, sch.SeqTime)
	}
}

func TestReplayCloseToMakespan(t *testing.T) {
	a := testMatrix(t, "OILPAN", 0.02)
	_, sch := buildSchedule(t, a, 8, 24)
	rp := sch.Replay()
	if rp <= 0 {
		t.Fatal("replay makespan must be positive")
	}
	// Replay aggregates messages, so it should not be wildly larger than the
	// mapper's estimate; allow generous slack for ordering effects.
	if rp > 2*sch.Makespan {
		t.Fatalf("replay %g vs mapper %g: too far apart", rp, sch.Makespan)
	}
}

func TestStatsConsistency(t *testing.T) {
	a := testMatrix(t, "QUER", 0.03)
	sym, sch := buildSchedule(t, a, 8, 24)
	st := sch.ComputeStats()
	if st.NTasks != len(sch.Tasks) {
		t.Fatal("task count mismatch")
	}
	if st.NComp1D+st.NFactor+st.NBDiv+st.NBMod != st.NTasks {
		t.Fatal("task type counts do not sum")
	}
	if st.LoadImbalance < 1.0 {
		t.Fatalf("load imbalance %g < 1", st.LoadImbalance)
	}
	n1d := 0
	for k := 0; k < sym.NumCB(); k++ {
		if sch.Comp1DOf[k] >= 0 {
			n1d++
		}
	}
	if st.NComp1D != n1d {
		t.Fatal("COMP1D count mismatch")
	}
	if st.N2DCells != sym.NumCB()-n1d {
		t.Fatal("2D cell count mismatch")
	}
}

func TestTaskTypeString(t *testing.T) {
	if Comp1D.String() != "COMP1D" || Factor.String() != "FACTOR" ||
		BDiv.String() != "BDIV" || BMod.String() != "BMOD" {
		t.Fatal("task type names")
	}
}

// TestDeterministicSchedule builds each schedule twice and requires the
// same mapping, the same edge lists in the same order (the dynamic and
// shared runtimes release successors in Outs order) and the same makespan
// bits.
func TestDeterministicSchedule(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.SymMatrix
		P    int
	}{
		{"SHIP001", testMatrix(t, "SHIP001", 0.04), 4},
		{"poisson12", gen.Laplacian3D(12, 12, 12), 2},
		{"MT1", testMatrix(t, "MT1", 0.25), 4},
	}
	for _, c := range cases {
		_, s1 := buildSchedule(t, c.a, c.P, 24)
		_, s2 := buildSchedule(t, c.a, c.P, 24)
		if len(s1.Tasks) != len(s2.Tasks) {
			t.Fatalf("%s: task counts differ", c.name)
		}
		for i := range s1.Tasks {
			if s1.Tasks[i].Proc != s2.Tasks[i].Proc || s1.Tasks[i].Rank != s2.Tasks[i].Rank {
				t.Fatalf("%s: schedule not deterministic at task %d", c.name, i)
			}
			if !reflect.DeepEqual(s1.Tasks[i].Outs, s2.Tasks[i].Outs) {
				t.Fatalf("%s: edges of task %d differ between builds", c.name, i)
			}
		}
		if math.Float64bits(s1.Makespan) != math.Float64bits(s2.Makespan) {
			t.Fatalf("%s: makespan %v vs %v", c.name, s1.Makespan, s2.Makespan)
		}
	}
}

func TestMemoryPerProcCoversFactor(t *testing.T) {
	a := testMatrix(t, "SHIP003", 0.05)
	sym, sch := buildSchedule(t, a, 8, 24)
	mem := sch.MemoryPerProc()
	var total int64
	for _, m := range mem {
		if m < 0 {
			t.Fatal("negative memory")
		}
		total += m
	}
	// Total distributed memory: triangles for diag regions of 2D cells,
	// full cell arrays for 1D cells. It must be at least the dense diagonal
	// triangles and at most the full block storage.
	full := int64(0)
	for k := range sym.CB {
		w := int64(sym.CB[k].Width())
		full += 8 * w * (w + int64(sym.CB[k].RowsBelow()))
	}
	if total > full {
		t.Fatalf("distributed memory %d exceeds full storage %d", total, full)
	}
	if total < full/2 {
		t.Fatalf("distributed memory %d suspiciously below full storage %d", total, full)
	}
	// With P=8 on a real problem, no processor should hold everything.
	for p, m := range mem {
		if m == total {
			t.Fatalf("processor %d holds the entire factor", p)
		}
	}
}

func TestReplayDeterministicAndMatchesSP2(t *testing.T) {
	a := testMatrix(t, "QUER", 0.04)
	_, sch := buildSchedule(t, a, 8, 24)
	r1 := sch.Replay()
	r2 := sch.Replay()
	if r1 != r2 {
		t.Fatalf("replay not deterministic: %g vs %g", r1, r2)
	}
	// Replaying on the same machine it was built with must equal Replay().
	if r3 := sch.ReplayOn(cost.SP2()); r3 != r1 {
		t.Fatalf("ReplayOn(SP2) %g != Replay %g", r3, r1)
	}
}

// The DAG projection's in-degrees must agree with the schedule's edge lists
// and describe an executable DAG: topologically releasing tasks by counter
// reaches every task (the invariant the shared-memory executor's countdowns
// rely on).
func TestInDegreesMatchEdges(t *testing.T) {
	a := testMatrix(t, "QUER", 0.04)
	for _, P := range []int{1, 3, 8} {
		_, sch := buildSchedule(t, a, P, 24)
		in := sch.DAG().InDegrees()
		if len(in) != len(sch.Tasks) {
			t.Fatalf("P=%d: %d indegrees for %d tasks", P, len(in), len(sch.Tasks))
		}
		// Recount independently.
		want := make([]int32, len(sch.Tasks))
		nEdges := 0
		for i := range sch.Tasks {
			for _, e := range sch.Tasks[i].Outs {
				want[e.Dst]++
				nEdges++
			}
		}
		for i := range want {
			if in[i] != want[i] {
				t.Fatalf("P=%d task %d: indegree %d, edges say %d", P, i, in[i], want[i])
			}
		}
		if nEdges == 0 && P > 1 {
			t.Fatalf("P=%d: schedule has no edges", P)
		}
		// Kahn propagation by the counters must consume every task.
		rem := append([]int32(nil), in...)
		queue := []int{}
		for i, r := range rem {
			if r == 0 {
				queue = append(queue, i)
			}
		}
		released := 0
		for len(queue) > 0 {
			id := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			released++
			for _, e := range sch.Tasks[id].Outs {
				if rem[e.Dst]--; rem[e.Dst] == 0 {
					queue = append(queue, e.Dst)
				}
			}
		}
		if released != len(sch.Tasks) {
			t.Fatalf("P=%d: counter release reached %d of %d tasks", P, released, len(sch.Tasks))
		}
	}
}
