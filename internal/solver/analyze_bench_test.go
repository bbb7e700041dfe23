package solver

import (
	"runtime"
	"testing"
	"time"

	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/sparse"
)

// BenchmarkAnalyze times the whole analysis (ordering, elimination tree and
// partition, block symbolic factorization, mapping and scheduling, and the
// solve plan) at P=2, and breaks each op down by phase. Compare two
// trees with
//
//	go test -run '^$' -bench Analyze -benchmem -count 6 ./internal/solver
func BenchmarkAnalyze(b *testing.B) {
	cases := []struct {
		name string
		a    func(b *testing.B) *sparse.SymMatrix
	}{
		{"poisson12", func(*testing.B) *sparse.SymMatrix { return gen.Laplacian3D(12, 12, 12) }},
		{"poisson24", func(*testing.B) *sparse.SymMatrix { return gen.Laplacian3D(24, 24, 24) }},
		{"MT1", func(b *testing.B) *sparse.SymMatrix {
			p, err := gen.Generate("MT1", 0.25)
			if err != nil {
				b.Fatal(err)
			}
			return p.A
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			a := c.a(b)
			b.ReportAllocs()
			var phase [4]time.Duration
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				an, err := Analyze(a, Options{P: 2})
				if err != nil {
					b.Fatal(err)
				}
				phase[0] += an.OrderTime
				phase[1] += an.TreeTime
				phase[2] += an.SymbolicTime
				phase[3] += an.SchedTime
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			n := float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/n, "ms/op")
			b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/n, "MB/op")
			for k, name := range []string{"order-ms/op", "tree-ms/op", "symbolic-ms/op", "sched-ms/op"} {
				b.ReportMetric(float64(phase[k].Microseconds())/1e3/n, name)
			}
		})
	}
}

// TestAnalyzeAllocs bounds the allocations of one analysis of Poisson 12³
// at P=2. The map-based ordering, permutation and scheduler made 67,910;
// the flat-array passes make 5,679. The bound leaves 10% headroom over the
// latter, so a per-vertex or per-pivot allocation creeping back in fails
// here.
func TestAnalyzeAllocs(t *testing.T) {
	a := gen.Laplacian3D(12, 12, 12)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Analyze(a, Options{P: 2}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6247 {
		t.Fatalf("Analyze(Poisson 12³, P=2) made %.0f allocations, bound 6247", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}
