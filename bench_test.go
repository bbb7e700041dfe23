package pastix

// Benchmarks regenerating the paper's evaluation. One benchmark family per
// table/figure:
//
//	BenchmarkTable1         — per-problem ordering/fill metrics (Table 1)
//	BenchmarkTable2         — modelled factorization time and Gflop/s on the
//	                          SP2 profile, PaStiX vs PSPASES (Table 2)
//	BenchmarkDenseKernels   — dense LLᵀ vs LDLᵀ (the §3 ESSL comparison)
//	BenchmarkFactorization  — executed parallel factorization on this host
//	                          (goroutine processors; validates the protocol)
//	BenchmarkAblation       — mixed 1D/2D vs 1D-only, greedy vs naive mapping
//	BenchmarkSolve          — triangular solve throughput
//
// Modelled quantities are attached as custom metrics (model-sec, model-GF)
// so `go test -bench` prints the paper-comparable numbers next to the host
// wall-clock costs of producing them.

import (
	"context"
	"fmt"
	"testing"

	"github.com/pastix-go/pastix/internal/bench"
	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/cost"
	"github.com/pastix-go/pastix/internal/gen"
	"github.com/pastix-go/pastix/internal/multifrontal"
	"github.com/pastix-go/pastix/internal/solver"
	"github.com/pastix-go/pastix/internal/sparse"
)

// benchScale keeps full `go test -bench=.` runs in CI territory; use
// cmd/pastix-bench -scale for larger reproductions.
const benchScale = 0.1

// skipIfShort keeps `go test -bench=. -short` to the light kernel
// benchmarks: the full-matrix families re-run the analysis pipeline every
// iteration and dominate the suite's wall-clock.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("heavy benchmark; run without -short")
	}
}

func BenchmarkTable1(b *testing.B) {
	skipIfShort(b)
	for _, name := range gen.Names() {
		b.Run(name, func(b *testing.B) {
			var an *solver.Analysis
			for i := 0; i < b.N; i++ {
				var err error
				an, err = bench.PastixAnalysis(name, benchScale, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(an.A.N), "columns")
			b.ReportMetric(float64(an.ScalarNNZL), "NNZL")
			b.ReportMetric(an.ScalarOPC, "OPC")
		})
	}
}

func BenchmarkTable2(b *testing.B) {
	skipIfShort(b)
	mach := cost.SP2()
	for _, name := range gen.Names() {
		for _, p := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("%s/P%d", name, p), func(b *testing.B) {
				var pastixT, pspasesT float64
				var opc float64
				for i := 0; i < b.N; i++ {
					pa, err := bench.PastixAnalysis(name, benchScale, p)
					if err != nil {
						b.Fatal(err)
					}
					pastixT = pa.Sched.Replay()
					opc = pa.ScalarOPC
					ps, err := bench.PspasesAnalysis(name, benchScale, p)
					if err != nil {
						b.Fatal(err)
					}
					pspasesT = multifrontal.SimulateTime(ps, mach)
				}
				b.ReportMetric(pastixT, "pastix-model-sec")
				b.ReportMetric(opc/pastixT/1e9, "pastix-model-GF")
				b.ReportMetric(pspasesT, "pspases-model-sec")
			})
		}
	}
}

func BenchmarkDenseKernels(b *testing.B) {
	for _, n := range []int{256, 512} {
		src := make([]float64, n*n)
		for j := 0; j < n; j++ {
			src[j+j*n] = float64(n) + 1
			for i := j + 1; i < n; i++ {
				src[i+j*n] = -0.5 / float64(n)
			}
		}
		a := make([]float64, n*n)
		b.Run(fmt.Sprintf("LLT/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a, src)
				if err := blas.Cholesky(n, a, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(2*float64(n)*float64(n)*float64(n)/3, "flops/op")
		})
		b.Run(fmt.Sprintf("LDLT/n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a, src)
				if err := blas.LDLT(n, a, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(2*float64(n)*float64(n)*float64(n)/3, "flops/op")
		})
	}
}

func BenchmarkFactorization(b *testing.B) {
	skipIfShort(b)
	for _, name := range []string{"THREAD", "QUER", "SHIP003"} {
		for _, p := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/P%d", name, p), func(b *testing.B) {
				an, err := bench.PastixAnalysis(name, benchScale, p)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := an.Factorize(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(an.ScalarOPC, "OPC")
			})
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	skipIfShort(b)
	for _, p := range []int{8, 32} {
		b.Run(fmt.Sprintf("BMWCRA1/P%d", p), func(b *testing.B) {
			var row bench.AblationRow
			for i := 0; i < b.N; i++ {
				var err error
				row, err = bench.Ablate("BMWCRA1", benchScale, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.Mixed1D2D, "mixed-model-sec")
			b.ReportMetric(row.Only1D, "only1D-model-sec")
			b.ReportMetric(row.FirstCand, "firstcand-model-sec")
		})
	}
}

func BenchmarkSolve(b *testing.B) {
	an, err := bench.PastixAnalysis("OILPAN", benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, an.A.N)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Solve(rhs)
	}
}

func BenchmarkSolveVariants(b *testing.B) {
	skipIfShort(b)
	an, err := bench.PastixAnalysis("QUER", benchScale, 4)
	if err != nil {
		b.Fatal(err)
	}
	f, err := an.Factorize()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	n := an.A.N
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	b.Run("Sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = f.Solve(rhs)
		}
	})
	pl := an.SolvePlan()
	b.Run("Parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.SolveLevelCtx(ctx, pl, f, rhs, solver.LevelOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	const nrhs = 8
	panel := make([]float64, n*nrhs)
	for i := range panel {
		panel[i] = 1
	}
	// The engine SolveOpts runs for SolveOptions{NRHS: 8, Runtime:
	// RuntimeSequential}: the level-set solve at one worker.
	seqPlan := an.SolvePlanFor(1)
	b.Run("Many8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.SolveLevelCtx(ctx, seqPlan, f, panel, solver.LevelOptions{NRHS: nrhs}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFactorizeComplex times the complex symmetric factorization: the
// sequential reference against the real one on the same THREAD analysis
// (complex LDLᵀ costs ≈4× the real flops per entry), then the public
// FactorizeComplex on its default runtime at P = 2 and 4 on a 120×120
// complex Laplacian.
func BenchmarkFactorizeComplex(b *testing.B) {
	skipIfShort(b)
	prob, err := gen.Generate("THREAD", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	an, err := solver.Analyze(prob.A, solver.Options{P: 1})
	if err != nil {
		b.Fatal(err)
	}
	zb := sparse.NewZBuilder(prob.A.N)
	for j := 0; j < prob.A.N; j++ {
		for p := prob.A.ColPtr[j]; p < prob.A.ColPtr[j+1]; p++ {
			i := prob.A.RowIdx[p]
			v := prob.A.Val[p]
			if i == j {
				zb.Add(i, j, complex(v, v/4))
			} else {
				zb.Add(i, j, complex(v, 0.1*v))
			}
		}
	}
	paz := zb.Build().Permute(an.Perm)
	b.Run("Real", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := an.FactorizeOpts(solver.ParOptions{Runtime: solver.RuntimeSequential}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Complex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := an.FactorizeComplexCtx(context.Background(), paz, solver.ParOptions{Runtime: solver.RuntimeSequential}); err != nil {
				b.Fatal(err)
			}
		}
	})
	lap := complexLaplacian(120)
	for _, p := range []int{2, 4} {
		zan, err := AnalyzeComplex(lap, Options{Processors: p})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Laplacian120/P%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := zan.FactorizeComplex(lap); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// complexLaplacian is the 5-point Laplacian on an n×n grid with a complex
// diagonal shift, a complex symmetric diagonally dominant matrix.
func complexLaplacian(n int) *ZMatrix {
	zb := NewZBuilder(n * n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := i + j*n
			zb.Add(v, v, complex(4.5, 1))
			if i+1 < n {
				zb.Add(v, v+1, complex(-1, 0.1))
			}
			if j+1 < n {
				zb.Add(v, v+n, complex(-1, -0.1))
			}
		}
	}
	return zb.Build()
}
