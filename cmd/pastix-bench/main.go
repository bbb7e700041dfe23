// Command pastix-bench regenerates the paper's evaluation section:
//
//	pastix-bench -table1              # Table 1: problems and ordering metrics
//	pastix-bench -table2              # Table 2: time/Gflops, PaStiX vs PSPASES
//	pastix-bench -dense               # §3 dense LLᵀ vs LDLᵀ kernel comparison
//	pastix-bench -ablate              # §2 scheduling/distribution ablations
//	pastix-bench -divergence          # predicted-vs-actual schedule reports, executed
//	pastix-bench -all -scale 0.25     # everything, at a chosen problem scale
//
// Times in Table 2 are modelled on the IBM SP2 (Power2SC) machine profile —
// the paper's testbed — so 64-processor runs are reproducible on any host;
// see EXPERIMENTS.md for how they compare with the published numbers.
// Executed wall-clock measurements of the library and the server, layer by
// layer, live in the perfbench module (python3 perfbench/run.py).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/bench"
	"github.com/pastix-go/pastix/internal/gen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pastix-bench: ")
	var (
		table1 = flag.Bool("table1", false, "regenerate Table 1")
		table2 = flag.Bool("table2", false, "regenerate Table 2")
		dense  = flag.Bool("dense", false, "dense kernel comparison (§3)")
		ablate = flag.Bool("ablate", false, "scheduling ablations (§2)")
		plot   = flag.String("plot", "", "render the Table 2 speedup curves of one problem (e.g. -plot B5TUER)")
		bsweep = flag.String("blocksweep", "", "sweep the blocking size for one problem (e.g. -blocksweep BMWCRA1)")
		all    = flag.Bool("all", false, "run everything")
		scale  = flag.Float64("scale", bench.DefaultScale, "problem scale (1.0 ≈ 1/8 of the paper's DOF)")
		procsF = flag.String("procs", "1,2,4,8,16,32,64", "processor counts for Table 2")
		denseN = flag.Int("densen", 512, "dense kernel order (paper used 1024)")

		diverge  = flag.Bool("divergence", false, "trace an executed 3D Poisson factorization under the parallel runtimes and print the predicted-vs-actual divergence reports")
		divGrid  = flag.Int("divgrid", 12, "Poisson grid edge for -divergence (n³ unknowns)")
		divProcs = flag.Int("divprocs", 4, "processor count for -divergence")
	)
	flag.Parse()
	if *all {
		*table1, *table2, *dense, *ablate = true, true, true, true
	}
	if !*table1 && !*table2 && !*dense && !*ablate && !*diverge && *plot == "" && *bsweep == "" {
		flag.Usage()
		return
	}

	var procs []int
	for _, s := range strings.Split(*procsF, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || p < 1 {
			log.Fatalf("bad -procs entry %q", s)
		}
		procs = append(procs, p)
	}

	if *table1 {
		fmt.Printf("== Table 1: description of the test problems (scale %g) ==\n", *scale)
		rows, err := bench.Table1(*scale)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatTable1(rows))
		fmt.Println()
	}
	if *table2 {
		fmt.Printf("== Table 2: factorization performance, time in modelled SP2 seconds (Gflops) ==\n")
		rows, err := bench.Table2(*scale, procs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(bench.FormatTable2(rows))
		fmt.Println()
	}
	if *dense {
		fmt.Printf("== §3 dense kernel comparison (n=%d) ==\n", *denseN)
		r := bench.DenseKernels(*denseN)
		fmt.Printf("host measured : LLT %.3fs   LDLT %.3fs   ratio %.2f\n", r.LLT, r.LDLT, r.RatioHost)
		fmt.Printf("SP2 modelled  : LLT %.3fs   LDLT %.3fs   ratio %.2f (paper@1024: 1.07s / 1.27s = 1.19)\n",
			r.SP2LLT, r.SP2LDLT, r.RatioSP2)
		fmt.Println()
	}
	if *plot != "" {
		rows, err := bench.Table2(*scale, procs)
		if err != nil {
			log.Fatal(err)
		}
		found := false
		for _, r := range rows {
			if r.Name == *plot {
				fmt.Print(bench.FormatSpeedupPlot(r, 16))
				found = true
			}
		}
		if !found {
			log.Fatalf("unknown problem %q", *plot)
		}
	}
	if *bsweep != "" {
		fmt.Printf("== blocking-size sweep for %s (P=16, SP2 model) ==\n", *bsweep)
		rows, err := bench.BlockSweep(*bsweep, *scale, 16, []int{8, 16, 32, 64, 128})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6s %12s %9s %12s\n", "bs", "blockNNZ_L", "tasks", "model time")
		for _, r := range rows {
			fmt.Printf("%6d %12d %9d %11.4fs\n", r.BlockSize, r.BlockNNZL, r.Tasks, r.ModelTime)
		}
		fmt.Println()
	}
	if *diverge {
		g := *divGrid
		fmt.Printf("== predicted-vs-actual divergence, executed %d³ Poisson on %d processors ==\n", g, *divProcs)
		a := gen.Laplacian3D(g, g, g)
		for _, rt := range []struct {
			name    string
			runtime pastix.Runtime
		}{
			{"mpsim (message-passing)", pastix.RuntimeMPSim},
			{"shared (zero-copy)", pastix.RuntimeShared},
			{"dynamic (work-stealing)", pastix.RuntimeDynamic},
		} {
			an, err := pastix.Analyze(a, pastix.Options{Processors: *divProcs, Runtime: rt.runtime})
			if err != nil {
				log.Fatal(err)
			}
			_, tr, err := an.FactorizeTraced(context.Background(), pastix.TraceOptions{})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\n-- runtime: %s --\n", rt.name)
			if err := tr.WriteReport(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Println()
	}
	if *ablate {
		fmt.Printf("== §2 ablations: replayed makespan in modelled SP2 seconds ==\n")
		fmt.Printf("%-10s %4s %12s %12s %14s\n", "Name", "P", "mixed 1D/2D", "1D only", "first-cand map")
		for _, name := range gen.Names() {
			for _, p := range []int{8, 32} {
				row, err := bench.Ablate(name, *scale, p)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("%-10s %4d %12.3f %12.3f %14.3f\n",
					name, p, row.Mixed1D2D, row.Only1D, row.FirstCand)
			}
		}
	}
}
