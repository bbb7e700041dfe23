// Command pastix factors and solves a sparse symmetric positive definite
// system with the PaStiX solver: read a Harwell-Boeing RSA file or generate
// one of the built-in synthetic test problems, run the full pipeline
// (ordering, block symbolic factorization, static scheduling, parallel
// fan-in LDLᵀ), solve against a reference right-hand side, and report
// metrics.
//
// Usage:
//
//	pastix -gen SHIP003 -scale 0.25 -p 8
//	pastix -rsa matrix.rsa -p 4 -ordering metis
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/gen"
)

// Exit codes: 0 success, 1 generic failure, 2 numerical breakdown (matrix
// not SPD / zero pivot / pivot escalation exhausted), 3 invalid options,
// 4 fault-injection budget exhausted (chaos run declared unrecoverable).
func fatal(err error) {
	code := 1
	switch {
	case errors.Is(err, pastix.ErrNotSPD), errors.Is(err, pastix.ErrPivotExhausted):
		code = 2
	case errors.Is(err, pastix.ErrBadOptions):
		code = 3
	case errors.Is(err, pastix.ErrFaultBudget):
		code = 4
	}
	log.Print(err)
	os.Exit(code)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pastix: ")
	var (
		rsaPath   = flag.String("rsa", "", "Harwell-Boeing RSA file to factor")
		genName   = flag.String("gen", "", "generate a synthetic problem ("+strings.Join(gen.Names(), ", ")+")")
		scale     = flag.Float64("scale", 0.25, "size scale for generated problems")
		procs     = flag.Int("p", 1, "number of virtual processors")
		ordering  = flag.String("ordering", "scotch", "ordering: scotch, metis, amd, natural")
		blockSize = flag.Int("bs", 64, "BLAS blocking size")
		runtime   = flag.String("runtime", "auto", "factorization runtime: auto, mpsim (message-passing), shared (zero-copy shared memory), dynamic (work-stealing) or seq (sequential reference)")
		calibrate = flag.Bool("calibrate", false, "calibrate the cost model on this host")
		gantt     = flag.Bool("gantt", false, "print a Gantt chart of the static schedule")
		stats     = flag.Bool("stats", false, "print a detailed schedule summary")
		schedCSV  = flag.String("sched-csv", "", "write the static schedule as CSV to this file")
		traceOut  = flag.String("trace", "", "trace the factorization and write Chrome trace-event JSON to this file (open in chrome://tracing or ui.perfetto.dev)")
		traceRep  = flag.Bool("trace-report", false, "trace the factorization and print the predicted-vs-actual divergence report")

		chaosSeed  = flag.Int64("chaos-seed", 0, "seed for deterministic fault injection (same seed replays the same faults)")
		chaosDrop  = flag.Float64("chaos-drop", 0, "probability of dropping each wire transmission, in [0,1)")
		chaosDup   = flag.Float64("chaos-dup", 0, "probability of duplicating each data message, in [0,1)")
		chaosDelay = flag.Float64("chaos-delay", 0, "probability of delaying each delivery, in [0,1)")
		chaosMaxD  = flag.Duration("chaos-max-delay", 0, "upper bound on injected delivery delays (default 1ms)")
		chaosCrash = flag.String("chaos-crash", "", "crash schedule as proc:task[,proc:task...] — crash each proc once before that task index")
		chaosStall = flag.String("chaos-stall", "", "stall schedule as proc:task:duration[,...] — e.g. 2:1:50ms")

		pivotEps   = flag.Float64("pivot-eps", 0, "static-pivot threshold ε_piv relative to ‖A‖_max (0 = no pivoting)")
		pivotRetry = flag.Int("pivot-retries", 0, "ε-escalation attempts on breakdown via robust factorization (0 = fail fast)")
		refineTol  = flag.Float64("refine-tol", 0, "refine the solve adaptively to this backward error (0 = off unless pivoting perturbed)")
	)
	flag.Parse()

	plan, err := chaosPlanFromFlags(*chaosSeed, *chaosDrop, *chaosDup, *chaosDelay, *chaosMaxD, *chaosCrash, *chaosStall)
	if err != nil {
		fatal(fmt.Errorf("%w: %v", pastix.ErrBadOptions, err))
	}

	a, title, err := loadMatrix(*rsaPath, *genName, *scale)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("matrix   : %s (n=%d, nnz_A=%d)\n", title, a.N, a.NNZOffDiag())

	var method pastix.OrderingMethod
	switch *ordering {
	case "scotch":
		method = pastix.OrderScotchLike
	case "metis":
		method = pastix.OrderMetisLike
	case "amd":
		method = pastix.OrderAMD
	case "natural":
		method = pastix.OrderNatural
	default:
		fatal(fmt.Errorf("%w: unknown ordering %q", pastix.ErrBadOptions, *ordering))
	}

	rt, err := pastix.ParseRuntime(*runtime)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	an, err := pastix.Analyze(a, pastix.Options{
		Processors:       *procs,
		Ordering:         method,
		BlockSize:        *blockSize,
		CalibrateMachine: *calibrate,
		Runtime:          rt,
		Faults:           plan,
		StaticPivot:      pastix.StaticPivotOptions{Epsilon: *pivotEps, MaxRetries: *pivotRetry},
		RefineTol:        *refineTol,
	})
	if err != nil {
		fatal(err)
	}
	if plan != nil {
		fmt.Printf("chaos    : seed %d, drop %.2f, dup %.2f, delay %.2f, %d crash(es), %d stall(s) scheduled\n",
			plan.Seed, plan.Drop, plan.Dup, plan.Delay, len(plan.CrashAtStep), len(plan.StallAtStep))
	}
	tAnalyze := time.Since(start)
	st := an.Stats()
	fmt.Printf("analysis : %.3fs — %d column blocks (%d distributed 2D), %d tasks on %d processors\n",
		tAnalyze.Seconds(), st.ColumnBlocks, st.Cells2D, st.Tasks, st.Processors)
	if *stats {
		ph := an.PhaseTimes()
		fmt.Printf("phases   : order %.3fs, tree %.3fs, symbolic %.3fs, schedule %.3fs\n",
			ph[0].Seconds(), ph[1].Seconds(), ph[2].Seconds(), ph[3].Seconds())
	}
	fmt.Printf("fill     : NNZ_L=%d (scalar), %d stored (block), OPC=%.3e (scalar), %.3e (block)\n",
		st.ScalarNNZL, st.BlockNNZL, st.ScalarOPC, st.BlockOPC)
	fmt.Printf("model    : predicted parallel factorization %.3fs on the scheduling profile\n",
		st.PredictedTime)
	if *stats {
		if err := an.WriteScheduleSummary(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *gantt {
		if err := an.WriteScheduleGantt(os.Stdout, 100); err != nil {
			fatal(err)
		}
	}
	if *schedCSV != "" {
		fh, err := os.Create(*schedCSV)
		if err != nil {
			fatal(err)
		}
		if err := an.WriteScheduleCSV(fh); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("schedule : CSV written to %s\n", *schedCSV)
	}

	tracing := *traceOut != "" || *traceRep
	start = time.Now()
	var f *pastix.Factor
	var tr *pastix.Trace
	var robust *pastix.RobustStats
	if tracing {
		f, tr, err = an.FactorizeTraced(context.Background(), pastix.TraceOptions{})
	} else {
		f, err = an.Factorize()
	}
	if err != nil && errors.Is(err, pastix.ErrNotSPD) && *pivotRetry > 0 {
		// Breakdown with escalation requested: retry with escalating ε_piv.
		var rs pastix.RobustStats
		f, rs, err = an.FactorizeRobust(context.Background())
		if err == nil {
			robust, tr = &rs, nil
			if tracing {
				fmt.Println("trace    : skipped (factorization recovered via robust escalation)")
			}
		}
	}
	if err != nil {
		fatal(err)
	}
	tFactor := time.Since(start)
	fmt.Printf("factorize: %.3fs wall (%.2f GFlop/s on OPC, %s runtime)\n",
		tFactor.Seconds(), st.ScalarOPC/tFactor.Seconds()/1e9, *runtime)
	if rep := f.Perturbations(); rep != nil && len(rep.Perturbed) > 0 {
		fmt.Printf("pivoting : %d column(s) perturbed at ε=%.1e (τ=%.3e, growth %.2e): %v\n",
			len(rep.Perturbed), rep.Epsilon, rep.Threshold, rep.PivotGrowth, rep.Columns())
	}
	if robust != nil {
		fmt.Printf("robust   : recovered after %d attempt(s), backward error %.2e (%d refinement sweep(s))\n",
			robust.Attempts, robust.BackwardError, robust.RefineIterations)
	}
	if tr != nil && *traceOut != "" {
		fh, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteChromeTrace(fh); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace    : Chrome trace-event JSON written to %s\n", *traceOut)
	}
	if tr != nil && *traceRep {
		if err := tr.WriteReport(os.Stdout); err != nil {
			fatal(err)
		}
	}

	// Solve against b = A·x_ref and report the error. A perturbed factor (or
	// an explicit -refine-tol) routes through adaptive refinement so the
	// answer meets the backward-error target despite the substituted pivots.
	xref, b := gen.RHSForSolution(a)
	perturbed := f.Perturbations() != nil && len(f.Perturbations().Perturbed) > 0
	start = time.Now()
	sopts := pastix.SolveOptions{}
	if perturbed || *refineTol > 0 {
		sopts.Refine = &pastix.RefineOptions{}
	}
	res, err := an.SolveOpts(context.Background(), f, b, sopts)
	if err != nil {
		fatal(err)
	}
	x := res.X
	if rs := res.Refine; rs != nil {
		fmt.Printf("refine   : %d sweep(s), backward error %.2e (converged=%v)\n",
			rs.Iterations, rs.BackwardError, rs.Converged)
	}
	tSolve := time.Since(start)
	maxErr := 0.0
	for i := range x {
		if e := abs(x[i] - xref[i]); e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("solve    : %.3fs wall, residual %.2e, max |x-x_ref| %.2e\n",
		tSolve.Seconds(), pastix.Residual(a, x, b), maxErr)
}

// chaosPlanFromFlags builds a FaultPlan from the -chaos-* flags, or nil when
// none are set.
func chaosPlanFromFlags(seed int64, drop, dup, delay float64, maxDelay time.Duration, crash, stall string) (*pastix.FaultPlan, error) {
	plan := &pastix.FaultPlan{
		Seed:     seed,
		Drop:     drop,
		Dup:      dup,
		Delay:    delay,
		MaxDelay: maxDelay,
	}
	if crash != "" {
		plan.CrashAtStep = make(map[int]int)
		for _, spec := range strings.Split(crash, ",") {
			parts := strings.Split(spec, ":")
			if len(parts) != 2 {
				return nil, fmt.Errorf("bad -chaos-crash entry %q (want proc:task)", spec)
			}
			proc, err1 := strconv.Atoi(parts[0])
			task, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad -chaos-crash entry %q (want proc:task)", spec)
			}
			plan.CrashAtStep[proc] = task
		}
	}
	if stall != "" {
		plan.StallAtStep = make(map[int]pastix.FaultStall)
		for _, spec := range strings.Split(stall, ",") {
			parts := strings.Split(spec, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("bad -chaos-stall entry %q (want proc:task:duration)", spec)
			}
			proc, err1 := strconv.Atoi(parts[0])
			task, err2 := strconv.Atoi(parts[1])
			dur, err3 := time.ParseDuration(parts[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("bad -chaos-stall entry %q (want proc:task:duration)", spec)
			}
			plan.StallAtStep[proc] = pastix.FaultStall{Step: task, Duration: dur}
		}
	}
	if !plan.Active() {
		return nil, nil
	}
	return plan, nil
}

func loadMatrix(rsaPath, genName string, scale float64) (*pastix.Matrix, string, error) {
	switch {
	case rsaPath != "" && genName != "":
		return nil, "", fmt.Errorf("choose one of -rsa or -gen")
	case rsaPath != "":
		fh, err := os.Open(rsaPath)
		if err != nil {
			return nil, "", err
		}
		defer fh.Close()
		return pastix.ReadRSA(fh)
	case genName != "":
		p, err := gen.Generate(genName, scale)
		if err != nil {
			return nil, "", err
		}
		return p.A, p.Name + " — " + p.Description, nil
	default:
		return nil, "", fmt.Errorf("one of -rsa or -gen is required")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
