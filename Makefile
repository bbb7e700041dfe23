# Tiered checks for pastix-go. Stdlib only; the targets just wrap the go
# tool so CI and humans run the exact same commands.

GO ?= go

.PHONY: all build test race race-full bench vet fmt-check check chaos numstress dynstress solvestress hastress blrstress durastress soak-selectors kernels fuzz examples serve-smoke ci

all: ci

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet: fmt-check
	$(GO) vet ./...

# gofmt emits the names of misformatted files; any output is a failure.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Tier-2: the whole suite under the race detector. The shared-memory and
# work-stealing factorization runtimes, the level-set solve engine and the
# mpsim message runtime are concurrency-heavy; the stress tests are written
# to be meaningful here.
# -short keeps the stress loops at a size the detector finishes quickly;
# drop it for the full soak.
race:
	$(GO) test -race -short ./...

race-full:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# The soaks' -run selectors and the packages each runs on, named once so a
# soak and soak-selectors read the same values.
CHAOS_RUN := Chaos|Fault|Reliab|Retry|Restart|Stall|Boundary|CommGolden
CHAOS_PKGS := ./internal/mpsim ./internal/faults ./internal/solver .
NUMSTRESS_RUN := NumStress|GradedPivot|PerturbationReport|FactorizeRobust|Refine|Pivot
NUMSTRESS_PKGS := ./internal/solver ./internal/blas .
DYNSTRESS_RUN := RuntimeConformance|ScheduleRouting|SchedulePulls|SharedAllocates|FactorDAG|DynamicShared|DynamicSteal|DynamicTrace|DynamicRejects|DynamicHonors|SharedStress|SharedMetamorphic|ZeroPivotErrorShared|Pinned|StuckGraph|FanOut|Schur
DYNSTRESS_PKGS := ./internal/solver ./internal/dynsched
SOLVESTRESS_RUN := SolvePlan|PlanStatsLevels|SolveMapping|SolvePushSuffix|LevelStorm|SolveLevel|Packed|SolveConformance|SolveGolden|DenseKernels|SolveOpts|SolveAllocs|SolveEngineIgnoresAnalysisRuntime|PrepareSolve|ServerSolveOptions|ServerBatchP1|ServerDegradedOptions|ServerSolveMetrics
SOLVESTRESS_PKGS := ./internal/solver ./internal/blas ./internal/service .
HASERVICE_RUN := Readyz|BodyLimit|Idempotent|Drain
HASERVICE_PKGS := ./internal/service
BLRKERNELS_RUN := LRGemv|LRKernels
BLRKERNELS_PKGS := ./internal/blas
BLRSTRESS_RUN := TestCompress|TestBLR|ServerBLR
BLRSTRESS_PKGS := ./internal/solver ./internal/service .
DURASERVICE_RUN := Durable|Replicate|Recovering|IdemStore
DURASERVICE_PKGS := ./internal/service
DURAGATEWAY_RUN := AntiEntropy|AwaitShard
DURAGATEWAY_PKGS := ./internal/gateway
DURACHAOS_RUN := ChaosDurable
DURACHAOS_PKGS := ./internal/gateway/chaos

# Chaos soak: the fault-injection suites under the race detector — the
# reliability layer in mpsim, the injector itself, the multi-seed
# factorization soak (every factor, and the level-set solve of it,
# bit-identical to fault-free), the public-API chaos round trips, and the
# golden table pinning mpsim's factor bits and both message drivers'
# CommStats (fan-out's factor is checked bitwise against the sequential one).
chaos:
	$(GO) test -race -timeout 300s -run '$(CHAOS_RUN)' $(CHAOS_PKGS)

# Numerical stress soak: the static-pivoting and refinement suites under the
# race detector — graded-pivot matrices across all three runtimes (asserting
# bitwise-identical perturbation reports), robust ε-escalation, and adaptive
# refinement convergence.
numstress:
	$(GO) test -race -timeout 300s -run '$(NUMSTRESS_RUN)' $(NUMSTRESS_PKGS)

# Shared-memory executor stress soak, both placement policies: the
# executor's unit, pinned and steal-storm suites, the pinned factorization
# stress and error paths, mid-run cancellation, the schedule's update
# routing and the static per-task update lists checked against its task
# graph, the once-per-analysis task graph and lists, the warm executor's
# allocation against the sequential loop's, the cross-runtime conformance tests (every generator × every
# runtime, work stealing bitwise-identical to pinned across seeds), fan-out's
# receive loop (bitwise the sequential factor at P = 2, 3, 4 and 8, run
# after run) and the Schur complement's partial elimination, under the
# race detector, repeated so rare interleavings get a chance to fire.
dynstress:
	$(GO) test -race -timeout 300s -count=3 ./internal/dynsched
	$(GO) test -race -timeout 300s -count=2 -run '$(DYNSTRESS_RUN)' $(DYNSTRESS_PKGS)

# Solve-path stress soak: the solve engine suites (the subtree mapping over
# the conformance corpus at one to eight workers, the plan's level counts
# against longest paths, the contribution buffer's shared-facing suffix,
# split shared cells, mid-chain cancellation and the spinning barrier among
# them), the packed panel kernels, the
# cross-runtime solve conformance table (every generator × every
# factorization runtime × the level-set engine at four workers and at one ×
# 1/32 RHS, bitwise), the public SolveOpts suites (every solve runtime
# bitwise, wrapper equivalence, the analysis runtime leaving the solve
# engine alone, the allocations of a warm solve), and the served solves (options panels,
# plain and on a perturbed factor, the P=1 batch, the solve counters) — all
# under the race detector, three times over so the spin barrier's
# interleavings repeat.
solvestress:
	$(GO) test -race -timeout 300s -count=3 -run '$(SOLVESTRESS_RUN)' $(SOLVESTRESS_PKGS)

# HA-serving stress soak: the sharded gateway suites under the race
# detector — consistent-hash ring and breaker units, the retrying client's
# deterministic backoff schedule, end-to-end replicated factorize with
# kill/restart/hedge/drain failover, the service idempotency and readiness
# layers, and the multi-seed node-kill chaos soak (every accepted solve
# bit-identical to a fault-free single-node run).
hastress:
	$(GO) test -race -timeout 600s -count=1 ./internal/gateway/...
	$(GO) test -race -timeout 300s -run '$(HASERVICE_RUN)' $(HASERVICE_PKGS)

# Block low-rank stress soak: the compression kernels and admission logic,
# the low-rank BLAS solve kernels, the compressed-factor solve conformance
# and refinement-recovery suites, the public BLR API (including the
# BLR-disabled bitwise table test across runtimes), and the compressed
# serving path — all under the race detector.
blrstress:
	$(GO) test -race -timeout 300s ./internal/lowrank
	$(GO) test -race -timeout 300s -run '$(BLRKERNELS_RUN)' $(BLRKERNELS_PKGS)
	$(GO) test -race -timeout 300s -run '$(BLRSTRESS_RUN)' $(BLRSTRESS_PKGS)

# Durability stress soak: the WAL/snapshot store under the race detector —
# codec round trips, torn-tail and bit-flip corruption recovery, the
# crash-at-write-k injector sweep — plus the service's journaled durable-ack
# and replicate paths (a failed append among them), the gateway anti-entropy
# repair suites, and the durable kill→restart→recover chaos soak (-short
# trims the seed count).
durastress:
	$(GO) test -race -timeout 300s ./internal/store
	$(GO) test -race -timeout 300s -run '$(DURASERVICE_RUN)' $(DURASERVICE_PKGS)
	$(GO) test -race -timeout 300s -run '$(DURAGATEWAY_RUN)' $(DURAGATEWAY_PKGS)
	$(GO) test -race -timeout 600s -short -run '$(DURACHAOS_RUN)' $(DURACHAOS_PKGS)

# Soak selector check: every top-level alternative of every soak's -run
# regex must select at least one test in the packages that soak runs on,
# and every such package at least one test from the whole regex. Prints the
# count per alternative; a renamed or deleted test otherwise leaves a soak
# quietly running nothing.
soak-selectors:
	@GO=$(GO) ./scripts/soak-selectors.sh chaos '$(CHAOS_RUN)' $(CHAOS_PKGS)
	@GO=$(GO) ./scripts/soak-selectors.sh numstress '$(NUMSTRESS_RUN)' $(NUMSTRESS_PKGS)
	@GO=$(GO) ./scripts/soak-selectors.sh dynstress '$(DYNSTRESS_RUN)' $(DYNSTRESS_PKGS)
	@GO=$(GO) ./scripts/soak-selectors.sh solvestress '$(SOLVESTRESS_RUN)' $(SOLVESTRESS_PKGS)
	@GO=$(GO) ./scripts/soak-selectors.sh hastress '$(HASERVICE_RUN)' $(HASERVICE_PKGS)
	@GO=$(GO) ./scripts/soak-selectors.sh blrstress '$(BLRKERNELS_RUN)' $(BLRKERNELS_PKGS)
	@GO=$(GO) ./scripts/soak-selectors.sh blrstress '$(BLRSTRESS_RUN)' $(BLRSTRESS_PKGS)
	@GO=$(GO) ./scripts/soak-selectors.sh durastress '$(DURASERVICE_RUN)' $(DURASERVICE_PKGS)
	@GO=$(GO) ./scripts/soak-selectors.sh durastress '$(DURAGATEWAY_RUN)' $(DURAGATEWAY_PKGS)
	@GO=$(GO) ./scripts/soak-selectors.sh durastress '$(DURACHAOS_RUN)' $(DURACHAOS_PKGS)
	@GO=$(GO) ./scripts/soak-selectors.sh kernels '$(KERNELS_SOLVE_RUN)' $(KERNELS_SOLVE_PKGS)
	@GO=$(GO) ./scripts/soak-selectors.sh kernels '$(KERNELS_SERVICE_RUN)' ./internal/service

# Dense-kernel paths: the blas, solver, float-text (numtext) and root suites
# (with the bitwise conformance tables and the P=1 served batch) once on the
# scalar Go kernels (purego tag) and once built for GOAMD64=v3, plus the
# version-1 journal fixture, whose recorded answers every build must
# reproduce bit for bit. The AVX2 kernels match the scalar ones bit for bit
# only while the compiler keeps the scalar multiply and add separate; at v3
# it may use FMA, so the v3 run guards that the in-binary SIMD-vs-scalar
# checks, and numtext's strconv and encoding/json differential tests, still
# hold there.
# The pinned solution digests and the kernel-vs-scalar checks (the cell
# kernels included) run first under each build, so a moved bit fails fast.
KERNELS_SOLVE_RUN := SolveGolden|DenseKernels
KERNELS_SOLVE_PKGS := ./internal/solver ./internal/blas
KERNELS_SERVICE_RUN := ServerBatchP1BitIdentical|DurableJournalV1Fixture

kernels:
	$(GO) test -tags purego -run '$(KERNELS_SOLVE_RUN)' $(KERNELS_SOLVE_PKGS)
	GOAMD64=v3 $(GO) test -run '$(KERNELS_SOLVE_RUN)' $(KERNELS_SOLVE_PKGS)
	$(GO) test -tags purego ./internal/blas ./internal/solver ./internal/numtext .
	$(GO) test -tags purego -run '$(KERNELS_SERVICE_RUN)' ./internal/service
	GOAMD64=v3 $(GO) test ./internal/blas ./internal/solver ./internal/numtext .
	GOAMD64=v3 $(GO) test -run '$(KERNELS_SERVICE_RUN)' ./internal/service

# Short coverage-guided fuzz pass over the sparse-matrix invariants (real
# and complex), the Matrix Market and Harwell-Boeing readers, the triplet
# Builder and the Halo-AMD ordering against their map-based
# references (same bits, same pivots), the task-DAG executor, the low-rank compressor's
# accuracy/admission contract, the durable store's recovery path
# (arbitrary journal bytes must never panic or resurrect corrupt records),
# the AVX2 dense kernels against their scalar references (bitwise on
# arbitrary shapes, signed zeros, infinities and NaN), the float-text
# parser against the JSON number grammar and strconv.ParseFloat (same
# verdict, same bits) and its formatter against json.Marshal (same bytes for
# every finite float64), and the solve request decoder against encoding/json
# (same verdict, same b bits; 10s each keeps CI bounded; raise -fuzztime for
# a real hunt).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCSR -fuzztime 10s ./internal/sparse
	$(GO) test -run '^$$' -fuzz FuzzReadMatrixMarket -fuzztime 10s ./internal/sparse
	$(GO) test -run '^$$' -fuzz FuzzReadHB -fuzztime 10s ./internal/sparse
	$(GO) test -run '^$$' -fuzz FuzzBuilder -fuzztime 10s ./internal/sparse
	$(GO) test -run '^$$' -fuzz FuzzHaloAMD -fuzztime 10s ./internal/order
	$(GO) test -run '^$$' -fuzz FuzzScheduleDAG -fuzztime 10s ./internal/dynsched
	$(GO) test -run '^$$' -fuzz FuzzLRCompress -fuzztime 10s ./internal/lowrank
	$(GO) test -run '^$$' -fuzz 'FuzzStoreRecover$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz 'FuzzStoreRecoverSnapshot$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz FuzzDenseKernels -fuzztime 10s ./internal/blas
	$(GO) test -run '^$$' -fuzz FuzzParseNumber -fuzztime 10s ./internal/numtext
	$(GO) test -run '^$$' -fuzz FuzzAppendJSON -fuzztime 10s ./internal/numtext
	$(GO) test -run '^$$' -fuzz FuzzSolveRequestDecode -fuzztime 10s ./internal/service

check: build vet test race

# Example programs: run every program under examples/ once. Each checks its
# own answer and exits non-zero (log.Fatal) on a wrong one; helmholtz is the
# one caller of the public complex API.
EXAMPLES := $(sort $(dir $(wildcard examples/*/main.go)))

examples:
	@for e in $(EXAMPLES); do echo "run ./$$e"; $(GO) run ./$$e > /dev/null || exit 1; done

# Serving smoke test, once per factorization runtime, so a runtime the
# service cannot drive fails CI: boot pastix-serve on a random loopback port
# and drive analyze → analyze (asserting a cache hit) → factorize → coalesced
# batched solves against a generated Poisson problem end to end, send one
# solve body through each request decode path (compact, and re-encoded with
# whitespace and E exponents) asserting bit-identical answers, then scrape
# /metrics. Self-contained (no curl); exits non-zero on any failure.
SERVE_RUNTIMES := auto seq mpsim shared dynamic

serve-smoke:
	@for rt in $(SERVE_RUNTIMES); do echo "serve-smoke -runtime $$rt"; $(GO) run ./cmd/pastix-serve -smoke -runtime $$rt || exit 1; done

# The CI entry point (and default target): build, vet+gofmt, tests, race,
# the soak selector check, the chaos, numerical-stress, dynamic-runtime,
# solve-path, HA-serving, block-low-rank and durability soaks, both
# dense-kernel paths, a short fuzz pass, the example programs, then the
# serving smoke test (which ends with a persist → restart → solve round trip).
ci: build vet test race soak-selectors chaos numstress dynstress solvestress hastress blrstress durastress kernels fuzz examples serve-smoke
