// Command pastix-serve runs the solver-as-a-service HTTP daemon
// (internal/service): a pattern-keyed analysis cache, a factor handle store,
// a work-conserving multi-RHS solve batcher and admission control behind a
// JSON API.
//
//	pastix-serve -addr :8416 -procs 4
//
// With -smoke it instead starts itself on a random loopback port, drives a
// full analyze → analyze(cached) → factorize → concurrent-solve round trip
// against a generated Poisson problem, scrapes /metrics, then runs a durable
// persist → restart → solve leg (the replayed handle must solve bitwise
// identically), exiting non-zero on any failure — the self-contained serving
// smoke test behind `make serve-smoke`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/pastix-go/pastix"
	"github.com/pastix-go/pastix/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8416", "listen address (host:port; :0 picks a free port)")
		procs       = flag.Int("procs", 4, "virtual processors per factorization")
		runtimeName = flag.String("runtime", "auto", "factorization runtime: auto, seq, mpsim, shared or dynamic (work-stealing)")
		cacheSize   = flag.Int("cache-size", 0, "analysis cache entries (0 = default)")
		maxFactors  = flag.Int("max-factors", 0, "live factor handles (0 = default)")
		maxBatch    = flag.Int("max-batch", 0, "right-hand sides per batch (0 = default)")
		queueDepth  = flag.Int("queue-depth", 0, "admission queue depth (0 = default)")
		workers     = flag.Int("workers", 0, "concurrent requests (0 = default)")
		deadline    = flag.Duration("deadline", 0, "default per-request deadline (0 = default 30s)")
		pivotEps    = flag.Float64("pivot-eps", 0, "static-pivot threshold ε_piv relative to ‖A‖_max (0 = no pivoting)")
		pivotRetry  = flag.Int("pivot-retries", 0, "ε-escalation attempts when a factorization breaks down (0 = fail fast)")
		refineTol   = flag.Float64("refine-tol", 0, "backward-error target for refinement of degraded solves (0 = default 1e-10)")
		maxBody     = flag.Int64("max-body", 0, "request body cap in bytes; oversized bodies get a structured 413 (0 = default 64 MiB)")
		dataDir     = flag.String("data-dir", "", "durable store directory; factorize acks only after the journal fsync, and a restart replays it (empty = in-memory only)")
		snapEvery   = flag.Int("snapshot-every", 0, "WAL records between snapshot compactions (0 = default 256)")
		idemTTL     = flag.Duration("idem-ttl", 0, "idempotency record lifetime (0 = default 1h)")
		noExport    = flag.Bool("no-factor-export", false, "refuse /v1/replicate factor exports (peers must re-factorize instead)")
		smoke       = flag.Bool("smoke", false, "run the end-to-end serving smoke test and exit")
	)
	flag.Parse()

	rt, err := pastix.ParseRuntime(*runtimeName)
	if err != nil {
		log.Fatal(err)
	}
	cfg := service.Config{
		Solver: pastix.Options{
			Processors:  *procs,
			Runtime:     rt,
			StaticPivot: pastix.StaticPivotOptions{Epsilon: *pivotEps, MaxRetries: *pivotRetry},
			RefineTol:   *refineTol,
		},
		CacheSize:       *cacheSize,
		MaxFactors:      *maxFactors,
		MaxBatch:        *maxBatch,
		QueueDepth:      *queueDepth,
		Workers:         *workers,
		DefaultDeadline: *deadline,
		MaxBodyBytes:    *maxBody,
		DataDir:         *dataDir,
		SnapshotEvery:   *snapEvery,
		IdempotencyTTL:  *idemTTL,
		NoFactorExport:  *noExport,
	}

	if *smoke {
		if err := runSmoke(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "serve-smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("serve-smoke: PASS")
		return
	}

	if err := serve(cfg, *addr); err != nil {
		log.Fatal(err)
	}
}

// serve runs the daemon until SIGINT/SIGTERM, then drains gracefully: new
// requests are refused (503, /readyz flips to "draining"), the listener
// stops, and in-flight solves — including parked batch riders — finish
// before the process exits.
func serve(cfg service.Config, addr string) error {
	s, err := service.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("pastix-serve listening on %s", ln.Addr())
	// ReadHeaderTimeout caps how long a connection may sit between accept and
	// a complete request line (slowloris); IdleTimeout reclaims keep-alive
	// connections parked by dead clients. Body size is bounded separately by
	// MaxBodyBytes inside the handlers.
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case sig := <-stop:
		log.Printf("pastix-serve: %v, draining", sig)
		s.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		if err := s.Drain(ctx); err != nil {
			return fmt.Errorf("pastix-serve: drain incomplete: %w", err)
		}
		log.Print("pastix-serve: drained")
		return nil
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
