// Command pastix-gateway runs the sharded HA front door for a fleet of
// pastix-serve nodes (internal/gateway): consistent-hash routing of the
// pattern fingerprint with bounded loads, R-way replication of factorize
// requests, per-backend circuit breakers fed by active /readyz probes,
// failover with capped jittered backoff, and graceful degradation
// when a shard loses every replica.
//
//	pastix-serve -addr :8417 &
//	pastix-serve -addr :8418 &
//	pastix-gateway -addr :8416 -backends http://localhost:8417,http://localhost:8418
//
// Clients speak the same /v1/* JSON protocol as a single pastix-serve; the
// gateway's own health and its model of every backend are at GET /healthz.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/pastix-go/pastix/internal/gateway"
	"github.com/pastix-go/pastix/internal/gateway/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pastix-gateway: ")
	var (
		addr     = flag.String("addr", ":8416", "listen address (host:port; :0 picks a free port)")
		backends = flag.String("backends", "", "comma-separated pastix-serve base URLs (required)")
		replicas = flag.Int("replicas", 0, "factorize replication degree R (0 = default 2, capped at the backend count)")
		vnodes   = flag.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0 = default 64)")
		loadF    = flag.Float64("load-factor", 0, "bounded-load expansion factor c >= 1 (0 = default 1.5)")
		probeIv  = flag.Duration("probe-interval", 0, "active /readyz probe cadence (0 = default 250ms)")
		attemptT = flag.Duration("attempt-timeout", 0, "per-backend attempt timeout (0 = default 15s)")
		hedge    = flag.Duration("hedge", 0, "solve hedging delay; 0 disables hedged duplicates")
		baseBack = flag.Duration("backoff", 0, "base retry backoff, full-jitter doubling (0 = default 25ms)")
		maxBack  = flag.Duration("max-backoff", 0, "backoff cap (0 = default 1s)")
		queueD   = flag.Int("queue-depth", 0, "factorize requests parked while a shard has no live replica (0 = default 16)")
		queueW   = flag.Duration("queue-wait", 0, "how long a parked factorize waits for the shard (0 = default 2s)")
		repairIv = flag.Duration("repair-interval", 0, "anti-entropy repair cadence re-replicating under-replicated factors (0 = default 250ms, negative disables)")
		maxBody  = flag.Int64("max-body", 0, "request body cap in bytes (0 = default 64 MiB)")
		seed     = flag.Int64("seed", 0, "seed for ring placement and retry jitter")
	)
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatal("-backends is required (comma-separated pastix-serve URLs)")
	}

	cfg := gateway.Config{
		Backends:       urls,
		Replicas:       *replicas,
		VNodes:         *vnodes,
		LoadFactor:     *loadF,
		ProbeInterval:  *probeIv,
		AttemptTimeout: *attemptT,
		HedgeDelay:     *hedge,
		Retry: client.Policy{
			BaseDelay: *baseBack,
			MaxDelay:  *maxBack,
			Seed:      *seed,
		},
		QueueDepth:     *queueD,
		QueueWait:      *queueW,
		RepairInterval: *repairIv,
		MaxBodyBytes:   *maxBody,
		Seed:           *seed,
	}
	if err := run(cfg, *addr); err != nil {
		log.Fatal(err)
	}
}

func run(cfg gateway.Config, addr string) error {
	g, err := gateway.New(cfg)
	if err != nil {
		return err
	}
	defer g.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	r := cfg.Replicas
	if r == 0 {
		r = 2
	}
	if r > len(cfg.Backends) {
		r = len(cfg.Backends)
	}
	log.Printf("listening on %s, %d backends, R=%d", ln.Addr(), len(cfg.Backends), r)
	hs := &http.Server{
		Handler:           g.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case sig := <-stop:
		log.Printf("%v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
