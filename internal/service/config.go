// Package service is the solver-as-a-service layer: a long-running process
// wrapping the pastix pipeline with
//
//   - a pattern-fingerprint → Analysis LRU cache with single-flight
//     deduplication, so concurrent requests for one sparsity pattern trigger
//     exactly one ordering/symbolic/scheduling pass and later requests reuse
//     it (the amortization PaStiX's analysis/factorization split exists for);
//   - a factor handle store, so clients factorize once and solve many times
//     (factorize, replicate import and journal replay all register handles
//     through one function);
//   - a work-conserving multi-RHS batcher: a solve against an idle factor
//     runs at once, and solves arriving while it runs coalesce into the next
//     blocked panel solve (BLAS-3 shape), whose bit-identical per-column
//     results are demultiplexed. Its batch runner is the only way a solve
//     reaches the engine: a request carrying options runs alone through it;
//   - admission control: a bounded queue ahead of a worker pool, 429-style
//     shedding on overflow, and per-request deadlines flowing into the
//     context-aware pastix API.
//
// cmd/pastix-serve exposes it over HTTP.
package service

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/pastix-go/pastix"
)

// ErrBadConfig reports an invalid Config, mirroring pastix.ErrBadOptions:
// match with errors.Is; the wrapping error names the offending field. When
// the embedded solver options are at fault the error also matches
// pastix.ErrBadOptions.
var ErrBadConfig = errors.New("service: invalid config")

// Config configures a Server. The zero value is valid: every field has a
// documented default.
type Config struct {
	// Solver is the analysis/factorization configuration shared by every
	// request (the cache is keyed by pattern fingerprint only, so all cached
	// analyses are built under these options).
	Solver pastix.Options
	// CacheSize bounds the analysis LRU cache (entries; default 16).
	CacheSize int
	// MaxFactors bounds the live factor handles (default 64); factorize
	// requests beyond it are rejected until handles are released.
	MaxFactors int
	// MaxBatch caps a batch: once this many right-hand sides have queued
	// behind a running batch they dispatch at once, concurrently with it
	// (default 32; 1 disables coalescing).
	MaxBatch int
	// QueueDepth bounds the admitted-but-unfinished requests; beyond it
	// requests are shed with 429 (default 64).
	QueueDepth int
	// Workers bounds the concurrently executing phases — analyses,
	// factorizations and batched panel solves (default GOMAXPROCS, capped at
	// 8). Solve requests queued behind a running batch hold only queue slots,
	// so coalescing works even with a single worker.
	Workers int
	// DefaultDeadline applies to requests that carry no deadline_ms of their
	// own (default 30s).
	DefaultDeadline time.Duration
	// MaxBodyBytes caps a request body (default 64 MiB). Oversized bodies are
	// cut off by http.MaxBytesReader and answered with a structured 413
	// instead of being buffered into memory.
	MaxBodyBytes int64
	// IdempotencyKeys bounds the remembered factorize idempotency keys
	// (default 512). A factorize request carrying idempotency_key replays the
	// original response — same handle, no second factorization — when the key
	// is still remembered, which is what makes gateway retries of a factorize
	// that actually committed safe.
	IdempotencyKeys int
	// IdempotencyTTL bounds how long an idempotency key is remembered
	// (default 1h). Expired keys behave exactly like evicted ones: a retry
	// past the TTL runs a fresh factorization. Retries that matter (gateway
	// retry-after-timeout) arrive within seconds, so the TTL exists to keep
	// the store from pinning stale responses, not to serve old clients.
	IdempotencyTTL time.Duration
	// DataDir enables the durable factor store: factorize results (matrix
	// values + factor payload + response), analyses and releases are
	// journaled to a WAL under this directory before the handle is
	// acknowledged, and startup replays the journal so handles survive a
	// crash or restart. Empty (the default) keeps the server purely
	// in-memory. While the startup replay runs, /readyz reports
	// "recovering" and requests are refused with 503.
	DataDir string
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// records (default 256; only meaningful with DataDir).
	SnapshotEvery int
	// NoFactorExport refuses /v1/replicate export requests with 403. The
	// gateway's anti-entropy repair then falls back to re-factorizing from
	// the journaled matrix values on the destination node, which costs
	// compute instead of bandwidth but yields the same bitwise factors.
	NoFactorExport bool
}

// Validate checks the configuration, rejecting service-nonsensical
// combinations: negative sizes or durations, and invalid embedded solver
// options. Errors match ErrBadConfig (and pastix.ErrBadOptions when
// the solver options are at fault).
func (c Config) Validate() error {
	if err := c.Solver.Validate(); err != nil {
		return fmt.Errorf("%w: solver options: %w", ErrBadConfig, err)
	}
	if c.CacheSize < 0 {
		return fmt.Errorf("%w: CacheSize %d is negative", ErrBadConfig, c.CacheSize)
	}
	if c.MaxFactors < 0 {
		return fmt.Errorf("%w: MaxFactors %d is negative", ErrBadConfig, c.MaxFactors)
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("%w: MaxBatch %d is negative", ErrBadConfig, c.MaxBatch)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("%w: QueueDepth %d is negative", ErrBadConfig, c.QueueDepth)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: Workers %d is negative", ErrBadConfig, c.Workers)
	}
	if c.DefaultDeadline < 0 {
		return fmt.Errorf("%w: DefaultDeadline %v is negative", ErrBadConfig, c.DefaultDeadline)
	}
	if c.MaxBodyBytes < 0 {
		return fmt.Errorf("%w: MaxBodyBytes %d is negative", ErrBadConfig, c.MaxBodyBytes)
	}
	if c.IdempotencyKeys < 0 {
		return fmt.Errorf("%w: IdempotencyKeys %d is negative", ErrBadConfig, c.IdempotencyKeys)
	}
	if c.IdempotencyTTL < 0 {
		return fmt.Errorf("%w: IdempotencyTTL %v is negative", ErrBadConfig, c.IdempotencyTTL)
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("%w: SnapshotEvery %d is negative", ErrBadConfig, c.SnapshotEvery)
	}
	return nil
}

// withDefaults returns c with every zero field replaced by its default.
func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 16
	}
	if c.MaxFactors == 0 {
		c.MaxFactors = 64
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.IdempotencyKeys == 0 {
		c.IdempotencyKeys = 512
	}
	if c.IdempotencyTTL == 0 {
		c.IdempotencyTTL = time.Hour
	}
	return c
}
