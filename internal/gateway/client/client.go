// Package client holds the gateway tier's backoff schedule — capped
// exponential backoff with full jitter between the steps of the failover
// walk — and the capped response-body reader. The jitter is drawn from a
// seeded splitmix64 counter hash — the same discipline internal/faults uses —
// so a backoff schedule is a pure function of (Seed, request key, attempt)
// and unit tests can assert it deterministically.
package client

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Policy configures the backoff schedule. The zero value selects the
// defaults.
type Policy struct {
	// BaseDelay is the backoff ceiling after the first failure; the ceiling
	// doubles each further failure (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling so one slow shard cannot park a
	// request forever (default 1s).
	MaxDelay time.Duration
	// Seed feeds the jitter hash. Same seed + same request key → same
	// schedule, replayable like a fault plan.
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.BaseDelay == 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// Validate rejects nonsensical policies.
func (p Policy) Validate() error {
	if p.BaseDelay < 0 || p.MaxDelay < 0 {
		return fmt.Errorf("client: negative delay (base %v, max %v)", p.BaseDelay, p.MaxDelay)
	}
	return nil
}

// mix64 is the splitmix64 finalizer (see internal/faults): a bijective
// avalanche mixer used as a counter-based PRNG over decision coordinates.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Key hashes an arbitrary string (typically the request URL) into a jitter
// key.
func Key(s string) uint64 {
	// FNV-1a, then mixed: cheap, stable, and well-spread after mix64.
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// Delay returns the full-jitter backoff before retry number attempt
// (attempt 1 = after the first failure): uniform in [0, min(MaxDelay,
// BaseDelay·2^(attempt-1))), deterministic in (Seed, key, attempt).
func (p Policy) Delay(key uint64, attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	ceil := p.BaseDelay
	for i := 1; i < attempt && ceil < p.MaxDelay; i++ {
		ceil *= 2
	}
	if ceil > p.MaxDelay {
		ceil = p.MaxDelay
	}
	h := mix64(uint64(p.Seed))
	h = mix64(h ^ key)
	h = mix64(h ^ uint64(attempt))
	u := float64(h>>11) / (1 << 53)
	return time.Duration(u * float64(ceil))
}

// ReadBody fully reads and closes a response body, capped at limit bytes.
func ReadBody(resp *http.Response, limit int64) ([]byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return b, nil
}
