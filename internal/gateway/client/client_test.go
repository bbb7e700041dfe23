package client

import (
	"testing"
	"time"
)

// The backoff schedule is a pure function of (Seed, key, attempt): full
// jitter inside a doubling, capped ceiling.
func TestPolicyDelayDeterministic(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 400 * time.Millisecond, Seed: 42}
	key := Key("http://node-0/v1/solve")

	var first []time.Duration
	for attempt := 1; attempt <= 5; attempt++ {
		first = append(first, p.Delay(key, attempt))
	}
	for attempt := 1; attempt <= 5; attempt++ {
		if d := p.Delay(key, attempt); d != first[attempt-1] {
			t.Fatalf("attempt %d: delay %v then %v — schedule not deterministic", attempt, first[attempt-1], d)
		}
	}
	// Bounds: attempt k draws from [0, min(MaxDelay, Base·2^(k-1))).
	ceil := []time.Duration{100, 200, 400, 400, 400}
	for i, d := range first {
		if d < 0 || d >= ceil[i]*time.Millisecond {
			t.Fatalf("attempt %d delay %v outside [0, %v)", i+1, d, ceil[i]*time.Millisecond)
		}
	}
	// A different seed or key gives a different schedule (full jitter, not a
	// fixed ladder).
	p2 := p
	p2.Seed = 43
	same := 0
	for attempt := 1; attempt <= 5; attempt++ {
		if p2.Delay(key, attempt) == first[attempt-1] {
			same++
		}
	}
	if same == 5 {
		t.Fatal("changing the seed left the whole schedule unchanged")
	}
}
