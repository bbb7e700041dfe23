package service

import (
	"errors"
	"testing"
	"time"

	"github.com/pastix-go/pastix"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative cache", Config{CacheSize: -1}},
		{"negative factors", Config{MaxFactors: -2}},
		{"negative batch", Config{MaxBatch: -1}},
		{"negative queue", Config{QueueDepth: -3}},
		{"negative workers", Config{Workers: -1}},
		{"negative deadline", Config{DefaultDeadline: -time.Second}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
			if _, nerr := New(tc.cfg); !errors.Is(nerr, ErrBadConfig) {
				t.Fatalf("New err = %v, want ErrBadConfig", nerr)
			}
		})
	}
}

// Invalid embedded solver options surface through Validate and match both
// sentinels, mirroring the library's ErrBadOptions semantics.
func TestConfigValidateSolverOptions(t *testing.T) {
	cfg := Config{Solver: pastix.Options{Processors: -4}}
	err := cfg.Validate()
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	if !errors.Is(err, pastix.ErrBadOptions) {
		t.Fatalf("err = %v, want it to also match pastix.ErrBadOptions", err)
	}
}

func TestConfigZeroValueValid(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero Config invalid: %v", err)
	}
	d := Config{}.withDefaults()
	if d.CacheSize <= 0 || d.MaxFactors <= 0 || d.MaxBatch <= 0 ||
		d.QueueDepth <= 0 || d.Workers <= 0 || d.DefaultDeadline <= 0 {
		t.Fatalf("withDefaults left a zero field: %+v", d)
	}
}
