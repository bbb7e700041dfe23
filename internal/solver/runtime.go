package solver

import "fmt"

// Runtime selects which engine executes the numerical factorization. All
// runtimes consume the same analysis (ordering, symbolic structure, static
// schedule); they differ in how the task graph is driven and where the data
// lives. RuntimeShared and RuntimeDynamic are one shared-memory executor
// (internal/dynsched) under its two placement policies, pinned and work
// stealing. The sequential, shared-memory and dynamic runtimes produce BITWISE
// identical factors and perturbation reports (they execute contributions in
// the canonical source order); the message-passing runtime aggregates
// contributions into AUBs — the paper's central mechanism — which changes the
// floating-point association, so it matches the others to rounding (~1e-11
// componentwise) and is deterministic run to run, but not bit-equal.
type Runtime int8

const (
	// RuntimeAuto preserves the historical dispatch: plain sequential at
	// P == 1 without tracing or faults, message-passing otherwise.
	RuntimeAuto Runtime = iota
	// RuntimeSequential is the right-looking reference (FactorizeSeq).
	RuntimeSequential
	// RuntimeMPSim is the paper-faithful message-passing fan-in/fan-both
	// runtime: goroutine processors, explicit messages, AUB aggregation.
	RuntimeMPSim
	// RuntimeShared is the shared-memory executor with the pinned policy:
	// each worker runs its processor's K_p vector of the static schedule, in
	// order, over one shared factor storage.
	RuntimeShared
	// RuntimeDynamic is the same executor with the work-stealing policy: no
	// fixed task→processor mapping, ready tasks ordered by the schedule's
	// cost-model priority.
	RuntimeDynamic
)

// String returns the CLI spelling of the runtime.
func (r Runtime) String() string {
	switch r {
	case RuntimeAuto:
		return "auto"
	case RuntimeSequential:
		return "seq"
	case RuntimeMPSim:
		return "mpsim"
	case RuntimeShared:
		return "shared"
	case RuntimeDynamic:
		return "dynamic"
	}
	return fmt.Sprintf("Runtime(%d)", int8(r))
}

// Valid reports whether r is a known runtime.
func (r Runtime) Valid() bool {
	return r >= RuntimeAuto && r <= RuntimeDynamic
}

// ParseRuntime maps a CLI spelling to its Runtime.
func ParseRuntime(s string) (Runtime, error) {
	switch s {
	case "", "auto":
		return RuntimeAuto, nil
	case "seq", "sequential":
		return RuntimeSequential, nil
	case "mpsim":
		return RuntimeMPSim, nil
	case "shared":
		return RuntimeShared, nil
	case "dynamic":
		return RuntimeDynamic, nil
	}
	return 0, fmt.Errorf("solver: unknown runtime %q (want auto, seq, mpsim, shared or dynamic)", s)
}
