package pastix

import (
	"github.com/pastix-go/pastix/internal/faults"
	"github.com/pastix-go/pastix/internal/mpsim"
)

// FaultPlan configures deterministic fault injection for the message-passing
// factorization runtime (Options.Faults): seeded per-message
// drop/duplicate/delay probabilities, worker crash-at-task and stall
// schedules, and the reliability-layer tuning. The zero value injects
// nothing. The same seed and workload reproduce the same faults, so any chaos
// failure can be replayed from its seed.
//
// Under an active plan the runtime switches to a reliable protocol (sequence
// numbers, dedup, ack+resend, heartbeat supervision, crash restart with
// replay from the completion log) and still produces a factor bit-for-bit
// identical to the fault-free run; past-recovery degradation surfaces as
// ErrFaultBudget. The solve exchanges no messages, so the plan does not act
// on it: its answer is the fault-free one.
type FaultPlan = faults.Plan

// FaultStall schedules one worker stall window in a FaultPlan.
type FaultStall = faults.Stall

// FaultReliability tunes the reliability layer of a FaultPlan (resend
// timeouts, retry and restart budgets, stall detection). The zero value
// selects the documented defaults.
type FaultReliability = mpsim.Reliability
