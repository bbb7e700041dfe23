package solver

import (
	"errors"
	"fmt"

	"github.com/pastix-go/pastix/internal/blas"
	"github.com/pastix-go/pastix/internal/mpsim"
)

// Sentinel errors of the numerical phases. They are re-exported by the
// public pastix package; match with errors.Is, extract detail with
// errors.As.
var (
	// ErrNotSPD reports a factorization breakdown: the unpivoted LDLᵀ hit a
	// zero (or NaN) pivot, so the matrix is not symmetric positive definite
	// nor strongly diagonally dominant. The concrete error is a
	// *ZeroPivotError carrying the offending column.
	ErrNotSPD = errors.New("solver: matrix is not positive definite (zero pivot)")
	// ErrShape reports a dimension mismatch between arguments (rhs length vs
	// matrix order, panel shape, pattern mismatch).
	ErrShape = errors.New("solver: dimension mismatch")
	// ErrPivotExhausted reports that FactorizeRobust ran out of escalation
	// attempts: even the largest ε_piv tried either failed to factorize or
	// left a backward error that refinement could not pull under the target.
	// The concrete error is a *PivotExhaustedError.
	ErrPivotExhausted = errors.New("solver: static pivoting exhausted retries without an accurate factorization")
	// ErrCompressed reports that an operation which reads the dense factor
	// arrays (the message-passing solve runtime) was handed a BLR-compressed
	// factor. Compressed factors solve through Factors.Solve and the level-set
	// engine.
	ErrCompressed = errors.New("solver: operation requires dense factors (factor is BLR-compressed)")
)

// ErrFaultBudget reports that a fault-injected run degraded past recovery:
// the reliability layer exhausted a message's resend budget or a worker's
// restart budget. Match with errors.Is; the concrete error is a
// *FaultBudgetError carrying per-processor progress.
var ErrFaultBudget = mpsim.ErrFaultBudget

// TaskProgress is one processor's position in its task vector K_p when a
// fault-injected run gave up.
type TaskProgress struct {
	Done  int // tasks completed (and logged) before the run aborted
	Total int // tasks in the processor's vector
}

// FaultBudgetError wraps the runtime's budget exhaustion (an
// mpsim.ErrFaultBudget, reachable via errors.Is/As through Err) with the
// per-processor progress at the time of the abort — the graceful-degradation
// observable: how far each K_p got before recovery was abandoned.
type FaultBudgetError struct {
	Progress []TaskProgress // indexed by processor
	Err      error
}

func (e *FaultBudgetError) Error() string {
	done, total := 0, 0
	for _, p := range e.Progress {
		done += p.Done
		total += p.Total
	}
	return fmt.Sprintf("solver: aborted after %d/%d tasks: %v", done, total, e.Err)
}

func (e *FaultBudgetError) Unwrap() error { return e.Err }

// ZeroPivotError is the concrete error behind ErrNotSPD: the factorization
// of column block Cell broke down at global column Column (in the permuted
// ordering the analysis produced).
type ZeroPivotError struct {
	Cell   int     // column block whose diagonal factorization failed
	Column int     // global column index, permuted ordering
	Value  float64 // the offending pivot value (0 or NaN)
}

func (e *ZeroPivotError) Error() string {
	return fmt.Sprintf("solver: zero pivot at column %d (cb %d): matrix is not positive definite", e.Column, e.Cell)
}

// Is makes errors.Is(err, ErrNotSPD) succeed for ZeroPivotError values.
func (e *ZeroPivotError) Is(target error) bool { return target == ErrNotSPD }

// PivotExhaustedError is the concrete error behind ErrPivotExhausted: the
// escalation state when FactorizeRobust gave up.
type PivotExhaustedError struct {
	Attempts      int     // factorization attempts made (first try + retries)
	Epsilon       float64 // the last ε_piv tried
	BackwardError float64 // probe backward error of the last completed factorization; 0 if none completed
	Columns       []int   // perturbed columns of the last completed factorization
	Err           error   // last factorization error when no attempt completed
}

func (e *PivotExhaustedError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("solver: static pivoting exhausted after %d attempts (last ε=%.3g): %v", e.Attempts, e.Epsilon, e.Err)
	}
	return fmt.Sprintf("solver: static pivoting exhausted after %d attempts (last ε=%.3g): backward error %.3g above target, %d column(s) perturbed",
		e.Attempts, e.Epsilon, e.BackwardError, len(e.Columns))
}

// Is makes errors.Is(err, ErrPivotExhausted) succeed.
func (e *PivotExhaustedError) Is(target error) bool { return target == ErrPivotExhausted }

func (e *PivotExhaustedError) Unwrap() error { return e.Err }

// wrapPivot converts a blas factorization failure of cell k (whose first
// global column is colStart) into the typed solver error, translating the
// block-local pivot index into a global column.
func wrapPivot(colStart, k int, err error) error {
	var pe *blas.PivotError
	if errors.As(err, &pe) {
		return &ZeroPivotError{Cell: k, Column: colStart + pe.Index, Value: pe.Value}
	}
	return fmt.Errorf("solver: cb %d: %w", k, err)
}
