package blas

import "fmt"

// PivotError reports a breakdown of an unpivoted dense factorization: the
// pivot at Index (0-based within the factored block) was zero, NaN, or — for
// Cholesky — non-positive. Callers translate Index into global matrix
// coordinates; errors.As is the intended access path.
type PivotError struct {
	Kernel string  // "ldlt" or "cholesky"
	Index  int     // pivot index within the factored block
	Value  float64 // offending pivot (its real part when complex)
}

func (e *PivotError) Error() string {
	switch e.Kernel {
	case "cholesky":
		return fmt.Sprintf("blas: cholesky pivot %d non-positive (%g)", e.Index, e.Value)
	default:
		return fmt.Sprintf("blas: %s pivot %d is zero", e.Kernel, e.Index)
	}
}
