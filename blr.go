package pastix

import (
	"fmt"

	"github.com/pastix-go/pastix/internal/lowrank"
	"github.com/pastix-go/pastix/internal/solver"
)

// BLROptions configures block low-rank factor compression
// (Options.BLR, Factor.Compress): Tol is the per-block relative Frobenius
// tolerance ‖B − U·Vᵀ‖_F ≤ Tol·‖B‖_F (0 disables compression), MinBlockSize
// is the smallest block dimension offered to the compressor (0 selects the
// default 24). Compression is lossy: solves on a compressed factor carry a
// ~Tol-level error that adaptive refinement (SolveOptions.Refine) pulls back
// below the refinement target.
type BLROptions = lowrank.Options

// DefaultBLRMinBlockSize is the admission threshold used when
// BLROptions.MinBlockSize is 0.
const DefaultBLRMinBlockSize = lowrank.DefaultMinBlockSize

// DefaultRefineTol is the componentwise backward-error target of adaptive
// refinement when Options.RefineTol (or RefineOptions.Tol) is unset.
const DefaultRefineTol = solver.DefaultRefineTol

// CompressionStats is the byte accounting of one compression pass:
// factor-value bytes before and after, their ratio, and how many
// off-diagonal blocks went low-rank.
type CompressionStats = solver.CompressionStats

// Compressed reports whether the factor is stored in block low-rank form.
func (f *Factor) Compressed() bool {
	return f != nil && f.inner != nil && f.inner.Compressed()
}

// CompressionStats returns the accounting of the compression pass that
// produced this factor's storage, or nil for a dense factor.
func (f *Factor) CompressionStats() *CompressionStats {
	if f == nil || f.inner == nil {
		return nil
	}
	return f.inner.Compression()
}

// MemoryBytes reports the resident factor-value bytes in the factor's
// current form (dense or compressed).
func (f *Factor) MemoryBytes() int64 {
	if f == nil || f.inner == nil {
		return 0
	}
	return f.inner.MemoryBytes()
}

// Compress converts the factor to block low-rank form in place and returns
// the byte accounting — the explicit variant of Options.BLR for callers
// (like a serving layer reusing one Analysis) that decide per factor. A
// zero-Tol opts fails validation rather than silently doing nothing;
// compressing an already-compressed factor returns the existing stats.
// Compression must not race solves on the same factor.
func (f *Factor) Compress(opts BLROptions) (CompressionStats, error) {
	if f == nil || f.inner == nil {
		return CompressionStats{}, ErrFactorMismatch
	}
	if err := opts.Validate(); err != nil {
		return CompressionStats{}, fmt.Errorf("%w: %v", ErrBadOptions, err)
	}
	if !opts.Enabled() {
		return CompressionStats{}, fmt.Errorf("%w: BLR.Tol 0 disables compression", ErrBadOptions)
	}
	return f.inner.Compress(opts), nil
}
