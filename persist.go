package pastix

import (
	"context"
	"fmt"

	"github.com/pastix-go/pastix/internal/solver"
)

// FactorPayload is the serializable numerical content of a Factor — the
// dense or BLR-compressed cell values, the static-pivot report and the
// column-block partition the factor was computed on. It is produced by
// Factor.ExportPayload and consumed by Analysis.RestoreFactor; the durable
// store (internal/store) gives it a versioned, CRC-checked binary encoding.
// A payload carries no block structure: restoring one requires an Analysis
// of the same pattern and ordering options on the payload's partition,
// which AnalyzeForRestore builds and the deterministic analysis pipeline
// guarantees reproduces the exact structure the cells were shaped by.
type FactorPayload = solver.FactorPayload

// ErrPayloadLayout reports a dense FactorPayload whose cell layout is
// missing or unknown; RestoreFactor never infers the layout from lengths.
var ErrPayloadLayout = solver.ErrPayloadLayout

// ExportPayload lifts the factor's numerical content into a FactorPayload
// for persistence or transfer. The payload aliases the factor's immutable
// storage; serialize it before mutating anything.
func (f *Factor) ExportPayload() (*FactorPayload, error) {
	if f == nil || f.inner == nil {
		return nil, fmt.Errorf("pastix: export of nil factor")
	}
	return f.inner.ExportPayload(), nil
}

// AnalyzeForRestore is AnalyzeContext for restoring p: the analysis is
// built on the column-block partition p records, so the amalgamation rule
// and BlockSize in force when the factor was computed need not be today's.
// A payload that records no partition (written before it was recorded) is
// analysed under the amalgamation rule of that time and opts.BlockSize,
// which must then be the BlockSize it was computed with.
func AnalyzeForRestore(ctx context.Context, a *Matrix, opts Options, p *FactorPayload) (*Analysis, error) {
	if p == nil {
		return nil, fmt.Errorf("pastix: restore from nil payload")
	}
	return analyzeWith(a, opts, func(sopts solver.Options) (*solver.Analysis, error) {
		return solver.AnalyzeRestoreCtx(ctx, a, sopts, p.Partition)
	})
}

// Partition returns the analysis's column-block boundaries: entry k is the
// first column of column block k and the last entry is the matrix order.
// A FactorPayload records the partition of its factor's analysis.
func (an *Analysis) Partition() []int { return an.inner.Partition() }

// RestoreFactor rebuilds a Factor from a persisted payload and the matrix it
// was factorized from, without refactorizing: the cell values are adopted
// verbatim, so solves against the restored factor are bitwise-identical to
// solves against the original. The analysis must be on the payload's
// partition (AnalyzeForRestore builds one); a payload recording another
// partition is rejected. The matrix must carry the analysed pattern
// (ErrPatternMismatch otherwise) and the same values the factor was computed
// from — it binds the refinement path, exactly as in FactorizeValues. Dense
// cells written in the packed layout are unpacked into the strided one; a
// dense payload with a missing or unknown layout fails with
// ErrPayloadLayout. The payload's storage form is final: an analysis-level BLR option does NOT
// re-compress a restored dense factor, and a compressed payload stays
// compressed.
func (an *Analysis) RestoreFactor(a *Matrix, p *FactorPayload) (*Factor, error) {
	if p == nil {
		return nil, fmt.Errorf("pastix: restore from nil payload")
	}
	pa, err := an.permuteSamePattern(a)
	if err != nil {
		return nil, err
	}
	inner, err := solver.ImportFactors(an.inner.Sym, p)
	if err != nil {
		return nil, err
	}
	return &Factor{inner: inner, an: an.inner, pa: pa}, nil
}
