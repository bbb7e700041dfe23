package solver

import (
	"github.com/pastix-go/pastix/internal/sparse"
	"github.com/pastix-go/pastix/internal/symbolic"
)

// FactorizeSeq is the sequential reference factor of a under sym, without
// static pivoting: the bits the tests hold every other driver to.
func FactorizeSeq(a *sparse.SymMatrix, sym *symbolic.Symbol) (*Factors, error) {
	f, _, err := factorizeSeq(a, sym, 0, sym.NumCB())
	if err != nil {
		return nil, err
	}
	return &Factors{Storage: *f}, nil
}
