package sparse

import (
	"fmt"
	"sort"
)

// refBuilder is the map-per-column Builder this package shipped before
// assembly moved onto a stable counting sort, kept as the reference
// FuzzBuilder compares the production Builder against bit for bit.
type refBuilder struct {
	n    int
	cols []map[int]float64
}

func newRefBuilder(n int) *refBuilder {
	b := &refBuilder{n: n, cols: make([]map[int]float64, n)}
	for j := range b.cols {
		b.cols[j] = make(map[int]float64)
	}
	return b
}

func (b *refBuilder) Add(i, j int, v float64) {
	if i < 0 || j < 0 || i >= b.n || j >= b.n {
		panic(fmt.Sprintf("sparse: triplet (%d,%d) out of range n=%d", i, j, b.n))
	}
	if i < j {
		i, j = j, i
	}
	b.cols[j][i] += v
}

func (b *refBuilder) Build() *SymMatrix {
	a := &SymMatrix{N: b.n, ColPtr: make([]int, b.n+1)}
	for j := 0; j < b.n; j++ {
		if _, ok := b.cols[j][j]; !ok {
			b.cols[j][j] = 0
		}
		a.ColPtr[j+1] = a.ColPtr[j] + len(b.cols[j])
	}
	a.RowIdx = make([]int, a.ColPtr[b.n])
	a.Val = make([]float64, a.ColPtr[b.n])
	for j := 0; j < b.n; j++ {
		rows := make([]int, 0, len(b.cols[j]))
		for i := range b.cols[j] {
			rows = append(rows, i)
		}
		sort.Ints(rows)
		p := a.ColPtr[j]
		for _, i := range rows {
			a.RowIdx[p] = i
			a.Val[p] = b.cols[j][i]
			p++
		}
	}
	return a
}
