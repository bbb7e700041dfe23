package sparse

// Assembly and permutation of the lower-triangle CSC arrays of Sym[T], for
// either scalar type. Both run as counting sorts over flat arrays: no
// per-column map, no comparison sort.

// triplet is one Add call, folded into the lower triangle (i >= j).
type triplet[T Scalar] struct {
	i, j int
	v    T
}

// stableOrder sorts the positions 0..m-1 by (major(k), minor(k)), both in
// [0,n), keeping equal keys in position order: two stable counting passes,
// minor key first. end[x] is the end of major bucket x in order.
func stableOrder(n, m int, major, minor func(k int) int) (order, end []int) {
	end = make([]int, n+1)
	for k := 0; k < m; k++ {
		end[minor(k)+1]++
	}
	for x := 0; x < n; x++ {
		end[x+1] += end[x]
	}
	byMinor := make([]int, m)
	for k := 0; k < m; k++ {
		x := minor(k)
		byMinor[end[x]] = k
		end[x]++
	}
	clear(end)
	for k := 0; k < m; k++ {
		end[major(k)+1]++
	}
	for x := 0; x < n; x++ {
		end[x+1] += end[x]
	}
	order = make([]int, m)
	for _, k := range byMinor {
		x := major(k)
		order[end[x]] = k
		end[x]++
	}
	return order, end[:n]
}

// assemble builds the lower-triangle CSC arrays of an n×n symmetric matrix
// from triplets with i >= j. Duplicates are summed in insertion order,
// starting from zero, and an explicit zero diagonal is inserted where a
// column has none. The triplets are ordered by (column, row) with
// stableOrder, so each column's rows come out sorted and equal rows keep
// their insertion order.
func assemble[T Scalar](n int, ts []triplet[T]) (colPtr, rowIdx []int, val []T) {
	byCol, end := stableOrder(n, len(ts),
		func(k int) int { return ts[k].j }, func(k int) int { return ts[k].i })
	// Count the distinct rows (plus a missing diagonal) per column.
	colPtr = make([]int, n+1)
	lo := 0
	for j := 0; j < n; j++ {
		hi := end[j]
		cnt := 0
		if lo == hi || ts[byCol[lo]].i != j {
			cnt++
		}
		for q := lo; q < hi; q++ {
			if q == lo || ts[byCol[q]].i != ts[byCol[q-1]].i {
				cnt++
			}
		}
		colPtr[j+1] = colPtr[j] + cnt
		lo = hi
	}
	rowIdx = make([]int, colPtr[n])
	val = make([]T, colPtr[n])
	lo = 0
	for j := 0; j < n; j++ {
		hi := end[j]
		p := colPtr[j]
		if lo == hi || ts[byCol[lo]].i != j {
			rowIdx[p] = j
			p++
		}
		for q := lo; q < hi; {
			i := ts[byCol[q]].i
			var s T
			for ; q < hi && ts[byCol[q]].i == i; q++ {
				s += ts[byCol[q]].v
			}
			rowIdx[p], val[p] = i, s
			p++
		}
		lo = hi
	}
	return colPtr, rowIdx, val
}

// permute returns the lower-triangle CSC arrays of P·A·Pᵀ (perm[new] = old)
// by a two-pass counting transpose: entries are first bucketed by their new
// row, then the rows are walked in ascending order and scattered into their
// new columns, so every column comes out with its rows sorted.
func permute[T Scalar](n int, colPtr, rowIdx []int, val []T, perm []int) (newPtr, newIdx []int, newVal []T) {
	if len(perm) != n {
		panic("sparse: permutation length mismatch")
	}
	inv := make([]int, n) // inv[old] = new
	for newI, old := range perm {
		inv[old] = newI
	}
	nnz := colPtr[n]
	rowStart := make([]int, n+1)
	newPtr = make([]int, n+1)
	for j := 0; j < n; j++ {
		nj := inv[j]
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			ni := inv[rowIdx[p]]
			if ni < nj {
				rowStart[nj+1]++
				newPtr[ni+1]++
			} else {
				rowStart[ni+1]++
				newPtr[nj+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		rowStart[i+1] += rowStart[i]
		newPtr[i+1] += newPtr[i]
	}
	// Bucket by new row: the new column and the source position.
	rcol := make([]int, nnz)
	rsrc := make([]int, nnz)
	for j := 0; j < n; j++ {
		nj := inv[j]
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			ni, c := inv[rowIdx[p]], nj
			if ni < c {
				ni, c = c, ni
			}
			q := rowStart[ni]
			rcol[q], rsrc[q] = c, p
			rowStart[ni]++
		}
	}
	// rowStart[i] now ends row i; walk the rows in order, scattering each
	// entry to its column's cursor.
	newIdx = make([]int, nnz)
	newVal = make([]T, nnz)
	next := append([]int(nil), newPtr[:n]...)
	q := 0
	for i := 0; i < n; i++ {
		for ; q < rowStart[i]; q++ {
			c := rcol[q]
			d := next[c]
			newIdx[d], newVal[d] = i, val[rsrc[q]]
			next[c]++
		}
	}
	return newPtr, newIdx, newVal
}
