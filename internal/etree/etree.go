// Package etree computes elimination trees, postorderings, column counts,
// fundamental supernodes and relaxed supernode amalgamation for symmetric
// sparse matrices. These feed the block symbolic factorization and provide
// the scalar NNZ(L)/OPC metrics reported in Table 1 of the paper ("the
// values of the metrics come from scalar column symbolic factorization").
package etree

import (
	"fmt"
	"sort"

	"github.com/pastix-go/pastix/internal/sparse"
)

// Build computes the elimination tree of A (lower-CSC symmetric): parent[j]
// is the parent column of j, or -1 for roots. Liu's algorithm with path
// compression.
func Build(a *sparse.SymMatrix) []int {
	// Liu's algorithm needs, for each row i, the set {j < i : a_ij != 0},
	// in any order, processed after all rows < i: the row view of the
	// lower triangle.
	rowPtr, rowIdx := lowerRows(a)
	return buildTree(rowPtr, rowIdx, nil, nil)
}

// BuildPermuted computes the elimination tree of P·A·Pᵀ (perm[new] = old,
// iperm its inverse) from the adjacency structure of A — the graph.Graph
// CSR arrays ptr/adj, both triangles, no diagonal — without forming the
// permuted matrix.
func BuildPermuted(ptr, adj, perm, iperm []int) []int {
	return buildTree(ptr, adj, perm, iperm)
}

// buildTree runs Liu's algorithm over the rows of a pattern: row i of the
// (permuted) matrix holds the columns iperm[c] for c in
// idx[ptr[perm[i]]:ptr[perm[i]+1]]; nil perm and iperm mean the identity.
// Entries at or above the diagonal are skipped, and the order within a row
// does not matter.
func buildTree(ptr, idx, perm, iperm []int) []int {
	n := len(ptr) - 1
	parent := make([]int, n)
	ancestor := make([]int, n)
	for i := range parent {
		parent[i] = -1
		ancestor[i] = -1
	}
	for i := 0; i < n; i++ {
		v := i
		if perm != nil {
			v = perm[i]
		}
		for _, j := range idx[ptr[v]:ptr[v+1]] {
			if iperm != nil {
				j = iperm[j]
			}
			for j != -1 && j < i {
				next := ancestor[j]
				ancestor[j] = i
				if next == -1 {
					parent[j] = i
				}
				j = next
			}
		}
	}
	return parent
}

// lowerRows returns a CSR view of the strict lower triangle: for each row i,
// the columns j<i with a_ij != 0, ascending.
func lowerRows(a *sparse.SymMatrix) (ptr, idx []int) {
	n := a.N
	cnt := make([]int, n)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j] + 1; p < a.ColPtr[j+1]; p++ {
			cnt[a.RowIdx[p]]++
		}
	}
	ptr = make([]int, n+1)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + cnt[i]
	}
	idx = make([]int, ptr[n])
	next := append([]int(nil), ptr[:n]...)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j] + 1; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			idx[next[i]] = j
			next[i]++
		}
	}
	// Columns are appended in ascending j, so each row is already sorted.
	return ptr, idx
}

// Postorder returns a postorder of the forest given by parent: post[r] = v
// means vertex v has postorder rank r. Children are visited in ascending
// vertex order, making the result deterministic.
func Postorder(parent []int) []int {
	n := len(parent)
	// Build children lists (ascending by construction).
	head := make([]int, n)
	next := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	var roots []int
	for v := n - 1; v >= 0; v-- { // prepend => ascending child order
		p := parent[v]
		if p == -1 {
			roots = append(roots, v)
		} else {
			next[v] = head[p]
			head[p] = v
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(roots))) // we pop from the back
	post := make([]int, 0, n)
	// Iterative DFS emitting vertices in postorder.
	type frame struct{ v, child int }
	stack := make([]frame, 0, 64)
	for len(roots) > 0 {
		r := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		stack = append(stack, frame{r, head[r]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.child == -1 {
				post = append(post, f.v)
				stack = stack[:len(stack)-1]
				continue
			}
			c := f.child
			f.child = next[c]
			stack = append(stack, frame{c, head[c]})
		}
	}
	if len(post) != n {
		panic(fmt.Sprintf("etree: postorder visited %d of %d", len(post), n))
	}
	return post
}

// ColCounts computes, for each column j, the number of nonzeros of L in
// column j including the diagonal.
func ColCounts(a *sparse.SymMatrix, parent []int) []int {
	return colCounts(a.ColPtr, a.RowIdx, nil, nil, parent, Postorder(parent))
}

// ColCountsPermuted is ColCounts for P·A·Pᵀ given A's adjacency structure,
// as in BuildPermuted; parent is the elimination tree of P·A·Pᵀ and post a
// postorder of it.
func ColCountsPermuted(ptr, adj, perm, iperm, parent, post []int) []int {
	return colCounts(ptr, adj, perm, iperm, parent, post)
}

// colCounts is the column-count algorithm of Gilbert, Ng & Peyton (as in
// CSparse's cs_counts), in O(|A|·α(n)) time: it finds the row-subtree
// leaves of the skeleton matrix and sums their contributions up the tree,
// instead of walking every row subtree (O(|L|)). Column j of the pattern
// holds the rows iperm[r] for r in idx[ptr[perm[j]]:ptr[perm[j]+1]] (nil
// perm and iperm mean the identity); entries on or above the diagonal are
// ignored, and the order within a column does not matter.
func colCounts(ptr, idx, perm, iperm, parent, post []int) []int {
	n := len(parent)
	w := make([]int, 4*n)
	ancestor, maxfirst, prevleaf, first := w[:n], w[n:2*n], w[2*n:3*n], w[3*n:]
	for k := range w {
		w[k] = -1
	}
	delta := make([]int, n) // becomes the column counts
	for k, j := range post {
		if first[j] == -1 {
			delta[j] = 1 // j is a leaf of the tree
		}
		for ; j != -1 && first[j] == -1; j = parent[j] {
			first[j] = k
		}
	}
	for i := range ancestor {
		ancestor[i] = i
	}
	for _, j := range post {
		if parent[j] != -1 {
			delta[parent[j]]-- // j is not a root
		}
		c := j
		if perm != nil {
			c = perm[j]
		}
		for _, i := range idx[ptr[c]:ptr[c+1]] {
			if iperm != nil {
				i = iperm[i]
			}
			// Is j a leaf of row i's subtree (is a_ij in the skeleton)?
			if i <= j || first[j] <= maxfirst[i] {
				continue
			}
			maxfirst[i] = first[j]
			jprev := prevleaf[i]
			prevleaf[i] = j
			delta[j]++
			if jprev == -1 {
				continue // j is the subtree's first leaf
			}
			// A later leaf: its least common ancestor with the previous
			// leaf (with path compression) already counted row i.
			q := jprev
			for q != ancestor[q] {
				q = ancestor[q]
			}
			for s := jprev; s != q; {
				sp := ancestor[s]
				ancestor[s] = q
				s = sp
			}
			delta[q]--
		}
		if parent[j] != -1 {
			ancestor[j] = parent[j]
		}
	}
	for j := 0; j < n; j++ { // children precede their parents
		if parent[j] != -1 {
			delta[parent[j]] += delta[j]
		}
	}
	return delta
}

// NNZL returns the number of strictly-lower nonzeros of L given the column
// counts (the paper's NNZ_L metric).
func NNZL(cc []int) int64 {
	var s int64
	for _, c := range cc {
		s += int64(c - 1)
	}
	return s
}

// OPC returns the operation count of the scalar LLᵀ/LDLᵀ factorization with
// the given column counts: column k with m off-diagonal nonzeros costs
// m(m+3)+1 flops (rank-1 update multiply-adds, scaling divisions, and the
// pivot op). This is the standard OPC metric of Table 1.
func OPC(cc []int) float64 {
	var s float64
	for _, c := range cc {
		m := float64(c - 1)
		s += m*(m+3) + 1
	}
	return s
}

// Supernodes describes a supernode partition of the columns: half-open
// column ranges in ascending order, plus the supernodal tree (Parent[s] is
// the supernode containing the parent column of s's last column, -1 at
// roots).
type Supernodes struct {
	Ranges [][2]int
	Parent []int
}

// Count returns the number of supernodes.
func (s *Supernodes) Count() int { return len(s.Ranges) }

// ColToSnode returns a map column → supernode index.
func (s *Supernodes) ColToSnode(n int) []int {
	m := make([]int, n)
	for k, r := range s.Ranges {
		for j := r[0]; j < r[1]; j++ {
			m[j] = k
		}
	}
	return m
}

// Fundamental computes the maximal fundamental supernodes of a postordered
// matrix: columns j and j+1 share a supernode iff parent[j] == j+1 and
// cc[j+1] == cc[j]-1 (their structures then coincide below the diagonal).
func Fundamental(parent, cc []int) *Supernodes {
	n := len(parent)
	var ranges [][2]int
	start := 0
	for j := 0; j < n; j++ {
		if j == n-1 || parent[j] != j+1 || cc[j+1] != cc[j]-1 {
			ranges = append(ranges, [2]int{start, j + 1})
			start = j + 1
		}
	}
	s := &Supernodes{Ranges: ranges}
	s.SetParents(parent)
	return s
}

// SetParents sets the supernodal tree from the scalar elimination tree
// parent: a supernode's parent is the supernode holding the parent column
// of its last column.
func (s *Supernodes) SetParents(parent []int) {
	n := 0
	if len(s.Ranges) > 0 {
		n = s.Ranges[len(s.Ranges)-1][1]
	}
	col2sn := s.ColToSnode(n)
	s.Parent = make([]int, len(s.Ranges))
	for k, r := range s.Ranges {
		last := r[1] - 1
		p := parent[last]
		if p == -1 {
			s.Parent[k] = -1
		} else {
			s.Parent[k] = col2sn[p]
		}
	}
}

// AmalgamateOptions controls relaxed supernode amalgamation.
type AmalgamateOptions struct {
	// Disable turns amalgamation off entirely (fundamental supernodes pass
	// through unchanged).
	Disable bool
}

// The relaxed-supernode zero budget of Ashcraft & Grimes (1989), with the
// constants CHOLMOD ships: a merge whose result is at most relaxAlways
// columns wide is always taken; a wider one only while the merged
// supernode's explicit zeros stay below a share of its stored entries that
// shrinks as it widens — relaxShareNarrow up to relaxNarrow columns,
// relaxShareMid up to relaxMid, relaxShareWide beyond. Narrow supernodes
// gain most from merging (a dense kernel call per column costs more than
// the zeros it streams), wide ones least.
const (
	relaxAlways      = 4
	relaxNarrow      = 16
	relaxMid         = 48
	relaxShareNarrow = 0.8
	relaxShareMid    = 0.1
	relaxShareWide   = 0.05
)

// withinZeroBudget reports whether a supernode w columns wide that stores
// stored entries, zeros of them explicit zeros, fits the relaxed budget.
func withinZeroBudget(w int, zeros, stored int64) bool {
	if w <= relaxAlways {
		return true
	}
	share := float64(zeros) / float64(stored)
	switch {
	case w <= relaxNarrow:
		return share < relaxShareNarrow
	case w <= relaxMid:
		return share < relaxShareMid
	}
	return share < relaxShareWide
}

// storedEntries is the number of entries the block model stores for a
// supernode w columns wide with rows off-diagonal rows below it: the lower
// triangle of its dense diagonal block, diagonal included, plus its dense
// off-diagonal rows.
func storedEntries(w, rows int) int64 {
	return int64(w)*int64(w+1)/2 + int64(w)*int64(rows)
}

// Amalgamate merges supernodes into their parents (when the column ranges
// are adjacent, which a postordered tree makes common) to reduce the block
// count at the price of some explicit zeros — the paper's relaxed
// amalgamation. A merge is taken only while the merged supernode's zeros
// fit the width-graded budget of withinZeroBudget. cc are the scalar column
// counts of the postordered matrix.
func Amalgamate(s *Supernodes, cc []int, opts AmalgamateOptions) *Supernodes {
	if opts.Disable {
		return s
	}
	out, _ := amalgamate(s, cc)
	return out
}

// amalgamate is Amalgamate, also returning the stored entries it tracked
// for each output supernode.
//
// The accounting is exact. A live supernode's off-diagonal row count is its
// last column's count minus one: every column's etree path runs through the
// supernode to its last column, so every column's structure below the
// supernode lies in the last column's. A merge prepends the child's columns
// and leaves the last column, so it never changes the row count. Its true
// nonzeros are the sum of its columns' counts, which a merge adds up.
func amalgamate(s *Supernodes, cc []int) (*Supernodes, []int64) {
	ns := len(s.Ranges)
	start := make([]int, ns)
	end := make([]int, ns)
	nnz := make([]int64, ns) // true nonzeros, diagonal included
	alive := make([]bool, ns)
	rep := make([]int, ns) // representative after merges
	for k, r := range s.Ranges {
		start[k], end[k], alive[k], rep[k] = r[0], r[1], true, k
		for j := r[0]; j < r[1]; j++ {
			nnz[k] += int64(cc[j])
		}
	}
	find := func(k int) int {
		for rep[k] != k {
			rep[k] = rep[rep[k]]
			k = rep[k]
		}
		return k
	}
	// Sweep from the root end downward so that chains collapse fully: once a
	// supernode merges into its parent, the child below becomes adjacent to
	// the merged range.
	for k := ns - 1; k >= 0; k-- {
		pk := s.Parent[k]
		if pk == -1 {
			continue
		}
		p := find(pk)
		if start[p] != end[k] {
			continue // not adjacent; merging would break contiguity
		}
		w := end[p] - start[k]
		st := storedEntries(w, cc[end[p]-1]-1)
		if withinZeroBudget(w, st-nnz[k]-nnz[p], st) {
			start[p] = start[k]
			nnz[p] += nnz[k]
			alive[k] = false
			rep[k] = p
		}
	}
	out := &Supernodes{}
	var entries []int64
	old2new := make([]int, ns)
	for k := 0; k < ns; k++ {
		if alive[k] {
			old2new[k] = len(out.Ranges)
			out.Ranges = append(out.Ranges, [2]int{start[k], end[k]})
			entries = append(entries, storedEntries(end[k]-start[k], cc[end[k]-1]-1))
		}
	}
	out.Parent = make([]int, len(out.Ranges))
	for k := 0; k < ns; k++ {
		if !alive[k] {
			continue
		}
		nk := old2new[k]
		if pk := s.Parent[k]; pk == -1 {
			out.Parent[nk] = -1
		} else {
			out.Parent[nk] = old2new[find(pk)]
		}
	}
	return out, entries
}

// ApplyPostorder maps an elimination forest and column counts through a
// postorder: it returns the composed permutation data for the reordered
// matrix, where newParent[ipost[v]] = ipost[parent[v]] and newCC likewise.
// post[r]=v gives rank r of old vertex v.
func ApplyPostorder(parent, cc, post []int) (newParent, newCC []int) {
	n := len(parent)
	ipost := make([]int, n)
	for r, v := range post {
		ipost[v] = r
	}
	newParent = make([]int, n)
	newCC = make([]int, n)
	for v := 0; v < n; v++ {
		r := ipost[v]
		if parent[v] == -1 {
			newParent[r] = -1
		} else {
			newParent[r] = ipost[parent[v]]
		}
		newCC[r] = cc[v]
	}
	return newParent, newCC
}

// Validate checks supernode partition invariants over n columns.
func (s *Supernodes) Validate(n int) error {
	pos := 0
	for k, r := range s.Ranges {
		if r[0] != pos || r[1] <= r[0] {
			return fmt.Errorf("etree: supernode %d range %v not contiguous at %d", k, r, pos)
		}
		pos = r[1]
		if p := s.Parent[k]; p != -1 && p <= k {
			return fmt.Errorf("etree: supernode %d parent %d not later", k, p)
		}
	}
	if pos != n {
		return fmt.Errorf("etree: supernodes cover %d of %d columns", pos, n)
	}
	return nil
}
