// Package order computes fill-reducing orderings of symmetric sparse
// matrices. It provides an Approximate Minimum Degree (AMD) ordering on a
// quotient graph — including the Halo-AMD variant used on nested-dissection
// leaves — and a nested-dissection driver that tightly couples the two, in
// the manner of Scotch's ND/HAMD hybridization cited by the paper
// (Pellegrini, Roman & Amestoy).
package order

import (
	"github.com/pastix-go/pastix/internal/graph"
)

// amdWork is the quotient graph of one AMD run, on flat arrays that a
// nested dissection reuses from leaf to leaf.
//
// A vertex id plays one of four roles over time: an alive supervariable, an
// absorbed supervariable (merged into another that carries its weight), an
// element (an eliminated pivot whose clique is represented by the list of
// supervariables it reaches), or a dead element (absorbed into a newer
// one). Adjacency lists are purged lazily.
//
// Every list lives in the arena iw. A supervariable v owns the region
// iw[pe[v]:pe[v]+room[v]]: its adjacent supervariables first (nvar[v] of
// them), then its adjacent elements (up to ln[v] in all). An element's list
// is stored in the region it owned as a supervariable when it fits, and is
// appended to the arena otherwise; so is a supervariable's lists when they
// outgrow their region.
type amdWork struct {
	iw   []int
	pe   []int
	room []int
	ln   []int
	nvar []int

	halo []bool // halo[v]: v participates in degrees but is never eliminated
	role []int8 // roleAlive, roleAbsorbed, roleElement, roleDead
	w    []int  // supervariable weight (original vertex count), 0 once absorbed
	deg  []int  // approximate external degree (weighted)
	mark []int  // generation marks
	// ew[e] is the weight of element e's live members, |L_e|. It is fixed
	// when e forms: a member that becomes a pivot absorbs e, and a merge
	// moves weight between two members (indistinguishable supervariables
	// reach the same elements).
	ew    []int
	est   []int // |L_e \ Lp| (weighted) of element e, valid where estAt[e] == the pivot's stamp
	estAt []int

	// The original vertices a supervariable carries, as linked lists in
	// merge order.
	head, tail, next []int

	stamp int
	h     degHeap
	lp    []int
	cands []candidate
	// Hash slots of the candidates (a power of two of them, at least n):
	// bhead[slot] is the first candidate in the slot (-1 when empty), bnext
	// links the rest.
	bhead, bnext []int

	order, snodes []int // the result of the last run
}

// candidate is a supervariable of the pivot's reach with the hash of its
// quotient-graph adjacency.
type candidate struct{ hash, v int }

const (
	roleAlive    int8 = iota
	roleAbsorbed      // supervariable merged into another
	roleElement
	roleDead // element absorbed into a newer element
)

// degHeap is an indexed binary min-heap of the live interior
// supervariables keyed by (degree, vertex): ties on degree go to the lower
// vertex id, so the pivot sequence is deterministic. pos[v] is v's slot in
// q, or -1.
type degHeap struct {
	q   []degItem
	pos []int
}

type degItem struct{ deg, v int }

func (a degItem) less(b degItem) bool {
	if a.deg != b.deg {
		return a.deg < b.deg
	}
	return a.v < b.v
}

func (h *degHeap) swap(i, j int) {
	h.q[i], h.q[j] = h.q[j], h.q[i]
	h.pos[h.q[i].v] = i
	h.pos[h.q[j].v] = j
}

func (h *degHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.q[i].less(h.q[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *degHeap) down(i int) {
	n := len(h.q)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && h.q[c+1].less(h.q[c]) {
			c++
		}
		if !h.q[c].less(h.q[i]) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// set inserts v with degree deg, or re-keys it.
func (h *degHeap) set(v, deg int) {
	i := h.pos[v]
	if i < 0 {
		i = len(h.q)
		h.q = append(h.q, degItem{deg, v})
		h.pos[v] = i
		h.up(i)
		return
	}
	old := h.q[i]
	h.q[i].deg = deg
	if h.q[i].less(old) {
		h.up(i)
	} else {
		h.down(i)
	}
}

// remove drops v if present.
func (h *degHeap) remove(v int) {
	i := h.pos[v]
	if i < 0 {
		return
	}
	last := len(h.q) - 1
	h.swap(i, last)
	h.q = h.q[:last]
	h.pos[v] = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

// pop removes and returns the vertex with the least (degree, vertex).
func (h *degHeap) pop() int {
	v := h.q[0].v
	h.remove(v)
	return v
}

// AMDResult reports an AMD ordering of the non-halo vertices of a graph.
type AMDResult struct {
	// Order lists the (local) interior vertex ids in elimination order.
	Order []int
	// Supernodes partitions Order into consecutive groups: Supernodes[k] is
	// the number of vertices emitted by the k-th pivot elimination. These are
	// the amalgamated supervariables that seed the supernode partition.
	Supernodes []int
}

// AMD orders all vertices of g by approximate minimum degree.
func AMD(g *graph.Graph) *AMDResult { return HaloAMD(g, g.N) }

// HaloAMD orders the interior vertices [0, nInner) of g by approximate
// minimum degree. Vertices [nInner, g.N) form the halo: they contribute to
// the degrees of interior vertices (so that boundary vertices are not
// mistaken for low-degree ones) but are never eliminated and do not appear
// in the result. With nInner == g.N this is plain AMD.
func HaloAMD(g *graph.Graph, nInner int) *AMDResult {
	var s amdWork
	s.run(g, nInner)
	return &AMDResult{Order: s.order, Supernodes: s.snodes}
}

// grow returns x resized to n, reusing its storage when large enough.
func grow[T any](x []T, n int) []T {
	if cap(x) < n {
		return make([]T, n)
	}
	return x[:n]
}

// run orders g's interior vertices into s.order and s.snodes, which stay
// valid until the next run.
func (s *amdWork) run(g *graph.Graph, nInner int) {
	n := g.N
	s.pe = grow(s.pe, n)
	s.room = grow(s.room, n)
	s.ln = grow(s.ln, n)
	s.nvar = grow(s.nvar, n)
	s.halo = grow(s.halo, n)
	s.role = grow(s.role, n)
	s.w = grow(s.w, n)
	s.deg = grow(s.deg, n)
	s.ew = grow(s.ew, n)
	s.head = grow(s.head, n)
	s.tail = grow(s.tail, n)
	s.next = grow(s.next, n)
	// Marks from earlier runs are below the (never reset) stamp, so only
	// fresh storage needs clearing.
	if cap(s.mark) < n {
		s.mark = make([]int, n)
		s.est = make([]int, n)
		s.estAt = make([]int, n)
	}
	s.mark = s.mark[:n]
	s.est = s.est[:n]
	s.estAt = s.estAt[:n]
	s.iw = append(s.iw[:0], g.Adj...)
	s.h.q = s.h.q[:0]
	s.h.pos = grow(s.h.pos, n)
	nslot := 1
	for nslot < n {
		nslot *= 2
	}
	s.bhead = grow(s.bhead, nslot)
	for i := range s.bhead {
		s.bhead[i] = -1
	}
	s.order = s.order[:0]
	s.snodes = s.snodes[:0]

	for v := 0; v < n; v++ {
		s.pe[v] = g.Ptr[v]
		s.room[v] = g.Ptr[v+1] - g.Ptr[v]
		s.ln[v] = s.room[v]
		s.nvar[v] = s.room[v]
		s.halo[v] = v >= nInner
		s.role[v] = roleAlive
		s.h.pos[v] = -1
		s.w[v] = g.Weight(v)
		s.head[v], s.tail[v], s.next[v] = v, v, -1
		d := 0
		for _, u := range g.Neighbors(v) {
			d += g.Weight(u)
		}
		s.deg[v] = d
		if !s.halo[v] {
			s.h.set(v, d)
		}
	}

	remaining := nInner
	for remaining > 0 {
		p := s.h.pop()
		s.eliminate(p)
		k := 0
		for v := s.head[p]; v >= 0; v = s.next[v] {
			s.order = append(s.order, v)
			k++
		}
		s.snodes = append(s.snodes, k)
		remaining -= k
	}
}

func (s *amdWork) nextStamp() int { s.stamp++; return s.stamp }

// vars and elems return supervariable v's supervariable and element lists.
func (s *amdWork) vars(v int) []int  { return s.iw[s.pe[v] : s.pe[v]+s.nvar[v]] }
func (s *amdWork) elems(v int) []int { return s.iw[s.pe[v]+s.nvar[v] : s.pe[v]+s.ln[v]] }

// elemList returns element e's list (the supervariables it reached when it
// was formed; may be stale).
func (s *amdWork) elemList(e int) []int { return s.iw[s.pe[e] : s.pe[e]+s.ln[e]] }

// eliminate turns pivot p into an element, updates degrees of its
// neighbourhood and merges indistinguishable supervariables; p's original
// vertices are then the list at s.head[p].
func (s *amdWork) eliminate(p int) {
	// --- Build Lp = alive supervariables reachable from p. ---
	st := s.nextStamp()
	s.mark[p] = st
	lp := s.lp[:0]
	for _, u := range s.vars(p) {
		if s.role[u] == roleAlive && s.mark[u] != st {
			s.mark[u] = st
			lp = append(lp, u)
		}
	}
	for _, e := range s.elems(p) {
		if s.role[e] != roleElement {
			continue
		}
		for _, u := range s.elemList(e) {
			if s.role[u] == roleAlive && s.mark[u] != st {
				s.mark[u] = st
				lp = append(lp, u)
			}
		}
		s.role[e] = roleDead // absorbed into the new element p
	}
	s.lp = lp

	// --- p becomes element with list Lp. ---
	s.role[p] = roleElement
	if len(lp) > s.room[p] {
		s.pe[p] = len(s.iw)
		s.iw = append(s.iw, lp...)
		s.room[p] = len(lp)
	} else {
		copy(s.iw[s.pe[p]:], lp)
	}
	s.ln[p], s.nvar[p] = len(lp), 0
	wp := 0
	for _, u := range lp {
		wp += s.w[u]
	}
	s.ew[p] = wp

	// --- Compute |L_e \ Lp| (weighted) for elements touching Lp. ---
	// est[e] starts at |L_e| and is decremented by w(v) for each v in Lp∩L_e.
	for _, v := range lp {
		for _, e := range s.elems(v) {
			if s.role[e] != roleElement {
				continue
			}
			if s.estAt[e] != st {
				s.estAt[e] = st
				s.est[e] = s.ew[e]
			}
			s.est[e] -= s.w[v]
		}
	}

	// --- Update each v in Lp. ---
	cands := s.cands[:0]
	for _, v := range lp {
		// Compact v's lists in place: the supervariables lose members of Lp
		// (reachable through element p now), dead ids and v itself; the
		// elements lose absorbed ones, and p joins them. Along the way, sum
		// the approximate external degree and the adjacency hash.
		base := s.pe[v]
		q := base
		dS, dE, hash := 0, wp-s.w[v], p
		for _, u := range s.vars(v) {
			if s.role[u] == roleAlive && s.mark[u] != st && u != v {
				s.iw[q] = u
				q++
				dS += s.w[u]
				hash += u
			}
		}
		nv := q - base
		for _, e := range s.elems(v) {
			if s.role[e] == roleElement && e != p {
				s.iw[q] = e
				q++
				if x := s.est[e]; x > 0 {
					dE += x
				}
				hash += e
			}
		}
		if n := q - base; n == s.room[v] {
			// Nothing was dropped: move the lists to the end of the arena to
			// make room for p.
			s.pe[v] = len(s.iw)
			s.iw = append(s.iw, s.iw[base:q]...)
			s.iw = append(s.iw, p)
			s.room[v] = n + 1
		} else {
			s.iw[q] = p
		}
		hash += p
		s.ln[v], s.nvar[v] = q-base+1, nv

		nd := dS + dE
		if nd > s.deg[v]+wp-s.w[v] {
			nd = s.deg[v] + wp - s.w[v]
		}
		s.deg[v] = nd
		cands = append(cands, candidate{hash, v})
	}
	s.cands = cands

	// --- Indistinguishable supervariable detection within Lp. ---
	// Candidates sharing a hash form a bucket, in Lp order; only members of
	// one bucket are compared. Buckets are disjoint and merging within one
	// leaves every other bucket's adjacency untouched (Lp members were purged
	// from all Lp lists above), so the order buckets are visited in does not
	// matter. Each hash maps to a slot; a slot lists its candidates in Lp
	// order, possibly from several buckets.
	mask := uint(len(s.bhead) - 1)
	slot := func(hash int) int { return int(uint(hash) & mask) }
	s.bnext = grow(s.bnext, len(cands))
	for k := len(cands) - 1; k >= 0; k-- {
		b := slot(cands[k].hash)
		s.bnext[k] = s.bhead[b]
		s.bhead[b] = k
	}
	for k := range cands {
		b := slot(cands[k].hash)
		first := s.bhead[b]
		if first < 0 {
			continue // slot done
		}
		s.bhead[b] = -1
		for i := first; i >= 0; i = s.bnext[i] {
			vi := cands[i].v
			if s.role[vi] != roleAlive {
				continue
			}
			for j := s.bnext[i]; j >= 0; j = s.bnext[j] {
				vj := cands[j].v
				if cands[j].hash != cands[i].hash || s.role[vj] != roleAlive || s.halo[vi] != s.halo[vj] {
					continue
				}
				if s.indistinguishable(vi, vj) {
					// Absorb vj into vi: vj's weight moves from vi's external
					// degree (vj was reachable through element p) to vi itself.
					wj := s.w[vj]
					s.w[vi] += wj
					s.w[vj] = 0
					s.role[vj] = roleAbsorbed
					s.next[s.tail[vi]] = s.head[vj]
					s.tail[vi] = s.tail[vj]
					s.deg[vi] -= wj
				}
			}
		}
	}

	// Re-key updated interior supervariables; drop absorbed ones.
	for _, v := range lp {
		switch {
		case s.halo[v]:
		case s.role[v] == roleAlive:
			s.h.set(v, s.deg[v])
		default:
			s.h.remove(v)
		}
	}
}

// indistinguishable reports whether supervariables a and b have identical
// quotient-graph adjacency (elements and supervariables), ignoring each
// other.
func (s *amdWork) indistinguishable(a, b int) bool {
	st := s.nextStamp()
	na := 0
	for _, e := range s.elems(a) {
		if s.role[e] == roleElement && s.mark[e] != st {
			s.mark[e] = st
			na++
		}
	}
	for _, u := range s.vars(a) {
		if s.role[u] == roleAlive && u != b && s.mark[u] != st {
			s.mark[u] = st
			na++
		}
	}
	nb := 0
	for _, e := range s.elems(b) {
		if s.role[e] == roleElement {
			if s.mark[e] != st {
				return false
			}
			nb++
		}
	}
	for _, u := range s.vars(b) {
		if s.role[u] == roleAlive && u != a {
			if s.mark[u] != st {
				return false
			}
			nb++
		}
	}
	return na == nb
}
