package order

// The map-based Halo-AMD this package shipped before its quotient graph moved
// onto flat arrays, kept verbatim as the reference FuzzHaloAMD and
// TestHaloAMDMatchesReference compare the production code against: both
// must pick the same pivots, absorb the same supervariables and emit the
// same order.

import (
	"container/heap"

	"github.com/pastix-go/pastix/internal/graph"
)

// refAMDState holds the quotient-graph data of one AMD run.
//
// A vertex id plays one of three roles over time: an alive supervariable, an
// absorbed supervariable (merged into another that carries its weight), or an
// element (an eliminated pivot whose clique is represented by the list of
// supervariables it reaches). Adjacency lists are purged lazily.
type refAMDState struct {
	n    int
	g    *graph.Graph
	halo []bool // halo[v]: v participates in degrees but is never eliminated

	role   []int8  // refAlive, refAbsorbed, refElement
	w      []int   // supervariable weight (original vertex count), 0 once absorbed
	adjS   [][]int // supervariable-supervariable adjacency (may hold stale ids)
	adjE   [][]int // elements adjacent to a supervariable (may hold stale ids)
	elemL  [][]int // for an element, the supervariables it reaches (may be stale)
	dead   []bool  // element absorbed into a newer element
	deg    []int   // approximate external degree (weighted)
	merged [][]int // original vertices carried by a supervariable (incl. itself)

	mark  []int // generation marks
	stamp int

	h refDegHeap
}

const (
	refAlive int8 = iota
	refAbsorbed
	refElement
)

type refDegItem struct {
	deg, v int
}

type refDegHeap []refDegItem

func (h refDegHeap) Len() int { return len(h) }
func (h refDegHeap) Less(i, j int) bool {
	if h[i].deg != h[j].deg {
		return h[i].deg < h[j].deg
	}
	return h[i].v < h[j].v // deterministic tie-break
}
func (h refDegHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refDegHeap) Push(x any)         { *h = append(*h, x.(refDegItem)) }
func (h *refDegHeap) Pop() any           { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (s *refAMDState) refPush(v int)     { heap.Push(&s.h, refDegItem{s.deg[v], v}) }
func (s *refAMDState) refNextStamp() int { s.stamp++; return s.stamp }

// refHaloAMD orders the interior vertices [0, nInner) of g by approximate
// minimum degree. Vertices [nInner, g.N) form the halo: they contribute to
// the degrees of interior vertices (so that boundary vertices are not
// mistaken for low-degree ones) but are never eliminated and do not appear
// in the result. With nInner == g.N this is plain AMD.
func refHaloAMD(g *graph.Graph, nInner int) *AMDResult {
	n := g.N
	s := &refAMDState{
		n: n, g: g,
		halo:   make([]bool, n),
		role:   make([]int8, n),
		w:      make([]int, n),
		adjS:   make([][]int, n),
		adjE:   make([][]int, n),
		elemL:  make([][]int, n),
		dead:   make([]bool, n),
		deg:    make([]int, n),
		merged: make([][]int, n),
		mark:   make([]int, n),
	}
	for v := 0; v < n; v++ {
		s.halo[v] = v >= nInner
		s.w[v] = g.Weight(v)
		s.adjS[v] = append([]int(nil), g.Neighbors(v)...)
		s.merged[v] = []int{v}
		d := 0
		for _, u := range g.Neighbors(v) {
			d += g.Weight(u)
		}
		s.deg[v] = d
		if !s.halo[v] {
			s.refPush(v)
		}
	}

	res := &AMDResult{}
	remaining := nInner
	for remaining > 0 {
		p := s.refPopPivot()
		emitted := s.refEliminate(p)
		res.Order = append(res.Order, emitted...)
		res.Supernodes = append(res.Supernodes, len(emitted))
		remaining -= len(emitted)
	}
	return res
}

// refPopPivot pops heap entries until one matches a live interior supervariable
// with an up-to-date degree.
func (s *refAMDState) refPopPivot() int {
	for {
		it := heap.Pop(&s.h).(refDegItem)
		v := it.v
		if s.role[v] == refAlive && !s.halo[v] && s.deg[v] == it.deg {
			return v
		}
	}
}

// refPurgeS removes dead entries and entries marked with curStamp from adjS[v].
func (s *refAMDState) refPurgeS(v, curStamp int) {
	out := s.adjS[v][:0]
	for _, u := range s.adjS[v] {
		if s.role[u] == refAlive && s.mark[u] != curStamp && u != v {
			out = append(out, u)
		}
	}
	s.adjS[v] = out
}

// refEliminate turns pivot p into an element, updates degrees of its
// neighbourhood, merges refIndistinguishable supervariables, and returns the
// original interior vertices ordered by this step.
func (s *refAMDState) refEliminate(p int) []int {
	// --- Build Lp = alive supervariables reachable from p. ---
	st := s.refNextStamp()
	s.mark[p] = st
	var lp []int
	addLp := func(u int) {
		if s.role[u] == refAlive && s.mark[u] != st {
			s.mark[u] = st
			lp = append(lp, u)
		}
	}
	for _, u := range s.adjS[p] {
		addLp(u)
	}
	for _, e := range s.adjE[p] {
		if s.role[e] != refElement || s.dead[e] {
			continue
		}
		for _, u := range s.elemL[e] {
			addLp(u)
		}
		s.dead[e] = true // absorbed into the new element p
	}

	// --- p becomes element with list Lp. ---
	s.role[p] = refElement
	s.elemL[p] = lp
	s.adjS[p] = nil
	s.adjE[p] = nil
	wp := 0
	for _, u := range lp {
		wp += s.w[u]
	}

	// --- Compute |L_e \ Lp| (weighted) for elements touching Lp. ---
	// est[e] starts at |L_e| and is decremented by w(v) for each v in Lp∩L_e.
	est := make(map[int]int)
	for _, v := range lp {
		for _, e := range s.adjE[v] {
			if s.role[e] != refElement || s.dead[e] {
				continue
			}
			if _, ok := est[e]; !ok {
				t := 0
				for _, u := range s.elemL[e] {
					if s.role[u] == refAlive {
						t += s.w[u]
					}
				}
				est[e] = t
			}
			est[e] -= s.w[v]
		}
	}

	// --- Update each v in Lp. ---
	type hashed struct{ v, hash int }
	var candidates []hashed
	for _, v := range lp {
		// Purge stale elements; keep live ones distinct from p.
		eout := s.adjE[v][:0]
		for _, e := range s.adjE[v] {
			if s.role[e] == refElement && !s.dead[e] && e != p {
				eout = append(eout, e)
			}
		}
		s.adjE[v] = append(eout, p)

		// adjS[v] loses members of Lp (they are reachable through element p)
		// and dead ids.
		s.refPurgeS(v, st)

		// Approximate external degree.
		dS := 0
		for _, u := range s.adjS[v] {
			dS += s.w[u]
		}
		dE := wp - s.w[v]
		hash := p
		for _, e := range s.adjE[v] {
			if e != p {
				if x := est[e]; x > 0 {
					dE += x
				}
			}
			hash += e
		}
		nd := dS + dE
		if nd > s.deg[v]+wp-s.w[v] {
			nd = s.deg[v] + wp - s.w[v]
		}
		s.deg[v] = nd

		for _, u := range s.adjS[v] {
			hash += u
		}
		candidates = append(candidates, hashed{v, hash})
	}

	// --- Indistinguishable supervariable detection within Lp. ---
	byHash := make(map[int][]int)
	for _, c := range candidates {
		byHash[c.hash] = append(byHash[c.hash], c.v)
	}
	for _, bucket := range byHash {
		for i := 0; i < len(bucket); i++ {
			vi := bucket[i]
			if s.role[vi] != refAlive {
				continue
			}
			for j := i + 1; j < len(bucket); j++ {
				vj := bucket[j]
				if s.role[vj] != refAlive || s.halo[vi] != s.halo[vj] {
					continue
				}
				if s.refIndistinguishable(vi, vj) {
					// Absorb vj into vi: vj's weight moves from vi's external
					// degree (vj was reachable through element p) to vi itself.
					wj := s.w[vj]
					s.w[vi] += wj
					s.w[vj] = 0
					s.role[vj] = refAbsorbed
					s.merged[vi] = append(s.merged[vi], s.merged[vj]...)
					s.merged[vj] = nil
					s.deg[vi] -= wj
				}
			}
		}
	}

	// Requeue updated interior supervariables.
	for _, v := range lp {
		if s.role[v] == refAlive && !s.halo[v] {
			s.refPush(v)
		}
	}

	// --- Emit ordered original vertices of the pivot supervariable. ---
	out := s.merged[p]
	s.merged[p] = nil
	return out
}

// refIndistinguishable reports whether supervariables a and b have identical
// quotient-graph adjacency (elements and supervariables), ignoring each
// other.
func (s *refAMDState) refIndistinguishable(a, b int) bool {
	st := s.refNextStamp()
	na := 0
	for _, e := range s.adjE[a] {
		if s.role[e] == refElement && !s.dead[e] && s.mark[e] != st {
			s.mark[e] = st
			na++
		}
	}
	for _, u := range s.adjS[a] {
		if s.role[u] == refAlive && u != b && s.mark[u] != st {
			s.mark[u] = st
			na++
		}
	}
	nb := 0
	for _, e := range s.adjE[b] {
		if s.role[e] == refElement && !s.dead[e] {
			if s.mark[e] != st {
				return false
			}
			nb++
		}
	}
	for _, u := range s.adjS[b] {
		if s.role[u] == refAlive && u != a {
			if s.mark[u] != st {
				return false
			}
			nb++
		}
	}
	return na == nb
}
