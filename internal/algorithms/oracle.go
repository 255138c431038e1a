package algorithms

import (
	"container/heap"
	"fmt"

	"chgraph/internal/hypergraph"
)

// This file holds simple, obviously-correct sequential reference
// implementations ("oracles") of the algorithms, used by the test suite to
// validate every execution engine: index-ordered, software GLA,
// hardware-modelled ChGraph, HATS-V, prefetcher and reordering runs must all
// reproduce the oracle outputs.

// adjacency decodes g's two incidence sides once for an oracle's many
// reads: incV(h) lists hyperedge h's vertices, incH(v) vertex v's
// hyperedges.
func adjacency(g *hypergraph.Bipartite) (incV, incH func(uint32) []uint32) {
	return g.PackedH().Unpack().List, g.PackedV().Unpack().List
}

// OracleBFS returns vertex distances from src (one hyperedge hop = 1).
func OracleBFS(g *hypergraph.Bipartite, src uint32) []float64 {
	incV, incH := adjacency(g)
	distV := make([]float64, g.NumVertices())
	distH := make([]float64, g.NumHyperedges())
	for i := range distV {
		distV[i] = Infinity
	}
	for i := range distH {
		distH[i] = Infinity
	}
	src %= g.NumVertices()
	distV[src] = 0
	frontier := []uint32{src}
	for len(frontier) > 0 {
		var nextH []uint32
		for _, v := range frontier {
			for _, h := range incH(v) {
				if distV[v] < distH[h] {
					distH[h] = distV[v]
					nextH = append(nextH, h)
				}
			}
		}
		var nextV []uint32
		for _, h := range nextH {
			for _, v := range incV(h) {
				if distH[h]+1 < distV[v] {
					distV[v] = distH[h] + 1
					nextV = append(nextV, v)
				}
			}
		}
		frontier = nextV
	}
	return distV
}

// OraclePR returns vertex ranks after the given iterations of the
// Algorithm 1 PageRank recurrence with damping alpha.
func OraclePR(g *hypergraph.Bipartite, alpha float64, iterations int) []float64 {
	incV, incH := adjacency(g)
	nV := g.NumVertices()
	nH := g.NumHyperedges()
	vv := make([]float64, nV)
	hv := make([]float64, nH)
	for i := range vv {
		vv[i] = 1 / float64(nV)
	}
	for it := 0; it < iterations; it++ {
		for i := range hv {
			hv[i] = 0
		}
		for v := uint32(0); v < nV; v++ {
			for _, h := range incH(v) {
				hv[h] += vv[v] / float64(g.VertexDegree(v))
			}
		}
		next := make([]float64, nV)
		for h := uint32(0); h < nH; h++ {
			for _, v := range incV(h) {
				next[v] += (1-alpha)/(float64(nV)*float64(g.VertexDegree(v))) + alpha*hv[h]/float64(g.HyperedgeDegree(h))
			}
		}
		vv = next
	}
	return vv
}

// OracleCC returns per-vertex component labels (the minimum vertex id
// reachable through hyperedges).
func OracleCC(g *hypergraph.Bipartite) []float64 {
	incV := g.PackedH().Unpack().List
	parent := make([]uint32, g.NumVertices())
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b uint32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if ra < rb {
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	for h := uint32(0); h < g.NumHyperedges(); h++ {
		vs := incV(h)
		for i := 1; i < len(vs); i++ {
			union(vs[0], vs[i])
		}
	}
	// Component label = minimum member id; path-compress to roots, then
	// map roots to their minimum member.
	minOf := make(map[uint32]uint32)
	for v := uint32(0); v < g.NumVertices(); v++ {
		r := find(v)
		if m, ok := minOf[r]; !ok || v < m {
			minOf[r] = v
		}
	}
	out := make([]float64, g.NumVertices())
	for v := uint32(0); v < g.NumVertices(); v++ {
		out[v] = float64(minOf[find(v)])
	}
	return out
}

// OracleSSSP returns Dijkstra distances from src using the SSSP edge
// weights.
func OracleSSSP(g *hypergraph.Bipartite, src uint32) []float64 {
	incV, incH := adjacency(g)
	var alg SSSP
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Infinity
	}
	src %= g.NumVertices()
	dist[src] = 0
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, h := range incH(it.v) {
			w := alg.Weight(h)
			for _, u := range incV(h) {
				if nd := it.d + w; nd < dist[u] {
					dist[u] = nd
					heap.Push(pq, distItem{u, nd})
				}
			}
		}
	}
	return dist
}

type distItem struct {
	v uint32
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// OracleKCore returns per-vertex coreness under the same peeling rule as
// KCore (hyperedges die below two alive vertices; depth capped at kMax).
func OracleKCore(g *hypergraph.Bipartite, kMax int) []float64 {
	incV, incH := adjacency(g)
	nV, nH := g.NumVertices(), g.NumHyperedges()
	aliveV := make([]bool, nV)
	aliveH := make([]bool, nH)
	hCount := make([]int, nH)
	vDeg := make([]int, nV)
	for h := uint32(0); h < nH; h++ {
		hCount[h] = len(incV(h))
		aliveH[h] = hCount[h] >= 2
	}
	for v := uint32(0); v < nV; v++ {
		aliveV[v] = true
		for _, h := range incH(v) {
			if aliveH[h] {
				vDeg[v]++
			}
		}
	}
	core := make([]float64, nV)
	for k := 1; k <= kMax; k++ {
		for {
			removed := false
			for v := uint32(0); v < nV; v++ {
				if !aliveV[v] || vDeg[v] >= k {
					continue
				}
				aliveV[v] = false
				core[v] = float64(k - 1)
				removed = true
				for _, h := range incH(v) {
					if !aliveH[h] {
						continue
					}
					hCount[h]--
					if hCount[h] < 2 {
						aliveH[h] = false
						for _, u := range incV(h) {
							if aliveV[u] {
								vDeg[u]--
							}
						}
					}
				}
			}
			if !removed {
				break
			}
		}
		alive := false
		for v := uint32(0); v < nV; v++ {
			if aliveV[v] {
				alive = true
				break
			}
		}
		if !alive {
			return core
		}
	}
	for v := uint32(0); v < nV; v++ {
		if aliveV[v] {
			core[v] = float64(kMax)
		}
	}
	return core
}

// OracleBC returns single-source Brandes dependencies on the bipartite
// level DAG (the quantity BC exposes as Centrality).
func OracleBC(g *hypergraph.Bipartite, src uint32) []float64 {
	incV, incH := adjacency(g)
	nV, nH := g.NumVertices(), g.NumHyperedges()
	src %= nV
	levelV := make([]int32, nV)
	levelH := make([]int32, nH)
	sigmaV := make([]float64, nV)
	sigmaH := make([]float64, nH)
	for i := range levelV {
		levelV[i] = -1
	}
	for i := range levelH {
		levelH[i] = -1
	}
	levelV[src] = 0
	sigmaV[src] = 1
	levels := [][]uint32{{src}}
	frontier := []uint32{src}
	for lvl := int32(0); len(frontier) > 0; lvl++ {
		var hs []uint32
		for _, v := range frontier {
			for _, h := range incH(v) {
				if levelH[h] < 0 {
					levelH[h] = lvl
					hs = append(hs, h)
				}
				if levelH[h] == lvl {
					sigmaH[h] += sigmaV[v]
				}
			}
		}
		var next []uint32
		for _, h := range hs {
			for _, v := range incV(h) {
				if levelV[v] < 0 {
					levelV[v] = lvl + 1
					next = append(next, v)
				}
				if levelV[v] == lvl+1 {
					sigmaV[v] += sigmaH[h]
				}
			}
		}
		if len(next) > 0 {
			levels = append(levels, next)
		}
		frontier = next
	}
	deltaV := make([]float64, nV)
	deltaH := make([]float64, nH)
	for li := len(levels) - 1; li >= 1; li-- {
		for _, v := range levels[li] {
			for _, h := range incH(v) {
				if levelH[h] == levelV[v]-1 && sigmaV[v] > 0 {
					deltaH[h] += sigmaH[h] / sigmaV[v] * (1 + deltaV[v])
				}
			}
		}
		for _, v := range levels[li-1] {
			for _, h := range incH(v) {
				if levelH[h] == levelV[v] && sigmaH[h] > 0 {
					deltaV[v] += sigmaV[v] / sigmaH[h] * deltaH[h]
				}
			}
		}
	}
	deltaV[src] = 0
	return deltaV
}

// ValidateMIS checks that the MIS encoded in vertexVal (MISIn/MISOut/
// MISUndecided) is a valid maximal strong independent set of g: no
// undecided vertices remain, no hyperedge contains two selected vertices,
// and every excluded vertex shares a hyperedge with a selected one.
func ValidateMIS(g *hypergraph.Bipartite, vertexVal []float64) error {
	incV, incH := adjacency(g)
	for v := uint32(0); v < g.NumVertices(); v++ {
		if vertexVal[v] == MISUndecided {
			return fmt.Errorf("mis: vertex %d undecided", v)
		}
	}
	for h := uint32(0); h < g.NumHyperedges(); h++ {
		in := -1
		for _, v := range incV(h) {
			if vertexVal[v] == MISIn {
				if in >= 0 {
					return fmt.Errorf("mis: hyperedge %d contains selected vertices %d and %d", h, in, v)
				}
				in = int(v)
			}
		}
	}
	for v := uint32(0); v < g.NumVertices(); v++ {
		if vertexVal[v] != MISOut {
			continue
		}
		ok := false
	outer:
		for _, h := range incH(v) {
			for _, u := range incV(h) {
				if u != v && vertexVal[u] == MISIn {
					ok = true
					break outer
				}
			}
		}
		if !ok {
			return fmt.Errorf("mis: vertex %d excluded without a selected neighbor", v)
		}
	}
	return nil
}
