// Package hypergraph provides the bipartite CSR representation of
// hypergraphs used throughout the system (Figure 4 of the paper), plus the
// structural statistics the paper's motivation relies on (degrees, overlap
// ratios) and chunk partitioning for multicore processing.
//
// A hypergraph G = <V, H> is stored as two mirrored CSR structures: for each
// hyperedge its incident vertices (hyperedge_offset / incident_vertex), and
// for each vertex its incident hyperedges (vertex_offset /
// incident_hyperedge). An ordinary graph is the special case where every
// hyperedge has exactly two incident vertices.
package hypergraph

import (
	"errors"
	"fmt"
	"sort"
)

// Bipartite is the CSR-based bipartite representation of a hypergraph.
// It is immutable after construction.
type Bipartite struct {
	numV uint32
	numH uint32

	// hOff[h]..hOff[h+1] index hAdj: the incident vertices of hyperedge h.
	hOff []uint32
	hAdj []uint32
	// vOff[v]..vOff[v+1] index vAdj: the incident hyperedges of vertex v.
	vOff []uint32
	vAdj []uint32

	// directed marks an asymmetric (source/destination) incidence built by
	// BuildDirected.
	directed bool

	// pack caches the compressed adjacency (compress.go). On a
	// compressed-only graph (hAdj nil) it is the sole incidence storage;
	// on a raw graph it is a lazily built cache (EnsurePacked). A pointer
	// so Bipartite stays copyable despite the pair's mutex.
	pack *packedPair
}

// Build constructs a Bipartite from per-hyperedge incident vertex lists.
// numV must exceed every vertex id referenced. Duplicate vertices within a
// hyperedge are dropped. Empty hyperedges are allowed (degree 0).
func Build(numV uint32, hyperedges [][]uint32) (*Bipartite, error) {
	numH := uint32(len(hyperedges))
	g := &Bipartite{numV: numV, numH: numH, pack: &packedPair{}}

	g.hOff = make([]uint32, numH+1)
	total := 0
	seen := make(map[uint32]struct{}, 16)
	dedup := make([][]uint32, numH)
	for i, hs := range hyperedges {
		clear(seen)
		out := make([]uint32, 0, len(hs))
		for _, v := range hs {
			if v >= numV {
				return nil, fmt.Errorf("hypergraph: hyperedge %d references vertex %d >= numV %d", i, v, numV)
			}
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		dedup[i] = out
		total += len(out)
	}

	g.hAdj = make([]uint32, 0, total)
	vdeg := make([]uint32, numV)
	for i, hs := range dedup {
		g.hOff[i] = uint32(len(g.hAdj))
		g.hAdj = append(g.hAdj, hs...)
		for _, v := range hs {
			vdeg[v]++
		}
	}
	g.hOff[numH] = uint32(len(g.hAdj))

	// Mirror into the vertex-side CSR.
	g.vOff = make([]uint32, numV+1)
	var acc uint32
	for v := uint32(0); v < numV; v++ {
		g.vOff[v] = acc
		acc += vdeg[v]
	}
	g.vOff[numV] = acc
	g.vAdj = make([]uint32, acc)
	cursor := make([]uint32, numV)
	copy(cursor, g.vOff[:numV])
	for h := uint32(0); h < numH; h++ {
		for _, v := range g.hAdj[g.hOff[h]:g.hOff[h+1]] {
			g.vAdj[cursor[v]] = h
			cursor[v]++
		}
	}
	return g, nil
}

// MustBuild is Build but panics on error; for tests and generators whose
// inputs are known valid.
func MustBuild(numV uint32, hyperedges [][]uint32) *Bipartite {
	g, err := Build(numV, hyperedges)
	if err != nil {
		panic(err)
	}
	return g
}

// NumVertices returns |V|.
func (g *Bipartite) NumVertices() uint32 { return g.numV }

// NumHyperedges returns |H|.
func (g *Bipartite) NumHyperedges() uint32 { return g.numH }

// NumBipartiteEdges returns the number of bipartite edges ("#BEdges" in
// Table II), i.e. the total incidence count.
func (g *Bipartite) NumBipartiteEdges() uint64 { return uint64(g.hOff[g.numH]) }

// HyperedgeDegree returns deg(h), the number of incident vertices of h.
func (g *Bipartite) HyperedgeDegree(h uint32) uint32 { return g.hOff[h+1] - g.hOff[h] }

// VertexDegree returns deg(v), the number of incident hyperedges of v.
func (g *Bipartite) VertexDegree(v uint32) uint32 { return g.vOff[v+1] - g.vOff[v] }

// IncidentVertices returns N(h), the incident vertex slice of hyperedge h.
// On a raw graph the returned slice aliases internal storage and must not be
// modified; on a compressed-only graph it is a fresh decoded copy (hot loops
// should use an AdjCursor instead).
func (g *Bipartite) IncidentVertices(h uint32) []uint32 {
	if g.hAdj == nil {
		if g.Compressed() {
			return g.pack.h.decodeList(h, nil)
		}
		return nil
	}
	return g.hAdj[g.hOff[h]:g.hOff[h+1]]
}

// IncidentHyperedges returns N(v), the incident hyperedge slice of vertex v.
// Aliasing rules match IncidentVertices.
func (g *Bipartite) IncidentHyperedges(v uint32) []uint32 {
	if g.vAdj == nil {
		if g.Compressed() {
			return g.pack.v.decodeList(v, nil)
		}
		return nil
	}
	return g.vAdj[g.vOff[v]:g.vOff[v+1]]
}

// HyperedgeOffset returns the CSR offset of hyperedge h into the
// incident-vertex array; used by engines to model offset-array accesses.
func (g *Bipartite) HyperedgeOffset(h uint32) uint32 { return g.hOff[h] }

// VertexOffset returns the CSR offset of vertex v into the
// incident-hyperedge array.
func (g *Bipartite) VertexOffset(v uint32) uint32 { return g.vOff[v] }

// StorageBytes returns the in-memory footprint of the bipartite CSR arrays
// plus one 8-byte value slot per vertex and hyperedge (the representation
// Hygra keeps, used as the Figure 21(b) baseline).
func (g *Bipartite) StorageBytes() uint64 {
	values := 8 * uint64(g.numV+g.numH)
	if g.Compressed() {
		return g.AdjacencyBytes() + values
	}
	csr := 4 * uint64(len(g.hOff)+len(g.hAdj)+len(g.vOff)+len(g.vAdj))
	return csr + values
}

// Validate checks internal CSR consistency; used by property tests.
func (g *Bipartite) Validate() error {
	if len(g.hOff) != int(g.numH)+1 || len(g.vOff) != int(g.numV)+1 {
		return errors.New("hypergraph: offset array length mismatch")
	}
	if !g.Compressed() && (g.hOff[g.numH] != uint32(len(g.hAdj)) || g.vOff[g.numV] != uint32(len(g.vAdj))) {
		return errors.New("hypergraph: trailing offset mismatch")
	}
	for h := uint32(0); h < g.numH; h++ {
		if g.hOff[h] > g.hOff[h+1] {
			return fmt.Errorf("hypergraph: hOff not monotone at %d", h)
		}
		for _, v := range g.IncidentVertices(h) {
			if v >= g.numV {
				return fmt.Errorf("hypergraph: incident vertex %d out of range", v)
			}
		}
	}
	for v := uint32(0); v < g.numV; v++ {
		if g.vOff[v] > g.vOff[v+1] {
			return fmt.Errorf("hypergraph: vOff not monotone at %d", v)
		}
		for _, h := range g.IncidentHyperedges(v) {
			if h >= g.numH {
				return fmt.Errorf("hypergraph: incident hyperedge %d out of range", h)
			}
		}
	}
	// Mirror consistency: every (h, v) incidence appears in both CSRs.
	return g.checkMirror(g.IncidentVertices, g.IncidentHyperedges)
}

// Overlapped reports whether hyperedges a and b share at least one vertex
// (Definition in §II-A). It runs in O(deg(a)+deg(b)) using a merge over the
// (unsorted) adjacency via a map for small degrees.
func (g *Bipartite) Overlapped(a, b uint32) bool {
	return g.OverlapSize(a, b) > 0
}

// OverlapSize returns |N(a) ∩ N(b)| for hyperedges a and b.
func (g *Bipartite) OverlapSize(a, b uint32) uint32 {
	na, nb := g.IncidentVertices(a), g.IncidentVertices(b)
	if len(na) > len(nb) {
		na, nb = nb, na
	}
	set := make(map[uint32]struct{}, len(na))
	for _, v := range na {
		set[v] = struct{}{}
	}
	var n uint32
	for _, v := range nb {
		if _, ok := set[v]; ok {
			n++
		}
	}
	return n
}

// Chunk is a half-open index range [Lo, Hi) of hyperedges or vertices
// assigned to one core for parallel processing (Figure 4(c)).
type Chunk struct {
	Lo, Hi uint32
}

// Len returns the number of elements in the chunk.
func (c Chunk) Len() uint32 { return c.Hi - c.Lo }

// Chunks splits n elements into parts contiguous chunks balanced to within
// one element, in the style of Hygra's static chunking.
func Chunks(n uint32, parts int) []Chunk {
	if parts <= 0 {
		parts = 1
	}
	out := make([]Chunk, parts)
	base := n / uint32(parts)
	rem := n % uint32(parts)
	var lo uint32
	for i := range out {
		size := base
		if uint32(i) < rem {
			size++
		}
		out[i] = Chunk{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// BalancedChunks splits n elements into parts contiguous chunks balancing
// the supplied per-element weight (e.g. degree) rather than element count.
func BalancedChunks(n uint32, parts int, weight func(uint32) uint32) []Chunk {
	if parts <= 0 {
		parts = 1
	}
	var total uint64
	for i := uint32(0); i < n; i++ {
		total += uint64(weight(i))
	}
	out := make([]Chunk, 0, parts)
	target := total / uint64(parts)
	var lo uint32
	var acc uint64
	for i := uint32(0); i < n; i++ {
		acc += uint64(weight(i))
		if acc >= target && len(out) < parts-1 {
			out = append(out, Chunk{Lo: lo, Hi: i + 1})
			lo = i + 1
			acc = 0
		}
	}
	out = append(out, Chunk{Lo: lo, Hi: n})
	for len(out) < parts {
		out = append(out, Chunk{Lo: n, Hi: n})
	}
	return out
}

// FromGraphEdges builds the hypergraph embedding of an ordinary graph:
// every edge (u, w) becomes a 2-vertex hyperedge {u, w} (§II-A: "the
// ordinary graph is a special case of the hypergraph"). Self loops are
// dropped; duplicate edges are kept (parallel hyperedges).
func FromGraphEdges(numV uint32, edges [][2]uint32) (*Bipartite, error) {
	hs := make([][]uint32, 0, len(edges))
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		hs = append(hs, []uint32{e[0], e[1]})
	}
	return Build(numV, hs)
}

// SortAdjacency sorts each hyperedge's incident vertex list and each
// vertex's incident hyperedge list in ascending order, in place. Generators
// call this to give deterministic, index-ordered adjacency as produced by
// standard CSR construction.
func (g *Bipartite) SortAdjacency() {
	if g.Compressed() {
		// Sorting permutes within lists only, so the shared offset arrays
		// are untouched; decode, sort, repack in place of the old payload.
		raw := g.Decompress()
		raw.SortAdjacency()
		g.pack.mu.Lock()
		g.pack.h = packAdjacency(g.hOff, raw.hAdj)
		g.pack.v = packAdjacency(g.vOff, raw.vAdj)
		g.pack.mu.Unlock()
		return
	}
	for h := uint32(0); h < g.numH; h++ {
		s := g.hAdj[g.hOff[h]:g.hOff[h+1]]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	for v := uint32(0); v < g.numV; v++ {
		s := g.vAdj[g.vOff[v]:g.vOff[v+1]]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	// A stale pack cache would decode the pre-sort lists.
	if g.pack != nil {
		g.pack.mu.Lock()
		g.pack.h, g.pack.v = nil, nil
		g.pack.mu.Unlock()
	}
}
