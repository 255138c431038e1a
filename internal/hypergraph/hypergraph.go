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
)

// Bipartite is the CSR-based bipartite representation of a hypergraph.
// Its incidence lists are held packed (compress.go); the entry-offset
// arrays are plain. It is immutable after construction, except that
// SortAdjacency may reorder lists in place.
type Bipartite struct {
	numV uint32
	numH uint32

	// hOff[h]..hOff[h+1] index the incident vertices of hyperedge h, held
	// in h; vOff[v]..vOff[v+1] index the incident hyperedges of vertex v,
	// held in v. Each PackedAdj aliases its offset array.
	hOff, vOff []uint32
	h, v       *PackedAdj

	// directed marks an asymmetric (source/destination) incidence built by
	// BuildDirected.
	directed bool
}

// newBipartite packs a graph from flat CSR sides. The flat arrays are
// only read.
func newBipartite(numV, numH uint32, hOff, hFlat, vOff, vFlat []uint32, directed bool) *Bipartite {
	return &Bipartite{
		numV: numV, numH: numH,
		hOff: hOff, vOff: vOff,
		h: packAdjacency(hOff, hFlat), v: packAdjacency(vOff, vFlat),
		directed: directed,
	}
}

// flattenPins concatenates per-hyperedge vertex lists into one CSR side,
// dropping repeated vertices within a list (first occurrences kept, in
// order) and range-checking every id against numV. what names the lists
// in errors ("references", "source", "destination").
func flattenPins(numV uint32, lists [][]uint32, what string) (off, flat []uint32, err error) {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	off = make([]uint32, len(lists)+1)
	flat = make([]uint32, 0, total)
	// mark[v] == i+1 once list i has taken v.
	mark := make([]uint32, numV)
	for i, l := range lists {
		off[i] = uint32(len(flat))
		for _, v := range l {
			if v >= numV {
				return nil, nil, fmt.Errorf("hypergraph: hyperedge %d %s vertex %d >= numV %d", i, what, v, numV)
			}
			if mark[v] == uint32(i)+1 {
				continue
			}
			mark[v] = uint32(i) + 1
			flat = append(flat, v)
		}
	}
	off[len(lists)] = uint32(len(flat))
	return off, flat, nil
}

// transpose builds the vertex side of numV vertices from a hyperedge-side
// CSR (a counting sort), each vertex listing its hyperedges in ascending
// order.
func transpose(numV uint32, hOff, hFlat []uint32) (off, flat []uint32) {
	off = make([]uint32, numV+1)
	for _, v := range hFlat {
		off[v+1]++
	}
	for v := uint32(0); v < numV; v++ {
		off[v+1] += off[v]
	}
	flat = make([]uint32, off[numV])
	next := append([]uint32(nil), off[:numV]...)
	for h := 0; h+1 < len(hOff); h++ {
		for _, v := range hFlat[hOff[h]:hOff[h+1]] {
			flat[next[v]] = uint32(h)
			next[v]++
		}
	}
	return off, flat
}

// Build constructs a Bipartite from per-hyperedge incident vertex lists.
// numV must exceed every vertex id referenced. Duplicate vertices within a
// hyperedge are dropped. Empty hyperedges are allowed (degree 0). Lists
// keep their given order; each vertex lists its hyperedges ascending.
func Build(numV uint32, hyperedges [][]uint32) (*Bipartite, error) {
	hOff, hFlat, err := flattenPins(numV, hyperedges, "references")
	if err != nil {
		return nil, err
	}
	vOff, vFlat := transpose(numV, hOff, hFlat)
	return newBipartite(numV, uint32(len(hyperedges)), hOff, hFlat, vOff, vFlat, false), nil
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

// IncidentVertices returns N(h), the incident vertices of hyperedge h, as
// a freshly decoded copy the caller owns. It is the cold-path accessor: hot
// loops read through an AdjCursor, bulk builders through Unpack.
func (g *Bipartite) IncidentVertices(h uint32) []uint32 { return g.h.decodeList(h) }

// IncidentHyperedges returns N(v), the incident hyperedges of vertex v, as
// a freshly decoded copy (see IncidentVertices).
func (g *Bipartite) IncidentHyperedges(v uint32) []uint32 { return g.v.decodeList(v) }

// HyperedgeOffset returns the CSR offset of hyperedge h into the
// incident-vertex array; used by engines to model offset-array accesses.
func (g *Bipartite) HyperedgeOffset(h uint32) uint32 { return g.hOff[h] }

// VertexOffset returns the CSR offset of vertex v into the
// incident-hyperedge array.
func (g *Bipartite) VertexOffset(v uint32) uint32 { return g.vOff[v] }

// StorageBytes returns the footprint of the plain bipartite CSR arrays
// (offsets plus one 4-byte id per incidence, both directions) plus one
// 8-byte value slot per vertex and hyperedge: the representation Hygra
// keeps, used as the Table II size and the Figure 21(b) baseline. It is a
// formula over the counts, independent of the packed form held.
func (g *Bipartite) StorageBytes() uint64 {
	values := 8 * uint64(g.numV+g.numH)
	csr := 4 * uint64(len(g.hOff)+len(g.vOff)+int(g.hOff[g.numH])+int(g.vOff[g.numV]))
	return csr + values
}

// Validate checks internal CSR consistency; used by property tests.
func (g *Bipartite) Validate() error {
	if len(g.hOff) != int(g.numH)+1 || len(g.vOff) != int(g.numV)+1 {
		return errors.New("hypergraph: offset array length mismatch")
	}
	hc, vc := g.h.NewCursor(), g.v.NewCursor()
	for h := uint32(0); h < g.numH; h++ {
		if g.hOff[h] > g.hOff[h+1] {
			return fmt.Errorf("hypergraph: hOff not monotone at %d", h)
		}
		for _, v := range hc.List(h) {
			if v >= g.numV {
				return fmt.Errorf("hypergraph: incident vertex %d out of range", v)
			}
		}
	}
	for v := uint32(0); v < g.numV; v++ {
		if g.vOff[v] > g.vOff[v+1] {
			return fmt.Errorf("hypergraph: vOff not monotone at %d", v)
		}
		for _, h := range vc.List(v) {
			if h >= g.numH {
				return fmt.Errorf("hypergraph: incident hyperedge %d out of range", h)
			}
		}
	}
	// Mirror consistency: every (h, v) incidence appears in both CSRs.
	return g.checkMirror(hc.List, vc.List)
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
// standard CSR construction. A side already sorted (known from its encode
// or decode walk) is kept as it is; an unsorted one is re-packed.
func (g *Bipartite) SortAdjacency() {
	g.h, g.v = g.h.sortLists(), g.v.sortLists()
}
