package hypergraph

import "fmt"

// Directed hypergraph support (§II-A): "For a directed hypergraph, the
// incident vertices of a directed hyperedge can be divided into a source
// vertex set and a destination vertex set." The paper's evaluation treats
// all hypergraphs as undirected, but ChGraph itself "supports both directed
// and undirected hypergraphs".
//
// A directed hypergraph is represented with the same two CSR structures the
// engines consume, made asymmetric:
//
//   - the vertex-side CSR (vertex_offset / incident_hyperedge) lists, for
//     each vertex, the hyperedges it is a SOURCE of — the hyperedge
//     computation phase propagates v's value into exactly those;
//   - the hyperedge-side CSR (hyperedge_offset / incident_vertex) lists,
//     for each hyperedge, its DESTINATION vertices — the vertex computation
//     phase updates exactly those.
//
// Every engine works unchanged on this representation: direction is a
// property of the stored adjacency, not of the execution model.

// BuildDirected constructs a directed hypergraph from per-hyperedge source
// and destination vertex sets. srcs and dsts must have equal length (one
// entry per hyperedge); a vertex may appear in both sets of one hyperedge.
func BuildDirected(numV uint32, srcs, dsts [][]uint32) (*Bipartite, error) {
	if len(srcs) != len(dsts) {
		return nil, fmt.Errorf("hypergraph: %d source sets vs %d destination sets", len(srcs), len(dsts))
	}
	// Hyperedge side: destination vertices; vertex side: the hyperedges
	// each vertex sources.
	hOff, hFlat, err := flattenPins(numV, dsts, "destination")
	if err != nil {
		return nil, err
	}
	srcOff, srcFlat, err := flattenPins(numV, srcs, "source")
	if err != nil {
		return nil, err
	}
	vOff, vFlat := transpose(numV, srcOff, srcFlat)
	return newBipartite(numV, uint32(len(srcs)), hOff, hFlat, vOff, vFlat, true), nil
}

// Directed reports whether the hypergraph was built with BuildDirected
// (asymmetric incidence).
func (g *Bipartite) Directed() bool { return g.directed }

// SourceHyperedges returns the hyperedges vertex v sources (alias of
// IncidentHyperedges, named for directed readers).
func (g *Bipartite) SourceHyperedges(v uint32) []uint32 { return g.IncidentHyperedges(v) }

// DestinationVertices returns hyperedge h's destination set (alias of
// IncidentVertices, named for directed readers).
func (g *Bipartite) DestinationVertices(h uint32) []uint32 { return g.IncidentVertices(h) }
