// Package reorder implements the spatial-locality reordering baseline of
// Figure 24: a preprocessing pass that renumbers vertices so that the
// incident vertices of each hyperedge receive close-by ids, improving
// spatial locality for index-ordered processing. The paper finds its
// reordering overhead offsets the locality gains; we model the pass itself
// (a first-touch traversal) and count its work so the experiment harness can
// charge it as preprocessing time.
package reorder

import (
	"slices"

	"chgraph/internal/hypergraph"
)

// Result is a reordered hypergraph plus accounting.
type Result struct {
	// G is the renumbered hypergraph.
	G *hypergraph.Bipartite
	// VertexPerm maps old vertex id -> new vertex id.
	VertexPerm []uint32
	// Ops counts the work units of the reordering pass (one per bipartite
	// edge touched plus one per vertex assignment), convertible to cycles
	// by the preprocessing cost model.
	Ops uint64
}

// Vertices renumbers vertices in first-touch order of an index-ordered
// hyperedge sweep: the incident vertices of each hyperedge get consecutive
// new ids the first time they are seen, packing them onto shared cache
// lines.
func Vertices(g *hypergraph.Bipartite) (*Result, error) {
	numV := g.NumVertices()
	perm := make([]uint32, numV)
	assigned := make([]bool, numV)
	var next uint32
	var ops uint64
	pins := g.PackedH().Unpack()
	for h := uint32(0); h < g.NumHyperedges(); h++ {
		for _, v := range pins.List(h) {
			ops++
			if !assigned[v] {
				assigned[v] = true
				perm[v] = next
				next++
				ops++
			}
		}
	}
	// Untouched (isolated) vertices keep their relative order at the end.
	for v := uint32(0); v < numV; v++ {
		if !assigned[v] {
			perm[v] = next
			next++
			ops++
		}
	}

	hs := make([][]uint32, g.NumHyperedges())
	for h := uint32(0); h < g.NumHyperedges(); h++ {
		old := pins.List(h)
		nv := make([]uint32, len(old))
		for i, v := range old {
			nv[i] = perm[v]
			ops++
		}
		slices.Sort(nv) // index-ordered adjacency, packed once by Build
		hs[h] = nv
	}
	ng, err := hypergraph.Build(numV, hs)
	if err != nil {
		return nil, err
	}
	return &Result{G: ng, VertexPerm: perm, Ops: ops}, nil
}
