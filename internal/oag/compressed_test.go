package oag

import (
	"sort"
	"testing"

	"chgraph/internal/hypergraph"
)

// referenceOAG is a brute-force OAG over the plain incidence lists the cold
// accessors decode: for every node pair in one chunk, count the shared mids
// below HubSkipThreshold incidences, keep pairs at or above wMin, order by
// descending weight then ascending id, and cap at maxDeg (0 = no cap).
func referenceOAG(g *hypergraph.Bipartite, side Side, wMin uint32, maxDeg int, chunks []hypergraph.Chunk) [][]wedge {
	n, nodeList, midList := g.NumHyperedges(), g.IncidentVertices, g.IncidentHyperedges
	if side == Vertices {
		n, nodeList, midList = g.NumVertices(), g.IncidentHyperedges, g.IncidentVertices
	}
	chunkOf := chunkIndex(tiling(chunks, n), n)
	adj := make([][]wedge, n)
	for a := uint32(0); a < n; a++ {
		count := map[uint32]uint32{}
		for _, mid := range nodeList(a) {
			peers := midList(mid)
			if len(peers) > HubSkipThreshold {
				continue
			}
			for _, b := range peers {
				if b != a {
					count[b]++
				}
			}
		}
		for b, w := range count {
			if w >= wMin && chunkOf[a] == chunkOf[b] {
				adj[a] = append(adj[a], wedge{b, w})
			}
		}
		es := adj[a]
		sort.Slice(es, func(i, j int) bool {
			if es[i].w != es[j].w {
				return es[i].w > es[j].w
			}
			return es[i].b < es[j].b
		})
		if maxDeg > 0 && len(es) > maxDeg {
			adj[a] = es[:maxDeg]
		}
	}
	return adj
}

// matchesReference reports whether o holds exactly the reference lists.
func matchesReference(o *OAG, ref [][]wedge) bool {
	if o.NumNodes() != uint32(len(ref)) {
		return false
	}
	for a, es := range ref {
		ns, ws := o.Neighbors(uint32(a)), o.Weights(uint32(a))
		if len(ns) != len(es) {
			return false
		}
		for i, e := range es {
			if ns[i] != e.b || ws[i] != e.w {
				return false
			}
		}
	}
	return true
}

// TestCompressedBuildMatchesRaw pins that every build path — serial,
// parallel, chunked, capped and uncapped, both sides — decoding the packed
// graph once produces exactly the OAG a brute-force count over the raw
// incidence lists (IncidentVertices / IncidentHyperedges) gives.
func TestCompressedBuildMatchesRaw(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := randomHG(seed)
		for _, side := range []Side{Hyperedges, Vertices} {
			n := g.NumHyperedges()
			if side == Vertices {
				n = g.NumVertices()
			}
			chunks := chunksFor(n, 3)
			cases := []struct {
				name string
				got  *OAG
				ref  [][]wedge
			}{
				{"serial", build(g, side, 2, 0, nil, 1), referenceOAG(g, side, 2, 0, nil)},
				{"capped", Build(g, side, 1, nil, 1), referenceOAG(g, side, 1, DefaultMaxDegree, nil)},
				{"chunked", build(g, side, 1, 4, chunks, 1), referenceOAG(g, side, 1, 4, chunks)},
				{"parallel", build(g, side, 1, 4, chunks, 3), referenceOAG(g, side, 1, 4, chunks)},
			}
			for _, tc := range cases {
				if !matchesReference(tc.got, tc.ref) {
					t.Fatalf("seed %d side %v %s: build diverges from the brute-force reference", seed, side, tc.name)
				}
			}
		}
	}
}

// TestCompressedUpdateMatchesRaw checks the incremental updater, which
// decodes the mutated graph once and reads the old one only through mid
// degrees, against the brute-force reference on the mutated graph.
func TestCompressedUpdateMatchesRaw(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := randomHG(seed)
		old := Build(g, Hyperedges, 2, nil, 1)
		var batch hypergraph.Batch
		batch.RemoveHyperedges(0)
		batch.AddHyperedges([]uint32{0, 1, 2})
		d, err := g.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		up := Update(old, 2, Rewire{OldG: g, NewG: d.New, NodeRemap: d.HRemap, AddedNodes: d.AddedH})
		if !matchesReference(up, referenceOAG(d.New, Hyperedges, 2, DefaultMaxDegree, nil)) {
			t.Fatalf("seed %d: update diverges from the brute-force reference", seed)
		}
	}
}
