// Incremental OAG maintenance (dynamic hypergraphs). Update derives the OAG
// of a mutated hypergraph from the OAG of its predecessor, recounting
// overlaps only for the nodes a batch can have affected and copying every
// other node's neighbor list through the id remap. The result is
// byte-identical to a fresh Build on the mutated graph — the differential
// tests and FuzzMutationSequence pin that equivalence — except for BuildOps,
// which accounts only the update's own work (that cheapness is the point).
//
// Why a small dirty set suffices: a batch removes and appends whole
// hyperedges, so the overlap between two surviving nodes can only change
// through an intermediary that itself changed — an added or removed mid, or
// a mid whose incidence list gained/lost a mutated node. Together with the
// per-node degree cap (a node that lost a stored neighbor must recount to
// refill its truncated tail) and chunk-boundary shifts (per-chunk OAGs drop
// cross-chunk edges, and boundaries move when the node count changes), that
// yields the closure rules in markDirty below.
package oag

import (
	"slices"

	"chgraph/internal/hypergraph"
)

// Rewire describes how the node and intermediary (mid) id spaces of an
// OAG's underlying hypergraph changed between two builds. For a global
// H-OAG the nodes are hyperedges and the mids are vertices; for a V-OAG the
// roles swap; shard-local updates remap both sides at once.
//
// Remaps must be monotone on survivors (ascending old id implies ascending
// new id) with additions taking the ids past the last survivor —
// hypergraph.ApplyBatch and the shard updater construct exactly this shape.
// Monotonicity is what lets Update copy a clean node's neighbor list
// through the remap without re-sorting: descending-weight order with
// ascending-id tie-breaks is preserved.
type Rewire struct {
	// OldG and NewG are the pre- and post-mutation hypergraphs.
	OldG, NewG *hypergraph.Bipartite
	// NodeRemap maps old node id -> new node id, hypergraph.Gone for
	// removed nodes; nil is the identity (no node removed or renumbered).
	NodeRemap []uint32
	// AddedNodes lists new-id nodes absent from the old graph (ascending).
	AddedNodes []uint32
	// MidRemap / AddedMids mirror the node fields for the intermediary
	// side.
	MidRemap []uint32
	// AddedMids lists new-id mids absent from the old graph (ascending).
	AddedMids []uint32
	// OldChunks and NewChunks are the per-core chunkings the two OAGs drop
	// cross-chunk edges against; as in Build, nil is one chunk over every
	// node and any other list must tile the node range.
	OldChunks, NewChunks []hypergraph.Chunk
}

// Update incrementally updates old (built for r.OldG) into the OAG a fresh
// Build(r.NewG, old.Side(), wMin, r.NewChunks, workers) produces, recounting
// only affected nodes. wMin must match the value old was built with. When
// the dirty set grows past half the graph the whole update degenerates to a
// fresh build (same result, less work).
func Update(old *OAG, wMin uint32, r Rewire) *OAG {
	return update(old, wMin, DefaultMaxDegree, r)
}

// update is Update with an explicit per-node neighbor cap, which must match
// the one old was built with.
func update(old *OAG, wMin uint32, maxDeg int, r Rewire) *OAG {
	wMin = max(wMin, 1)
	oldMids := r.OldG.NumHyperedges()
	if old.side == Hyperedges {
		oldMids = r.OldG.NumVertices()
	}
	s := unpackSides(r.NewG, old.side)
	n := s.n
	oldChunks, newChunks := tiling(r.OldChunks, old.NumNodes()), tiling(r.NewChunks, n)

	dirty := markDirty(old, r, s, oldMids, oldChunks, newChunks)
	var dirtyCount uint32
	for _, d := range dirty {
		if d {
			dirtyCount++
		}
	}
	if dirtyCount > n/2 {
		return s.build(wMin, maxDeg, newChunks, 1)
	}

	// oldOf inverts the node remap so clean nodes can find their old list.
	oldOf := make([]uint32, n)
	for i := range oldOf {
		oldOf[i] = hypergraph.Gone
	}
	for oa := uint32(0); oa < old.NumNodes(); oa++ {
		if na := remapID(r.NodeRemap, oa); na != hypergraph.Gone {
			oldOf[na] = oa
		}
	}

	// Recount pass: the counting kernel on dirty nodes, keeping all peers
	// b != a of a's chunk one-sided (each dirty node owns its full list; a
	// clean neighbor's mirrored entry is proven unchanged, so it is never
	// touched).
	adjTmp := make([][]wedge, n)
	ops := old.buildOps
	scr := getScratch(n)
	for _, ch := range newChunks {
		for a := ch.Lo; a < ch.Hi; a++ {
			if !dirty[a] {
				continue
			}
			var k uint64
			adjTmp[a], k = s.overlaps(nil, a, ch.Lo, ch.Hi, wMin, scr)
			ops += k + sortAndCap(adjTmp, a, maxDeg)
		}
	}
	putScratch(scr)

	// Copy pass: clean nodes keep their old list, ids remapped. A clean
	// node's stored neighbors are all surviving, same-chunk nodes (anything
	// else dirtied it), and the monotone remap preserves the tie-break
	// order, so the copied list is exactly what a fresh build would emit.
	for a := uint32(0); a < n; a++ {
		if dirty[a] {
			continue
		}
		ns, ws := old.Neighbors(oldOf[a]), old.Weights(oldOf[a])
		if len(ns) == 0 {
			continue
		}
		es := make([]wedge, len(ns))
		for i := range ns {
			es[i] = wedge{remapID(r.NodeRemap, ns[i]), ws[i]}
		}
		adjTmp[a] = es
	}
	return assemble(old.side, adjTmp, ops)
}

// markDirty computes the set of new-id nodes whose neighbor lists must be
// recounted, per the closure rules in the package comment. s reads the new
// graph; the old graph is read only through mid degrees and the lists of
// removed mids. oldChunks and newChunks tile the old and new node ranges.
func markDirty(old *OAG, r Rewire, s *sides, oldMids uint32, oldChunks, newChunks []hypergraph.Chunk) []bool {
	n, neighborsOf, incidentOf := s.n, s.neighborsOf, s.incidentOf
	oldMidDeg, oldMidList := midAccess(r.OldG, old.side)
	newMidDeg, _ := midAccess(r.NewG, old.side)

	dirty := make([]bool, n)
	chunkChanged := make([]bool, n)

	// Rule 1: added nodes have no old list at all.
	for _, a := range r.AddedNodes {
		dirty[a] = true
	}

	// Rule 2: chunk-boundary shifts. A survivor whose chunk index changed
	// may gain or lose every one of its edges.
	chunkOld := chunkIndex(oldChunks, old.NumNodes())
	chunkNew := chunkIndex(newChunks, n)
	for oa := uint32(0); oa < old.NumNodes(); oa++ {
		na := remapID(r.NodeRemap, oa)
		if na == hypergraph.Gone {
			continue
		}
		if chunkOld[oa] != chunkNew[na] {
			chunkChanged[na] = true
			dirty[na] = true
		}
	}

	// Rule 3: mids that appeared or disappeared change the overlap of every
	// pair of their incident nodes; hub mids contribute nothing in either
	// build and are skipped, exactly as the counting pass skips them.
	for _, am := range r.AddedMids {
		peers := incidentOf(am)
		if len(peers) > HubSkipThreshold {
			continue
		}
		for _, b := range peers {
			dirty[b] = true
		}
	}
	if r.MidRemap != nil {
		for om := uint32(0); om < oldMids; om++ {
			if r.MidRemap[om] != hypergraph.Gone {
				continue
			}
			peers := oldMidList(om)
			if len(peers) > HubSkipThreshold {
				continue
			}
			for _, b := range peers {
				if nb := remapID(r.NodeRemap, b); nb != hypergraph.Gone {
					dirty[nb] = true
				}
			}
		}
	}

	// Rule 4: surviving mids whose hub status flipped. A mid crossing
	// HubSkipThreshold starts (or stops) being counted, changing the
	// overlap of every pair it connects.
	for om := uint32(0); om < oldMids; om++ {
		nm := remapID(r.MidRemap, om)
		if nm == hypergraph.Gone {
			continue
		}
		oldDeg, newDeg := oldMidDeg(om), newMidDeg(nm)
		if oldDeg == newDeg {
			continue
		}
		if (oldDeg > HubSkipThreshold) != (newDeg > HubSkipThreshold) {
			for _, b := range incidentOf(nm) {
				dirty[b] = true
			}
		}
	}

	// Rule 5: two-hop expansion — survivors that share a (non-hub) mid with
	// an added or chunk-moved node may gain an edge their stored list
	// cannot predict.
	twoHop := func(a uint32) {
		for _, mid := range neighborsOf(a) {
			peers := incidentOf(mid)
			if len(peers) > HubSkipThreshold {
				continue
			}
			for _, b := range peers {
				dirty[b] = true
			}
		}
	}
	for _, a := range r.AddedNodes {
		twoHop(a)
	}
	for na := uint32(0); na < n; na++ {
		if chunkChanged[na] {
			twoHop(na)
		}
	}

	// Rule 6: losses. A node storing a removed or chunk-moved neighbor must
	// recount — the degree cap truncated its weak tail, so the slot the
	// neighbor frees can only be refilled from a full recount.
	for oa := uint32(0); oa < old.NumNodes(); oa++ {
		na := remapID(r.NodeRemap, oa)
		if na == hypergraph.Gone || dirty[na] {
			continue
		}
		for _, ob := range old.Neighbors(oa) {
			nb := remapID(r.NodeRemap, ob)
			if nb == hypergraph.Gone || chunkChanged[nb] {
				dirty[na] = true
				break
			}
		}
	}
	return dirty
}

// midAccess returns, for the given OAG side over g, each mid's degree and
// a cold accessor for its list (a fresh decode per call, for the few
// removed mids markDirty reads).
func midAccess(g *hypergraph.Bipartite, side Side) (deg func(uint32) uint32, list func(uint32) []uint32) {
	if side == Hyperedges {
		return g.VertexDegree, g.IncidentHyperedges
	}
	return g.HyperedgeDegree, g.IncidentVertices
}

// remapID applies a (possibly nil = identity) remap.
func remapID(remap []uint32, id uint32) uint32 {
	if remap == nil {
		return id
	}
	return remap[id]
}

// Equal reports structural equality: side and the offset, neighbor and
// weight arrays. BuildOps is deliberately excluded — an incrementally
// updated OAG accounts only the update's own work, while its structure must
// match the fresh build bit for bit.
func (o *OAG) Equal(p *OAG) bool {
	return o.side == p.side && slices.Equal(o.off, p.off) &&
		slices.Equal(o.adj, p.adj) && slices.Equal(o.w, p.w)
}
