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
	// cross-chunk edges against (nil = unchunked).
	OldChunks, NewChunks []hypergraph.Chunk
}

// Update derives the OAG of r.NewG from old (built for r.OldG) at the
// default per-node neighbor cap. See UpdateCapped.
func Update(old *OAG, wMin uint32, r Rewire) *OAG {
	return UpdateCapped(old, wMin, DefaultMaxDegree, r)
}

// UpdateCapped incrementally updates old into the OAG a fresh
// BuildCapped(r.NewG, old.Side(), wMin, maxDeg, r.NewChunks) would produce,
// recounting only affected nodes. wMin and maxDeg must match the values old
// was built with. When the dirty set grows past half the graph the whole
// update degenerates to a fresh build (same result, less work).
func UpdateCapped(old *OAG, wMin uint32, maxDeg int, r Rewire) *OAG {
	if wMin == 0 {
		wMin = 1
	}
	side := old.side
	var n, oldMids uint32
	if side == Hyperedges {
		n = r.NewG.NumHyperedges()
		oldMids = r.OldG.NumVertices()
	} else {
		n = r.NewG.NumVertices()
		oldMids = r.OldG.NumHyperedges()
	}
	neighborsOf, incidentOf := unpackSides(r.NewG, side)

	dirty, ok := markDirty(old, r, n, oldMids, neighborsOf, incidentOf)
	if !ok {
		return buildFrom(side, n, wMin, maxDeg, r.NewChunks, neighborsOf, incidentOf)
	}

	var dirtyCount uint32
	for _, d := range dirty {
		if d {
			dirtyCount++
		}
	}
	if dirtyCount > n/2 {
		return buildFrom(side, n, wMin, maxDeg, r.NewChunks, neighborsOf, incidentOf)
	}

	// oldOf inverts the node remap so clean nodes can find their old list.
	oldOf := make([]uint32, n)
	for i := range oldOf {
		oldOf[i] = hypergraph.Gone
	}
	for oa := uint32(0); oa < old.n; oa++ {
		if na := remapID(r.NodeRemap, oa); na != hypergraph.Gone {
			oldOf[na] = oa
		}
	}

	chunkNew := makeChunkIndex(n, r.NewChunks)
	o := &OAG{side: side, n: n, buildOps: old.buildOps}
	adjTmp := make([][]wedge, n)

	// Recount pass: the Build counting loop restricted to dirty nodes,
	// walking all peers b != a (each dirty node owns its full list; a clean
	// neighbor's mirrored entry is proven unchanged, so it is never
	// touched).
	scr := getScratch(n)
	count, touched := scr.count, scr.touched
	for a := uint32(0); a < n; a++ {
		if !dirty[a] {
			continue
		}
		touched = touched[:0]
		for _, mid := range neighborsOf(a) {
			peers := incidentOf(mid)
			o.buildOps++
			if len(peers) > HubSkipThreshold {
				continue
			}
			for _, b := range peers {
				o.buildOps++
				if b == a {
					continue
				}
				if count[b] == 0 {
					touched = append(touched, b)
				}
				count[b]++
			}
		}
		for _, b := range touched {
			w := count[b]
			count[b] = 0
			if w < wMin {
				continue
			}
			if chunkNew != nil && chunkNew[a] != chunkNew[b] {
				continue
			}
			adjTmp[a] = append(adjTmp[a], wedge{b, w})
		}
		o.buildOps += sortAndCap(adjTmp, a, maxDeg)
	}
	scr.touched = touched
	putScratch(scr)

	// Copy pass: clean nodes keep their old list, ids remapped. A clean
	// node's stored neighbors are all surviving, same-chunk nodes (anything
	// else dirtied it), and the monotone remap preserves the tie-break
	// order, so the copied list is exactly what a fresh build would emit.
	for a := uint32(0); a < n; a++ {
		if dirty[a] {
			continue
		}
		oa := oldOf[a]
		ns, ws := old.Neighbors(oa), old.Weights(oa)
		if len(ns) == 0 {
			continue
		}
		es := make([]wedge, len(ns))
		for i := range ns {
			es[i] = wedge{remapID(r.NodeRemap, ns[i]), ws[i]}
		}
		adjTmp[a] = es
	}

	o.assemble(adjTmp)
	return o
}

// markDirty computes the set of new-id nodes whose neighbor lists must be
// recounted, per the closure rules in the package comment. neighborsOf and
// incidentOf read the new graph; the old graph is read only through mid
// degrees and the lists of removed mids. ok is false when the rewire is too
// coarse to track incrementally (chunking appeared or disappeared
// wholesale) and the caller should rebuild.
func markDirty(old *OAG, r Rewire, n, oldMids uint32,
	neighborsOf, incidentOf func(uint32) []uint32) (dirty []bool, ok bool) {
	oldMidDeg, oldMidList := midAccess(r.OldG, old.side)
	newMidDeg, _ := midAccess(r.NewG, old.side)

	dirty = make([]bool, n)
	chunkChanged := make([]bool, n)

	// Rule 1: added nodes have no old list at all.
	for _, a := range r.AddedNodes {
		dirty[a] = true
	}

	// Rule 2: chunk-boundary shifts. A survivor whose chunk index changed
	// may gain or lose every one of its edges.
	if (r.OldChunks == nil) != (r.NewChunks == nil) {
		return nil, false
	}
	if r.OldChunks != nil {
		chunkOld := makeChunkIndex(old.n, r.OldChunks)
		chunkNew := makeChunkIndex(n, r.NewChunks)
		for oa := uint32(0); oa < old.n; oa++ {
			na := remapID(r.NodeRemap, oa)
			if na == hypergraph.Gone {
				continue
			}
			if chunkOld[oa] != chunkNew[na] {
				chunkChanged[na] = true
				dirty[na] = true
			}
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
	for oa := uint32(0); oa < old.n; oa++ {
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
	return dirty, true
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

// Equal reports structural equality: side, node count, per-node logical CSR
// offsets, neighbors and weights. BuildOps is deliberately excluded — an
// incrementally updated OAG accounts only the update's own work, while its
// structure must match the fresh build bit for bit.
func (o *OAG) Equal(p *OAG) bool {
	if o.side != p.side || o.n != p.n || len(o.w) != len(p.w) {
		return false
	}
	for a := uint32(0); a < o.n; a++ {
		if o.hot[a].off != p.hot[a].off || o.hot[a].deg != p.hot[a].deg {
			return false
		}
		ons, pns := o.Neighbors(a), p.Neighbors(a)
		for i := range ons {
			if ons[i] != pns[i] {
				return false
			}
		}
	}
	for i := range o.w {
		if o.w[i] != p.w[i] {
			return false
		}
	}
	return true
}
