package engine

import (
	"chgraph/internal/hypergraph"
	"chgraph/internal/oag"
)

// UpdatePrep derives the Prep for d.New from the Prep built for d.Old,
// incrementally updating both per-chunk OAGs (oag.Update) instead of
// re-running the full overlap counting pass. The returned Prep is
// structurally identical — chunking, OAG adjacency and weights — to a fresh
// PrepareParallel on d.New with the same cores and wMin, so every engine
// kind produces bit-identical runs on either; only the OAG BuildOps
// accounting differs (the update charges its own work, which is the point).
//
// old must be the Prep built for d.Old; the api layer's artifact pairing
// enforces this. Reuse arenas need no hand-off: they come from one
// process-wide pool, and chain cache validity never crosses runs (see
// runScratch), so a post-mutation run regenerates chains from the updated
// OAGs.
func UpdatePrep(old *Prep, d *hypergraph.Delta) *Prep {
	g := d.New
	p := &Prep{
		Cores:   old.Cores,
		WMin:    old.WMin,
		VChunks: hypergraph.Chunks(g.NumVertices(), old.Cores),
		HChunks: hypergraph.Chunks(g.NumHyperedges(), old.Cores),
	}
	p.HOAG = oag.Update(old.HOAG, old.WMin, oag.Rewire{
		OldG: d.Old, NewG: g,
		NodeRemap: d.HRemap, AddedNodes: d.AddedH,
		MidRemap: d.VRemap, AddedMids: d.AddedV,
		OldChunks: old.HChunks, NewChunks: p.HChunks,
	})
	p.VOAG = oag.Update(old.VOAG, old.WMin, oag.Rewire{
		OldG: d.Old, NewG: g,
		NodeRemap: d.VRemap, AddedNodes: d.AddedV,
		MidRemap: d.HRemap, AddedMids: d.AddedH,
		OldChunks: old.VChunks, NewChunks: p.VChunks,
	})

	return p
}
