package shard

import (
	"context"
	"fmt"

	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/par"
)

// Update derives the sharded artifacts for d.New from the artifacts built
// for d.Old. The mutated hypergraph is re-partitioned with the same policy
// the original used — for the greedy policy that IS the streaming-greedy
// re-assignment of moved hyperedges, replayed over the compacted id space,
// so the result is identical to a fresh Prepare on d.New — and then each
// shard either reuses its old engine.Prep wholesale (its local sub-
// hypergraph is unchanged) or updates it incrementally through a shard-local
// delta that remaps both the hyperedge and the vertex side.
//
// The returned Prepared is structurally identical to Prepare(ctx, d.New,
// opts) — same assignment, same local CSRs, OAGs equal — so runs on either
// produce bit-identical checksums and cycles. pre is not modified; in-flight
// runs on it are unaffected (reused Preps share their scratch pools across
// versions, which is the same concurrency the per-Prep pool already
// supports).
func Update(ctx context.Context, pre *Prepared, d *hypergraph.Delta, workers int) (*Prepared, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if pre.P.G != d.Old {
		return nil, fmt.Errorf("shard: Update delta was taken against a different hypergraph")
	}
	a0 := pre.P.Assign
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a, err := Partition(d.New, a0.K, a0.Policy, 0)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := Materialize(d.New, a, workers)
	if err != nil {
		return nil, err
	}

	preps := make([]*engine.Prep, a.K)
	if err := par.ForCtx(ctx, workers, a.K, func(i int) {
		oldSh, newSh := pre.P.Shards[i], p.Shards[i]
		if ld := localDelta(pre.P, p, d, oldSh, newSh); ld == nil {
			preps[i] = pre.Preps[i] // local sub-hypergraph unchanged: reuse
		} else {
			preps[i] = engine.UpdatePrep(pre.Preps[i], ld)
		}
	}); err != nil {
		return nil, err
	}
	return &Prepared{
		P: p, Preps: preps,
		Cores: pre.Cores, WMin: pre.WMin,
	}, nil
}

// localDelta projects the global delta into one shard's local id spaces,
// or returns nil when the shard's sub-hypergraph is byte-identical across
// the mutation (same hyperedges with the same pins, same vertex set) and
// its Prep can be shared with the old artifact.
//
// Both local remaps are monotone on survivors: local ids are ascending
// global ids on both sides, and the global hyperedge remap is monotone, so
// the projection preserves relative order — the property oag.Update's
// copy-through pass requires. Hyperedges that migrate INTO the shard from
// elsewhere surface as local additions mid-range; that is fine, added nodes
// carry no copied state.
func localDelta(oldP, newP *Partitioned, d *hypergraph.Delta, oldSh, newSh *Shard) *hypergraph.Delta {
	same := len(oldSh.Hyperedges) == len(newSh.Hyperedges) &&
		len(oldSh.Vertices) == len(newSh.Vertices)

	ld := &hypergraph.Delta{
		Old: oldSh.G, New: newSh.G,
		HRemap: make([]uint32, len(oldSh.Hyperedges)),
	}
	sid := uint32(oldSh.ID)
	for lh, gh := range oldSh.Hyperedges {
		ld.HRemap[lh] = hypergraph.Gone
		if ngh := d.HRemap[gh]; ngh != hypergraph.Gone && newP.Assign.Owner[ngh] == sid {
			ld.HRemap[lh] = newP.hLocal[ngh]
		}
		if same && ld.HRemap[lh] != uint32(lh) {
			same = false
		}
	}
	// Local additions: every new local hyperedge with no survivor preimage
	// (batch-added globally, or migrated in from another shard).
	preimage := make([]bool, len(newSh.Hyperedges))
	for _, nlh := range ld.HRemap {
		if nlh != hypergraph.Gone {
			preimage[nlh] = true
		}
	}
	for nlh := range preimage {
		if !preimage[nlh] {
			ld.AddedH = append(ld.AddedH, uint32(nlh))
		}
	}

	ld.VRemap = make([]uint32, len(oldSh.Vertices))
	for lv, gv := range oldSh.Vertices {
		nlv, ok := newSh.LocalVertex(gv)
		if !ok {
			nlv = hypergraph.Gone
		}
		ld.VRemap[lv] = nlv
		if same && nlv != uint32(lv) {
			same = false
		}
	}
	vpre := make([]bool, len(newSh.Vertices))
	for _, nlv := range ld.VRemap {
		if nlv != hypergraph.Gone {
			vpre[nlv] = true
		}
	}
	for nlv := range vpre {
		if !vpre[nlv] {
			ld.AddedV = append(ld.AddedV, uint32(nlv))
		}
	}

	if same && len(ld.AddedH) == 0 && len(ld.AddedV) == 0 {
		// Identity on both sides. Identical id sets imply identical local
		// CSRs: surviving hyperedges keep their global pin lists, and local
		// pin ids depend only on the (unchanged) vertex set.
		return nil
	}
	return ld
}
