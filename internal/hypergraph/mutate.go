package hypergraph

import (
	"fmt"
	"sort"
)

// Gone marks an id with no counterpart in the other id space of a Delta
// remap (a removed hyperedge, a vertex that left a shard).
const Gone = ^uint32(0)

// Batch is one atomic set of hypergraph mutations: whole hyperedges are
// removed by id and new ones appended. Vertex ids are stable — a batch never
// grows or shrinks the vertex set — and surviving hyperedges keep their pin
// lists untouched, which is what makes incremental overlap maintenance
// tractable (overlaps between two survivors cannot change).
type Batch struct {
	// Add lists the pin lists of hyperedges to append. Pins must reference
	// existing vertices; duplicates within a list are dropped exactly as in
	// Build.
	Add [][]uint32
	// Remove lists hyperedge ids (in the pre-batch id space) to delete.
	// Duplicates are tolerated; an out-of-range id is an error.
	Remove []uint32
}

// Empty reports whether the batch mutates nothing.
func (b Batch) Empty() bool { return len(b.Add) == 0 && len(b.Remove) == 0 }

// AddHyperedges stages new hyperedges (one pin list each) for the batch.
func (b *Batch) AddHyperedges(pins ...[]uint32) { b.Add = append(b.Add, pins...) }

// RemoveHyperedges stages hyperedge removals by id.
func (b *Batch) RemoveHyperedges(ids ...uint32) { b.Remove = append(b.Remove, ids...) }

// Delta is the structural difference between a hypergraph and its mutated
// successor: the two graphs plus the monotone id remaps incremental
// maintenance needs. Removal compacts the hyperedge id space (survivors keep
// their relative order), and additions take the ids past the last survivor,
// so every remap is strictly increasing on survivors — the property that
// lets oag.Update copy an untouched node's neighbor list through the remap
// without re-sorting it.
type Delta struct {
	// Old and New are the pre- and post-batch hypergraphs. New is built
	// with Build on the surviving pin lists followed by the added ones, so
	// a from-scratch Build over the same lists is byte-identical.
	Old, New *Bipartite

	// HRemap maps old hyperedge id -> new id (Gone when removed).
	HRemap []uint32
	// AddedH lists the new-id hyperedges the batch appended (ascending).
	AddedH []uint32
	// RemovedH lists the removed old-id hyperedges (ascending, deduped).
	RemovedH []uint32

	// VRemap / AddedV / RemovedV describe the vertex side. Global batches
	// never touch it (all three are nil: the vertex remap is the identity);
	// shard-local deltas populate them when materialized vertex sets change.
	VRemap   []uint32
	AddedV   []uint32
	RemovedV []uint32
}

// ApplyBatch builds the mutated successor of g plus the Delta relating the
// two. g itself is never modified — Bipartite stays immutable; the new graph
// shares no storage with the old one, so in-flight readers of g are safe.
// Directed hypergraphs do not support mutation.
func (g *Bipartite) ApplyBatch(b Batch) (*Delta, error) {
	if g.directed {
		return nil, fmt.Errorf("hypergraph: mutation of directed hypergraphs is not supported")
	}
	removed := make(map[uint32]struct{}, len(b.Remove))
	for _, h := range b.Remove {
		if h >= g.numH {
			return nil, fmt.Errorf("hypergraph: remove of nonexistent hyperedge %d (numH %d)", h, g.numH)
		}
		removed[h] = struct{}{}
	}

	d := &Delta{
		Old:      g,
		HRemap:   make([]uint32, g.numH),
		RemovedH: make([]uint32, 0, len(removed)),
	}
	// Survivors' lists come from one flat decode; Build copies them.
	old := g.h.Unpack()
	pins := make([][]uint32, 0, int(g.numH)-len(removed)+len(b.Add))
	for h := uint32(0); h < g.numH; h++ {
		if _, gone := removed[h]; gone {
			d.HRemap[h] = Gone
			d.RemovedH = append(d.RemovedH, h)
			continue
		}
		d.HRemap[h] = uint32(len(pins))
		pins = append(pins, old.List(h))
	}
	sort.Slice(d.RemovedH, func(i, j int) bool { return d.RemovedH[i] < d.RemovedH[j] })

	d.AddedH = make([]uint32, 0, len(b.Add))
	for _, ps := range b.Add {
		d.AddedH = append(d.AddedH, uint32(len(pins)))
		pins = append(pins, ps)
	}

	var err error
	if d.New, err = Build(g.numV, pins); err != nil {
		return nil, err
	}
	return d, nil
}
