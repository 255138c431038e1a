package shard

import (
	"fmt"
	"math/bits"

	"chgraph/internal/hypergraph"
	"chgraph/internal/par"
)

// noLocal marks a global id absent from a shard in the global→local maps.
const noLocal = ^uint32(0)

// Shard is one materialized sub-hypergraph: the hyperedges a shard owns plus
// every vertex incident to them, renumbered into a dense local id space. The
// local order is ascending global order on both sides, so at K=1 the local
// CSR is byte-identical to the original hypergraph's.
type Shard struct {
	// ID is the shard index.
	ID int
	// G is the local bipartite CSR the shard's engine executes on.
	G *hypergraph.Bipartite
	// Hyperedges and Vertices map local→global ids (both ascending).
	Hyperedges []uint32
	Vertices   []uint32

	vLocal []uint32 // global vertex → local, noLocal when absent
}

// GlobalVertex maps a local vertex id back to the global id space.
func (sh *Shard) GlobalVertex(lv uint32) uint32 { return sh.Vertices[lv] }

// GlobalHyperedge maps a local hyperedge id back to the global id space.
func (sh *Shard) GlobalHyperedge(lh uint32) uint32 { return sh.Hyperedges[lh] }

// LocalVertex maps a global vertex id into the shard, reporting whether the
// vertex is materialized here.
func (sh *Shard) LocalVertex(gv uint32) (uint32, bool) {
	lv := sh.vLocal[gv]
	return lv, lv != noLocal
}

// Partitioned is a hypergraph split into materialized shards.
type Partitioned struct {
	// G is the original (global) hypergraph.
	G *hypergraph.Bipartite
	// Assign is the hyperedge→shard mapping the shards were built from.
	Assign *Assignment
	// Shards holds one materialized sub-hypergraph per shard.
	Shards []*Shard

	hLocal []uint32 // global hyperedge → local id within its owner shard
}

// LocalHyperedge maps a global hyperedge to (owner shard, local id).
func (p *Partitioned) LocalHyperedge(gh uint32) (shard, lh uint32) {
	return p.Assign.Owner[gh], p.hLocal[gh]
}

// Materialize builds the per-shard sub-hypergraphs for an assignment. A
// shard's vertex set is the union of its hyperedges' incident vertices (pins
// and, for directed hypergraphs, sources); globally isolated vertices are
// homed on shard id mod K so every global vertex exists somewhere. Shard
// construction fans out over at most workers goroutines (0 = all CPUs); the
// result is identical for every value.
func Materialize(g *hypergraph.Bipartite, a *Assignment, workers int) (*Partitioned, error) {
	k := a.K
	p := &Partitioned{
		G: g, Assign: a,
		Shards: make([]*Shard, k),
		hLocal: make([]uint32, g.NumHyperedges()),
	}
	for i := range p.Shards {
		p.Shards[i] = &Shard{ID: i}
	}
	for h := uint32(0); h < g.NumHyperedges(); h++ {
		sh := p.Shards[a.Owner[h]]
		p.hLocal[h] = uint32(len(sh.Hyperedges))
		sh.Hyperedges = append(sh.Hyperedges, h)
	}
	// Vertex sets from the membership masks, ascending global order per
	// shard in one pass; isolated vertices go to their home shard.
	for v := uint32(0); v < g.NumVertices(); v++ {
		m := a.masks[v]
		if m == 0 {
			p.Shards[v%uint32(k)].Vertices = append(p.Shards[v%uint32(k)].Vertices, v)
			continue
		}
		for m != 0 {
			s := bits.TrailingZeros64(m)
			p.Shards[s].Vertices = append(p.Shards[s].Vertices, v)
			m &= m - 1
		}
	}

	// One flat decode of each side g's shards read, shared read-only by
	// the parallel builders (only directed graphs need the vertex side).
	pins := g.PackedH().Unpack()
	var srcs hypergraph.Unpacked
	if g.Directed() {
		srcs = g.PackedV().Unpack()
	}
	errs := make([]error, k)
	par.For(workers, k, func(i int) { errs[i] = p.Shards[i].build(g, a, p.hLocal, pins, srcs) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// build constructs the shard's local CSR from g's unpacked pin lists (and,
// for directed graphs, source lists). Pin lists keep the global CSR's
// per-hyperedge order and hypergraph.Build fills the vertex side in
// ascending-hyperedge order, which together make the K=1 shard reproduce the
// original CSR byte for byte.
func (sh *Shard) build(g *hypergraph.Bipartite, a *Assignment, hLocal []uint32, pins, srcs hypergraph.Unpacked) error {
	numLV := uint32(len(sh.Vertices))
	sh.vLocal = make([]uint32, g.NumVertices())
	for i := range sh.vLocal {
		sh.vLocal[i] = noLocal
	}
	for lv, gv := range sh.Vertices {
		sh.vLocal[gv] = uint32(lv)
	}

	local := make([][]uint32, len(sh.Hyperedges))
	for lh, gh := range sh.Hyperedges {
		gp := pins.List(gh)
		lp := make([]uint32, len(gp))
		for i, gv := range gp {
			lp[i] = sh.vLocal[gv]
			if lp[i] == noLocal {
				return fmt.Errorf("shard %d: hyperedge %d pin vertex %d not materialized", sh.ID, gh, gv)
			}
		}
		local[lh] = lp
	}

	var err error
	if g.Directed() {
		// Recover each hyperedge's source set from the vertex-side CSR:
		// walking vertices in ascending global order reproduces the
		// original source ordering semantics (the vertex-side CSR is
		// rebuilt in ascending-hyperedge order either way).
		localSrcs := make([][]uint32, len(sh.Hyperedges))
		for lv, gv := range sh.Vertices {
			for _, gh := range srcs.List(gv) {
				if a.Owner[gh] == uint32(sh.ID) {
					localSrcs[hLocal[gh]] = append(localSrcs[hLocal[gh]], uint32(lv))
				}
			}
		}
		sh.G, err = hypergraph.BuildDirected(numLV, localSrcs, local)
	} else {
		sh.G, err = hypergraph.Build(numLV, local)
	}
	return err
}
