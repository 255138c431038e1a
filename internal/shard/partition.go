package shard

import (
	"fmt"
	"math/bits"

	"chgraph/internal/hypergraph"
)

// Policy names a hyperedge→shard assignment strategy. Hyperedges are the
// unit of ownership (each lives on exactly one shard); vertices follow their
// hyperedges and are replicated onto every shard that owns one of their
// incident hyperedges.
type Policy string

const (
	// PolicyRange assigns contiguous hyperedge index ranges, balanced by
	// hyperedge count (hypergraph.Chunks). It preserves the global
	// hyperedge index order across the shard sequence, which is what makes
	// range-sharded runs order-identical to unsharded ones (DESIGN.md §11).
	PolicyRange Policy = "range"
	// PolicyGreedy is a single-pass streaming assigner in the spirit of
	// Taşyaran et al. (arXiv:2103.05394): each hyperedge goes to the shard
	// where the fewest of its pin vertices are new (minimizing replication),
	// subject to a per-shard pin-count cap (greedyCapFactor), with ties
	// broken toward the lighter then lower-indexed shard. One pass, O(V)
	// extra memory.
	PolicyGreedy Policy = "greedy"
)

// MaxShards bounds the shard count: per-vertex shard membership is tracked
// in one 64-bit mask, and the layer targets single-host scale-out.
const MaxShards = 64

// greedyCapFactor is the greedy policy's per-shard size headroom: a shard
// stops accepting hyperedges once its pin count exceeds greedyCapFactor
// times the ideal even share.
const greedyCapFactor = 1.15

// ParsePolicy maps a CLI spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyRange:
		return PolicyRange, nil
	case PolicyGreedy:
		return PolicyGreedy, nil
	}
	return "", fmt.Errorf("shard: unknown policy %q (have %q, %q)", s, PolicyRange, PolicyGreedy)
}

// Assignment is a complete hyperedge→shard mapping plus the partition
// quality metrics derived from it.
type Assignment struct {
	// K is the shard count, Policy the strategy that produced the mapping.
	K      int
	Policy Policy
	// Owner maps each global hyperedge to its shard.
	Owner []uint32

	// ShardHyperedges and ShardPins count owned hyperedges and their total
	// pin incidences per shard (the balance the greedy cap controls).
	ShardHyperedges []uint64
	ShardPins       []uint64
	// ReplicatedVertices counts vertices present on more than one shard —
	// the partition's "cut" (connectivity−1 > 0 in partitioning terms).
	// VertexPlacements sums shard copies over all vertices (isolated
	// vertices count one copy on their home shard).
	ReplicatedVertices uint64
	VertexPlacements   uint64

	numV uint32
	// masks[v] has bit s set when vertex v lives on shard s (isolated
	// vertices have an empty mask; Materialize homes them on v mod K).
	masks []uint64
}

// ReplicationFactor returns the mean number of shard copies per vertex
// (1.0 = no replication).
func (a *Assignment) ReplicationFactor() float64 {
	if a.numV == 0 {
		return 1
	}
	return float64(a.VertexPlacements) / float64(a.numV)
}

// Partition assigns every hyperedge of g to one of k shards under the given
// policy. The assignment is deterministic: same inputs, same mapping. The
// fourth argument is unused — the greedy cap is the constant
// greedyCapFactor — and stays only for source compatibility with existing
// callers; pass 0.
func Partition(g *hypergraph.Bipartite, k int, policy Policy, _ float64) (*Assignment, error) {
	numH := g.NumHyperedges()
	if k < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", k)
	}
	if k > MaxShards {
		return nil, fmt.Errorf("shard: %d shards exceeds the maximum of %d", k, MaxShards)
	}
	if uint32(k) > numH && numH > 0 {
		return nil, fmt.Errorf("shard: %d shards for %d hyperedges (shards may not be empty)", k, numH)
	}
	if numH == 0 && k != 1 {
		return nil, fmt.Errorf("shard: %d shards for an empty hyperedge set", k)
	}
	a := &Assignment{
		K: k, Policy: policy,
		Owner:           make([]uint32, numH),
		ShardHyperedges: make([]uint64, k),
		ShardPins:       make([]uint64, k),
		numV:            g.NumVertices(),
		masks:           make([]uint64, g.NumVertices()),
	}
	// Both policies place hyperedges in index order, so one streaming
	// cursor reads every pin list sequentially.
	pins := g.PackedH().NewCursor()
	switch policy {
	case PolicyRange:
		for s, ch := range hypergraph.Chunks(numH, k) {
			for h := ch.Lo; h < ch.Hi; h++ {
				a.place(pins.List(h), h, uint32(s))
			}
		}
	case PolicyGreedy:
		a.greedy(g, pins)
	default:
		return nil, fmt.Errorf("shard: unknown policy %q", policy)
	}
	a.finishMetrics(g)
	return a, nil
}

// place records hyperedge h, whose pin list is pins, on shard s and folds
// its pins into the shard's vertex membership.
func (a *Assignment) place(pins []uint32, h, s uint32) {
	a.Owner[h] = s
	a.ShardHyperedges[s]++
	bit := uint64(1) << s
	a.ShardPins[s] += uint64(len(pins))
	for _, v := range pins {
		a.masks[v] |= bit
	}
}

// greedy is the single-pass streaming assigner: one scan over hyperedges in
// index order, constant state per shard plus one membership mask per vertex.
func (a *Assignment) greedy(g *hypergraph.Bipartite, cur *hypergraph.AdjCursor) {
	k := a.K
	totalPins := g.NumBipartiteEdges()
	// Pin-count cap per shard; at least one average hyperedge of headroom
	// so the cap can never make a placement impossible on an empty shard.
	pinCap := uint64(greedyCapFactor * float64(totalPins) / float64(k))
	if numH := uint64(g.NumHyperedges()); numH > 0 && pinCap < totalPins/numH+1 {
		pinCap = totalPins/numH + 1
	}
	overlap := make([]uint64, k)
	for h := uint32(0); h < g.NumHyperedges(); h++ {
		pins := cur.List(h)
		for s := range overlap {
			overlap[s] = 0
		}
		for _, v := range pins {
			m := a.masks[v]
			for m != 0 {
				s := bits.TrailingZeros64(m)
				overlap[s]++
				m &= m - 1
			}
		}
		best, bestNew := -1, uint64(0)
		for s := 0; s < k; s++ {
			if a.ShardPins[s]+uint64(len(pins)) > pinCap {
				continue
			}
			newReps := uint64(len(pins)) - overlap[s]
			if best < 0 || newReps < bestNew ||
				(newReps == bestNew && a.ShardPins[s] < a.ShardPins[best]) {
				best, bestNew = s, newReps
			}
		}
		if best < 0 {
			// Every shard is at its cap: take the least-loaded one rather
			// than fail (caps are a balance target, not a hard invariant).
			best = 0
			for s := 1; s < k; s++ {
				if a.ShardPins[s] < a.ShardPins[best] {
					best = s
				}
			}
		}
		a.place(pins, h, uint32(best))
	}
}

// finishMetrics folds source-side membership (directed hypergraphs list the
// hyperedges a vertex sources separately from the pins it receives) into the
// masks and derives the replication metrics.
func (a *Assignment) finishMetrics(g *hypergraph.Bipartite) {
	srcs := g.PackedV().NewCursor()
	for v := uint32(0); v < a.numV; v++ {
		for _, h := range srcs.List(v) {
			a.masks[v] |= uint64(1) << a.Owner[h]
		}
	}
	for v := uint32(0); v < a.numV; v++ {
		c := bits.OnesCount64(a.masks[v])
		if c == 0 {
			c = 1 // isolated vertices are homed on exactly one shard
		}
		a.VertexPlacements += uint64(c)
		if c > 1 {
			a.ReplicatedVertices++
		}
	}
}
