// Package oag builds the overlap-aware abstraction graphs (OAGs) of §IV-A.
//
// A hyperedge OAG (H-OAG) is a weighted undirected graph with one node per
// hyperedge; an edge connects two hyperedges whose incident-vertex overlap
// is at least W_min, weighted by the overlap size |N(h) ∩ N(h')|. The vertex
// OAG (V-OAG) is the mirror construction over vertices. Per the paper, the
// OAG is stored in CSR form with each node's neighbors ordered by descending
// weight so the chain generator's neighbor-selection stage can pick the
// maximally-overlapped successor without sorting at run time.
//
// GLA partitions hyperedges and vertices into per-core chunks, each with its
// own OAG; Build therefore drops edges that cross chunk boundaries, which is
// equivalent to building one OAG per chunk.
package oag

import (
	"fmt"
	"sort"
	"sync"

	"chgraph/internal/hypergraph"
	"chgraph/internal/par"
)

// DefaultWMin is the paper's default overlap threshold (§IV-A): edges with
// weight below 3 are discarded, trading a negligible locality loss for a
// much smaller OAG.
const DefaultWMin = 3

// DefaultMaxDegree bounds each node's retained OAG neighbors to its
// strongest few overlaps. The paper bounds OAG size with W_min alone
// (Figure 21(b): +14-20% storage over the bipartite CSR); on densely
// clustered hypergraphs W_min leaves near-clique OAGs, so we additionally
// keep only the top-weight neighbors per node — the chain generator only
// ever follows a node's strongest unvisited neighbor, so truncating the
// weak tail preserves chains. The cap bounds the OAG arrays at 4*(n+1+16n)
// bytes per side; on the synthetic datasets, whose clusters are denser than
// the paper's, they still measure +41% to +121% over the bipartite CSR at
// scale 0.35 (EXPERIMENTS.md, Figure 21).
const DefaultMaxDegree = 8

// HubSkipThreshold bounds the counting pass: intermediaries (shared
// vertices for an H-OAG) with more incidences than this are skipped. A
// pair of hyperedges overlapping ONLY through such hubs contributes weight
// far below W_min with overwhelming probability, while the hubs dominate
// the quadratic counting cost — the same pivot-skipping used by triangle
// counters. This also keeps the preprocessing-time overhead within the
// paper's Figure 21(a) envelope.
const HubSkipThreshold = 64

// Side selects which OAG to build.
type Side int

const (
	// Hyperedges builds the H-OAG: nodes are hyperedges, overlap counts
	// shared incident vertices.
	Hyperedges Side = iota
	// Vertices builds the V-OAG: nodes are vertices, overlap counts shared
	// incident hyperedges.
	Vertices
)

func (s Side) String() string {
	if s == Hyperedges {
		return "H-OAG"
	}
	return "V-OAG"
}

// OAG is a weighted undirected overlap graph in the paper's CSR form
// (Figure 13): node a's neighbors are adj[off[a]:off[a+1]], sorted by
// descending weight (ties broken by ascending node id), and w holds the
// weight of every adj entry. off, adj and w are the OAG_offset, OAG_edge and
// OAG_weight arrays the engines' address modelling indexes.
type OAG struct {
	side     Side
	off      []uint32 // n+1 entries
	adj, w   []uint32
	buildOps uint64
}

// Build constructs the OAG for one side of g with the given overlap
// threshold wMin, keeping at most DefaultMaxDegree neighbors per node.
// Edges crossing chunk boundaries are dropped (per-chunk OAGs, §IV-B);
// nodes keep their global ids. A nil chunks is one chunk over every node;
// any other list must tile [0, n) in ascending order, as hypergraph.Chunks
// does, or Build panics. Chunks are independent, so their builds fan out
// across at most workers goroutines (serially when workers <= 1); the
// result, BuildOps included, does not depend on workers.
func Build(g *hypergraph.Bipartite, side Side, wMin uint32, chunks []hypergraph.Chunk, workers int) *OAG {
	return build(g, side, wMin, DefaultMaxDegree, chunks, workers)
}

// build is Build with an explicit per-node neighbor cap (0 = no cap).
func build(g *hypergraph.Bipartite, side Side, wMin uint32, maxDeg int, chunks []hypergraph.Chunk, workers int) *OAG {
	s := unpackSides(g, side)
	return s.build(max(wMin, 1), maxDeg, tiling(chunks, s.n), workers)
}

// sides is one side's decoded incidence, read by the counting kernel: node
// a's mids, and a mid's nodes. The counting loops read every list, mostly
// out of order, so one flat decode beats a cursor's per-list block seek.
// It is read-only and shared by parallel workers; it lives for one build.
type sides struct {
	side                    Side
	n                       uint32
	neighborsOf, incidentOf func(uint32) []uint32
}

func unpackSides(g *hypergraph.Bipartite, side Side) *sides {
	h, v := g.PackedH().Unpack(), g.PackedV().Unpack()
	if side == Hyperedges {
		return &sides{side, g.NumHyperedges(), h.List, v.List}
	}
	return &sides{side, g.NumVertices(), v.List, h.List}
}

// overlaps is the counting kernel every build path shares. It walks node
// a's incidence lists two hops, counts the shared mids of every peer b in
// [lo, hi) other than a (mids with more than HubSkipThreshold incidences
// count for nothing), and appends each peer whose count reaches wMin to dst.
// It also returns the work units spent — one per mid, one per peer visited
// — that the preprocessing cost model of Figure 21/22 converts to cycles.
func (s *sides) overlaps(dst []wedge, a, lo, hi, wMin uint32, scr *buildScratch) ([]wedge, uint64) {
	count, touched := scr.count, scr.touched[:0]
	var ops uint64
	for _, mid := range s.neighborsOf(a) {
		peers := s.incidentOf(mid)
		ops++
		if len(peers) > HubSkipThreshold {
			continue
		}
		ops += uint64(len(peers))
		for _, b := range peers {
			if b < lo || b >= hi || b == a {
				continue
			}
			if count[b] == 0 {
				touched = append(touched, b)
			}
			count[b]++
		}
	}
	for _, b := range touched {
		if count[b] >= wMin {
			dst = append(dst, wedge{b, count[b]})
		}
		count[b] = 0
	}
	scr.touched = touched
	return dst, ops
}

// build counts every chunk of a tiling, mirroring each edge (a, b > a) into
// both endpoints' lists. Both endpoints of every kept edge lie in one chunk,
// so chunks write disjoint parts of adjTmp and can be built concurrently.
func (s *sides) build(wMin uint32, maxDeg int, chunks []hypergraph.Chunk, workers int) *OAG {
	adjTmp := make([][]wedge, s.n)
	chunkOps := make([]uint64, len(chunks))
	par.For(workers, len(chunks), func(ci int) {
		ch := chunks[ci]
		scr := getScratch(s.n)
		var ops, k uint64
		for a := ch.Lo; a < ch.Hi; a++ {
			before := len(adjTmp[a])
			adjTmp[a], k = s.overlaps(adjTmp[a], a, a+1, ch.Hi, wMin, scr)
			ops += k
			for _, e := range adjTmp[a][before:] {
				adjTmp[e.b] = append(adjTmp[e.b], wedge{a, e.w})
			}
		}
		putScratch(scr)
		for a := ch.Lo; a < ch.Hi; a++ {
			ops += sortAndCap(adjTmp, a, maxDeg)
		}
		chunkOps[ci] = ops
	})
	var ops uint64
	for _, n := range chunkOps {
		ops += n
	}
	return assemble(s.side, adjTmp, ops)
}

// wedge is one weighted adjacency entry during construction.
type wedge struct{ b, w uint32 }

// buildScratch is the counting kernel's scatter state. The count array is
// length n but provably all-zero between nodes (the kernel resets every
// touched entry), so a recycled one needs no clearing — only growth.
type buildScratch struct {
	count   []uint32
	touched []uint32
}

// scratchPool recycles counting scratch across chunks and across builds;
// without it a parallel build allocated an n-element scatter array per
// chunk.
var scratchPool = sync.Pool{New: func() any { return &buildScratch{} }}

// getScratch borrows a scratch sized for n nodes. Reuse is keyed only by
// capacity: a recycled count array is resliced, not reallocated, so its
// contents carry over between builds of different-shaped graphs. That is
// sound solely because of the all-zero invariant the kernel keeps — the
// regression test TestScratchReuseAcrossShapes pins it for shrinking,
// regrowing and update-interleaved sequences.
func getScratch(n uint32) *buildScratch {
	s := scratchPool.Get().(*buildScratch)
	if uint32(cap(s.count)) < n {
		s.count = make([]uint32, n)
	} else {
		s.count = s.count[:n]
	}
	return s
}

// putScratch returns a scratch to the pool, truncating touched so no stale
// node ids leak into the next borrow.
func putScratch(s *buildScratch) {
	s.touched = s.touched[:0]
	scratchPool.Put(s)
}

// sortAndCap orders node a's temporary adjacency (descending weight,
// ascending id on ties: the hardware chain generator reads neighbors in
// storage order and takes the first active unvisited one, which is then
// weight-maximal), truncates it to maxDeg entries, and returns the sort
// work units for the build-cost model.
func sortAndCap(adjTmp [][]wedge, a uint32, maxDeg int) uint64 {
	es := adjTmp[a]
	sort.Slice(es, func(i, j int) bool {
		if es[i].w != es[j].w {
			return es[i].w > es[j].w
		}
		return es[i].b < es[j].b
	})
	ops := uint64(len(es)) * uint64(log2ceil(len(es)))
	if maxDeg > 0 && len(es) > maxDeg {
		adjTmp[a] = es[:maxDeg]
	}
	return ops
}

// assemble flattens the per-node adjacency into the CSR arrays.
func assemble(side Side, adjTmp [][]wedge, buildOps uint64) *OAG {
	off := make([]uint32, len(adjTmp)+1)
	for a, es := range adjTmp {
		off[a+1] = off[a] + uint32(len(es))
	}
	o := &OAG{side: side, off: off, buildOps: buildOps}
	o.adj = make([]uint32, off[len(adjTmp)])
	o.w = make([]uint32, len(o.adj))
	for a, es := range adjTmp {
		for i, e := range es {
			o.adj[off[a]+uint32(i)] = e.b
			o.w[off[a]+uint32(i)] = e.w
		}
	}
	return o
}

// tiling returns chunks after checking that they tile [0, n) in ascending
// order, the precondition for race-free per-chunk construction; nil is one
// chunk over [0, n).
func tiling(chunks []hypergraph.Chunk, n uint32) []hypergraph.Chunk {
	if chunks == nil {
		return []hypergraph.Chunk{{Lo: 0, Hi: n}}
	}
	var next uint32
	for _, ch := range chunks {
		if ch.Lo != next || ch.Hi < ch.Lo {
			panic(fmt.Sprintf("oag: chunks do not tile [0, %d): chunk [%d, %d) after %d", n, ch.Lo, ch.Hi, next))
		}
		next = ch.Hi
	}
	if next != n {
		panic(fmt.Sprintf("oag: chunks cover [0, %d), not [0, %d)", next, n))
	}
	return chunks
}

// chunkIndex maps every node of a tiling of [0, n) to its chunk.
func chunkIndex(chunks []hypergraph.Chunk, n uint32) []int32 {
	idx := make([]int32, n)
	for c, ch := range chunks {
		for i := ch.Lo; i < ch.Hi; i++ {
			idx[i] = int32(c)
		}
	}
	return idx
}

func log2ceil(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b
}

// Side returns which side of the hypergraph the OAG abstracts.
func (o *OAG) Side() Side { return o.side }

// NumNodes returns the number of OAG nodes.
func (o *OAG) NumNodes() uint32 { return uint32(len(o.off) - 1) }

// NumEdges returns the number of directed CSR entries (2x undirected edges).
func (o *OAG) NumEdges() uint32 { return uint32(len(o.adj)) }

// Degree returns the OAG degree of node a.
func (o *OAG) Degree(a uint32) uint32 { return o.off[a+1] - o.off[a] }

// Offset returns the CSR offset of node a (for address modelling).
func (o *OAG) Offset(a uint32) uint32 { return o.off[a] }

// Neighbors returns node a's neighbor ids in descending-weight order.
// The slice aliases internal storage.
func (o *OAG) Neighbors(a uint32) []uint32 { return o.adj[o.off[a]:o.off[a+1]] }

// Weights returns the weights aligned with Neighbors(a).
func (o *OAG) Weights(a uint32) []uint32 { return o.w[o.off[a]:o.off[a+1]] }

// StorageBytes returns the size of the OAG_offset, OAG_edge and OAG_weight
// arrays, the Figure 21(b) overhead quantity.
func (o *OAG) StorageBytes() uint64 {
	return 4 * uint64(len(o.off)+len(o.adj)+len(o.w))
}

// BuildOps returns the abstract work units spent building the OAG, used by
// the preprocessing time model (Figure 21(a)).
func (o *OAG) BuildOps() uint64 { return o.buildOps }

// Validate checks CSR consistency, weight ordering, symmetry and the W_min
// threshold; used by property tests.
func (o *OAG) Validate(g *hypergraph.Bipartite, wMin uint32) error {
	if len(o.off) == 0 || o.off[0] != 0 {
		return fmt.Errorf("oag: offset array must start at 0")
	}
	n := o.NumNodes()
	for a := uint32(0); a < n; a++ {
		if o.off[a+1] < o.off[a] || o.off[a+1] > uint32(len(o.adj)) {
			return fmt.Errorf("oag: node %d offsets [%d, %d) out of order or range", a, o.off[a], o.off[a+1])
		}
	}
	if o.off[n] != uint32(len(o.adj)) || len(o.w) != len(o.adj) {
		return fmt.Errorf("oag: last offset %d, %d edges, %d weights disagree", o.off[n], len(o.adj), len(o.w))
	}
	for a := uint32(0); a < n; a++ {
		ns, ws := o.Neighbors(a), o.Weights(a)
		for i := range ns {
			if ns[i] >= n {
				return fmt.Errorf("oag: neighbor %d out of range", ns[i])
			}
			if ns[i] == a {
				return fmt.Errorf("oag: self loop at %d", a)
			}
			if ws[i] < wMin {
				return fmt.Errorf("oag: edge (%d,%d) weight %d below wMin %d", a, ns[i], ws[i], wMin)
			}
			if i > 0 && (ws[i] > ws[i-1] || (ws[i] == ws[i-1] && ns[i] <= ns[i-1])) {
				return fmt.Errorf("oag: neighbors of %d not in descending weight order", a)
			}
			// The per-node degree cap makes adjacency intentionally
			// asymmetric (a may keep b among its strongest neighbors while
			// b drops a), so only edge weights are validated, against the
			// hypergraph itself.
			if o.side == Hyperedges && g != nil {
				if got := countedOverlap(g, a, ns[i]); got != ws[i] {
					return fmt.Errorf("oag: edge (%d,%d) weight %d != overlap %d", a, ns[i], ws[i], got)
				}
			}
		}
	}
	return nil
}

// countedOverlap returns the overlap between hyperedges a and b as the
// counting pass measures it: shared vertices incident to more than
// HubSkipThreshold hyperedges contribute nothing, mirroring the hub skip in
// Build. OverlapSize (the exact intersection) over-counts on dense graphs
// where shared vertices cross the threshold.
func countedOverlap(g *hypergraph.Bipartite, a, b uint32) uint32 {
	na, nb := g.IncidentVertices(a), g.IncidentVertices(b)
	if len(na) > len(nb) {
		na, nb = nb, na
	}
	set := make(map[uint32]struct{}, len(na))
	for _, v := range na {
		set[v] = struct{}{}
	}
	var n uint32
	for _, v := range nb {
		if _, ok := set[v]; !ok {
			continue
		}
		if g.VertexDegree(v) > HubSkipThreshold {
			continue
		}
		n++
	}
	return n
}
