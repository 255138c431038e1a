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
// own OAG; Build therefore optionally drops edges that cross chunk
// boundaries, which is equivalent to building one OAG per chunk.
package oag

import (
	"fmt"
	"sort"
	"sync"
	"unsafe"

	"chgraph/internal/hypergraph"
	"chgraph/internal/par"
)

// DefaultWMin is the paper's default overlap threshold (§IV-A): edges with
// weight below 3 are discarded, trading a negligible locality loss for a
// much smaller OAG.
const DefaultWMin = 3

// DefaultMaxDegree bounds each node's retained OAG neighbors to its
// strongest few overlaps. The paper bounds OAG size with W_min alone
// (Figure 21(b): +13-20% storage over the bipartite CSR); on densely
// clustered hypergraphs W_min leaves near-clique OAGs, so we additionally
// keep only the top-weight neighbors per node — the chain generator only
// ever follows a node's strongest unvisited neighbor, so truncating the
// weak tail preserves chains while keeping the OAG within the paper's
// storage envelope.
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

// inlineDeg is the number of neighbor slots carried inside a nodeHot
// record. The default per-node cap (DefaultMaxDegree = 8) fits inline with
// room to spare; only uncapped builds ever spill.
const inlineDeg = 14

// nodeHotBytes is the record size — exactly one cache line.
const nodeHotBytes = 64

// nodeHot is the per-node hot record of the cache-conscious OAG layout
// (DESIGN.md §17): everything the chain generator's neighbor scan touches —
// the node's CSR offset, degree and neighbor ids — packed into a single
// 64-byte cache line. The generator's hot loop (core.scanNeighbor) follows
// chains node to node in data-dependent order; with the historical
// off/adj split each visit touched two or three lines, with this layout it
// touches one. Nodes with more than inlineDeg neighbors (possible only in
// uncapped builds) store their list in the spill array and keep its start
// index in nbr[0].
type nodeHot struct {
	off uint32
	deg uint32
	nbr [inlineDeg]uint32
}

// The layout contract above is load-bearing: a nodeHot must be exactly one
// cache line.
var _ = [1]struct{}{}[nodeHotBytes-unsafe.Sizeof(nodeHot{})]

// OAG is a weighted undirected overlap graph. Logically it is still the
// paper's CSR (Offset/Weight index a flat entry space, which the engines'
// address modelling relies on); physically the hot fields live in one
// 64-byte record per node and the weights — never read while generating
// chains, only during address-free overlap checks and validation — are
// split into a cold side table aligned with the logical CSR entry index.
// Neighbor lists are sorted by descending weight (ties broken by ascending
// node id).
type OAG struct {
	side  Side
	n     uint32
	hot   []nodeHot
	spill []uint32
	// w is the cold side table: the weight of entry i of the logical CSR.
	w []uint32

	// buildOps counts the abstract work units spent constructing the OAG
	// (pair touches + sort comparisons); the preprocessing cost model of
	// Figure 21/22 converts this to cycles.
	buildOps uint64
}

// Build constructs the OAG for one side of g with the given overlap
// threshold wMin, keeping at most DefaultMaxDegree neighbors per node. Use
// BuildCapped to override the cap. If chunks is non-empty, edges crossing
// chunk boundaries are dropped (per-chunk OAGs, §IV-B); nodes keep their
// global ids.
func Build(g *hypergraph.Bipartite, side Side, wMin uint32, chunks []hypergraph.Chunk) *OAG {
	return BuildCapped(g, side, wMin, DefaultMaxDegree, chunks)
}

// unpackSides decodes both incidence sides of g once and returns the
// (neighborsOf, incidentOf) pair for building the given side's OAG: node
// a's mids, and a mid's nodes. The counting loops read every list, mostly
// out of order, so one flat decode beats a cursor's per-list block seek.
// The pair is read-only and shared by parallel workers; it lives for one
// build.
func unpackSides(g *hypergraph.Bipartite, side Side) (neighborsOf, incidentOf func(uint32) []uint32) {
	h, v := g.PackedH().Unpack(), g.PackedV().Unpack()
	if side == Hyperedges {
		return h.List, v.List
	}
	return v.List, h.List
}

// BuildCapped is Build with an explicit per-node neighbor cap (0 = no cap).
func BuildCapped(g *hypergraph.Bipartite, side Side, wMin uint32, maxDeg int, chunks []hypergraph.Chunk) *OAG {
	if wMin == 0 {
		wMin = 1
	}
	var n uint32
	if side == Hyperedges {
		n = g.NumHyperedges()
	} else {
		n = g.NumVertices()
	}
	neighborsOf, incidentOf := unpackSides(g, side)
	return buildFrom(side, n, wMin, maxDeg, chunks, neighborsOf, incidentOf)
}

// buildFrom is BuildCapped's counting build over already decoded sides
// (wMin >= 1).
func buildFrom(side Side, n, wMin uint32, maxDeg int, chunks []hypergraph.Chunk, neighborsOf, incidentOf func(uint32) []uint32) *OAG {
	chunkOf := makeChunkIndex(n, chunks)

	o := &OAG{side: side, n: n}

	// Counting pass per node: for node a, walk a's incidence lists two
	// hops to find every b>a sharing at least one incidence, accumulating
	// exact overlap counts in a scatter array.
	scr := getScratch(n)
	count, touched := scr.count, scr.touched
	adjTmp := make([][]wedge, n)

	for a := uint32(0); a < n; a++ {
		touched = touched[:0]
		for _, mid := range neighborsOf(a) {
			peers := incidentOf(mid)
			o.buildOps++
			if len(peers) > HubSkipThreshold {
				continue
			}
			for _, b := range peers {
				o.buildOps++
				if b <= a {
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
			if chunkOf != nil && chunkOf[a] != chunkOf[b] {
				continue
			}
			adjTmp[a] = append(adjTmp[a], wedge{b, w})
			adjTmp[b] = append(adjTmp[b], wedge{a, w})
		}
	}

	scr.touched = touched
	putScratch(scr)

	for a := uint32(0); a < n; a++ {
		o.buildOps += sortAndCap(adjTmp, a, maxDeg)
	}
	o.assemble(adjTmp)
	return o
}

// wedge is one weighted adjacency entry during construction.
type wedge struct{ b, w uint32 }

// buildScratch is the counting-pass scatter state. The count array is
// length n but provably all-zero between nodes (the flush loop resets every
// touched entry), so a recycled one needs no clearing — only growth.
type buildScratch struct {
	count   []uint32
	touched []uint32
}

// scratchPool recycles counting-pass scratch across chunks and across
// builds; without it BuildParallel allocated an n-element scatter array per
// chunk.
var scratchPool = sync.Pool{New: func() any { return &buildScratch{} }}

// getScratch borrows a scratch sized for n nodes. Reuse is keyed only by
// capacity: a recycled count array is resliced, not reallocated, so its
// contents carry over between builds of different-shaped graphs. That is
// sound solely because of the all-zero invariant putScratch documents — the
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

// putScratch returns a scratch to the pool. The caller must have restored
// the all-zero count invariant (every counting loop's flush resets each
// touched entry); touched is truncated here so no stale node ids leak into
// the next borrow. All return paths — serial build, parallel per-chunk
// build, incremental update — go through this one helper so a new caller
// cannot silently skip the invariant.
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

// assemble flattens the per-node adjacency into the hot records, the spill
// array and the cold weight table.
func (o *OAG) assemble(adjTmp [][]wedge) {
	var total, spillLen uint32
	for a := uint32(0); a < o.n; a++ {
		d := uint32(len(adjTmp[a]))
		total += d
		if d > inlineDeg {
			spillLen += d
		}
	}
	o.hot = make([]nodeHot, o.n)
	o.spill = make([]uint32, 0, spillLen)
	o.w = make([]uint32, 0, total)
	var off uint32
	for a := uint32(0); a < o.n; a++ {
		es := adjTmp[a]
		h := &o.hot[a]
		h.off, h.deg = off, uint32(len(es))
		off += h.deg
		if h.deg <= inlineDeg {
			for i, e := range es {
				h.nbr[i] = e.b
			}
		} else {
			h.nbr[0] = uint32(len(o.spill))
			for _, e := range es {
				o.spill = append(o.spill, e.b)
			}
		}
		for _, e := range es {
			o.w = append(o.w, e.w)
		}
	}
}

// BuildParallel is Build with host-side parallelism: per-chunk OAG
// construction fans out across at most workers goroutines. Because chunks
// drop all cross-chunk edges, every chunk's subgraph is independent and the
// result — adjacency, weights, and BuildOps accounting — is identical to the
// serial Build on the same inputs. workers <= 1, a missing or non-tiling
// chunk list, or a single chunk all fall back to the serial path.
func BuildParallel(g *hypergraph.Bipartite, side Side, wMin uint32, chunks []hypergraph.Chunk, workers int) *OAG {
	return BuildParallelCapped(g, side, wMin, DefaultMaxDegree, chunks, workers)
}

// BuildParallelCapped is BuildParallel with an explicit per-node neighbor
// cap (0 = no cap).
func BuildParallelCapped(g *hypergraph.Bipartite, side Side, wMin uint32, maxDeg int, chunks []hypergraph.Chunk, workers int) *OAG {
	if wMin == 0 {
		wMin = 1
	}
	var n uint32
	if side == Hyperedges {
		n = g.NumHyperedges()
	} else {
		n = g.NumVertices()
	}
	if workers <= 1 || len(chunks) <= 1 || !chunksTile(chunks, n) {
		return BuildCapped(g, side, wMin, maxDeg, chunks)
	}

	o := &OAG{side: side, n: n}
	adjTmp := make([][]wedge, n)
	chunkOps := make([]uint64, len(chunks))
	neighborsOf, incidentOf := unpackSides(g, side)

	par.For(workers, len(chunks), func(ci int) {
		ch := chunks[ci]
		// The counting pass is the serial one restricted to this chunk's
		// node range; within-chunk peers are b in (a, ch.Hi), so all writes
		// to adjTmp land inside [ch.Lo, ch.Hi) and never race. The scatter
		// scratch is pooled per worker instead of allocated per chunk.
		scr := getScratch(n)
		count, touched := scr.count, scr.touched
		var ops uint64
		for a := ch.Lo; a < ch.Hi && a < n; a++ {
			touched = touched[:0]
			for _, mid := range neighborsOf(a) {
				peers := incidentOf(mid)
				ops++
				if len(peers) > HubSkipThreshold {
					continue
				}
				for _, b := range peers {
					ops++
					if b <= a {
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
				if b >= ch.Hi {
					continue // cross-chunk edge (b > a >= ch.Lo)
				}
				adjTmp[a] = append(adjTmp[a], wedge{b, w})
				adjTmp[b] = append(adjTmp[b], wedge{a, w})
			}
		}
		scr.touched = touched
		putScratch(scr)
		// Both endpoints of every surviving edge live in this chunk, so once
		// the chunk's counting pass completes its adjacency is final: sort
		// and cap here, inside the worker.
		for a := ch.Lo; a < ch.Hi && a < n; a++ {
			ops += sortAndCap(adjTmp, a, maxDeg)
		}
		chunkOps[ci] = ops
	})

	for _, ops := range chunkOps {
		o.buildOps += ops
	}
	o.assemble(adjTmp)
	return o
}

// chunksTile reports whether chunks exactly tile [0, n) in ascending order,
// the precondition for race-free per-chunk construction.
func chunksTile(chunks []hypergraph.Chunk, n uint32) bool {
	var next uint32
	for _, ch := range chunks {
		if ch.Lo != next || ch.Hi < ch.Lo {
			return false
		}
		next = ch.Hi
	}
	return next >= n
}

func makeChunkIndex(n uint32, chunks []hypergraph.Chunk) []int32 {
	if len(chunks) == 0 {
		return nil
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	for c, ch := range chunks {
		for i := ch.Lo; i < ch.Hi && i < n; i++ {
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
func (o *OAG) NumNodes() uint32 { return o.n }

// NumEdges returns the number of directed CSR entries (2x undirected edges).
func (o *OAG) NumEdges() uint32 { return uint32(len(o.w)) }

// Degree returns the OAG degree of node a.
func (o *OAG) Degree(a uint32) uint32 { return o.hot[a].deg }

// Offset returns the logical CSR offset of node a (for address modelling).
func (o *OAG) Offset(a uint32) uint32 { return o.hot[a].off }

// Neighbors returns node a's neighbor ids in descending-weight order.
// The slice aliases internal storage.
func (o *OAG) Neighbors(a uint32) []uint32 {
	h := &o.hot[a]
	if h.deg <= inlineDeg {
		return h.nbr[:h.deg]
	}
	return o.spill[h.nbr[0] : h.nbr[0]+h.deg]
}

// Weights returns the weights aligned with Neighbors(a).
func (o *OAG) Weights(a uint32) []uint32 {
	h := &o.hot[a]
	return o.w[h.off : h.off+h.deg]
}

// Weight returns the weight of the i-th logical CSR entry.
func (o *OAG) Weight(i uint32) uint32 { return o.w[i] }

// StorageBytes returns the OAG's memory footprint (hot node records + spill
// + cold weight table), the Figure 21(b) overhead quantity.
func (o *OAG) StorageBytes() uint64 {
	return nodeHotBytes*uint64(len(o.hot)) + 4*uint64(len(o.spill)+len(o.w))
}

// BuildOps returns the abstract work units spent building the OAG, used by
// the preprocessing time model (Figure 21(a)).
func (o *OAG) BuildOps() uint64 { return o.buildOps }

// Validate checks CSR consistency, weight ordering, symmetry and the W_min
// threshold; used by property tests.
func (o *OAG) Validate(g *hypergraph.Bipartite, wMin uint32) error {
	if len(o.hot) != int(o.n) {
		return fmt.Errorf("oag: hot record count %d != n %d", len(o.hot), o.n)
	}
	type key struct{ a, b uint32 }
	seen := make(map[key]uint32)
	var off uint32
	for a := uint32(0); a < o.n; a++ {
		h := &o.hot[a]
		if h.off != off {
			return fmt.Errorf("oag: node %d offset %d != entry cursor %d", a, h.off, off)
		}
		off += h.deg
		if h.deg > inlineDeg && uint64(h.nbr[0])+uint64(h.deg) > uint64(len(o.spill)) {
			return fmt.Errorf("oag: node %d spill list overruns", a)
		}
		ns, ws := o.Neighbors(a), o.Weights(a)
		for i := range ns {
			if ns[i] >= o.n {
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
			seen[key{a, ns[i]}] = ws[i]
		}
	}
	if off != uint32(len(o.w)) {
		return fmt.Errorf("oag: degree sum %d != weight table length %d", off, len(o.w))
	}
	// The per-node degree cap makes adjacency intentionally asymmetric (a
	// may keep b among its strongest neighbors while b drops a), so only
	// edge weights are validated, against the hypergraph itself.
	for k, w := range seen {
		if o.side == Hyperedges && g != nil {
			if got := countedOverlap(g, k.a, k.b); got != w {
				return fmt.Errorf("oag: edge (%d,%d) weight %d != overlap %d", k.a, k.b, w, got)
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
