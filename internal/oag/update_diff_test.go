package oag

import (
	"math/rand"
	"testing"

	"chgraph/internal/hypergraph"
)

// diffState carries one evolving hypergraph plus its incrementally
// maintained OAGs through a sequence of batches, checking after every step
// that each updated OAG is byte-equal to a fresh build on the mutated graph
// — the heuristic-with-oracle contract: Update is never trusted by
// construction.
type diffState struct {
	g          *hypergraph.Bipartite
	hoag, voag *OAG
	wMin       uint32
	maxDeg     int
	parts      int
}

func chunksFor(n uint32, parts int) []hypergraph.Chunk {
	if parts <= 0 {
		return nil
	}
	return hypergraph.Chunks(n, parts)
}

func newDiffState(g *hypergraph.Bipartite, wMin uint32, maxDeg, parts int) *diffState {
	s := &diffState{g: g, wMin: wMin, maxDeg: maxDeg, parts: parts}
	s.hoag = build(g, Hyperedges, wMin, maxDeg, chunksFor(g.NumHyperedges(), parts), 1)
	s.voag = build(g, Vertices, wMin, maxDeg, chunksFor(g.NumVertices(), parts), 1)
	return s
}

// apply mutates the graph and incrementally updates both OAGs, failing the
// test if either diverges from a from-scratch build.
func (s *diffState) apply(t *testing.T, b hypergraph.Batch) {
	t.Helper()
	d, err := s.g.ApplyBatch(b)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	oldH := chunksFor(s.g.NumHyperedges(), s.parts)
	newH := chunksFor(d.New.NumHyperedges(), s.parts)
	vCh := chunksFor(d.New.NumVertices(), s.parts) // numV never changes

	gotH := update(s.hoag, s.wMin, s.maxDeg, Rewire{
		OldG: s.g, NewG: d.New,
		NodeRemap: d.HRemap, AddedNodes: d.AddedH,
		OldChunks: oldH, NewChunks: newH,
	})
	gotV := update(s.voag, s.wMin, s.maxDeg, Rewire{
		OldG: s.g, NewG: d.New,
		MidRemap: d.HRemap, AddedMids: d.AddedH,
		OldChunks: vCh, NewChunks: vCh,
	})
	wantH := build(d.New, Hyperedges, s.wMin, s.maxDeg, newH, 1)
	wantV := build(d.New, Vertices, s.wMin, s.maxDeg, vCh, 1)
	if !gotH.Equal(wantH) {
		t.Fatalf("incremental H-OAG differs from fresh build (wMin=%d maxDeg=%d parts=%d, -%d/+%d hyperedges)",
			s.wMin, s.maxDeg, s.parts, len(d.RemovedH), len(d.AddedH))
	}
	if !gotV.Equal(wantV) {
		t.Fatalf("incremental V-OAG differs from fresh build (wMin=%d maxDeg=%d parts=%d, -%d/+%d hyperedges)",
			s.wMin, s.maxDeg, s.parts, len(d.RemovedH), len(d.AddedH))
	}
	if !build(d.New, Hyperedges, s.wMin, s.maxDeg, newH, 3).Equal(wantH) ||
		!build(d.New, Vertices, s.wMin, s.maxDeg, vCh, 3).Equal(wantV) {
		t.Fatalf("parallel build differs from serial build (wMin=%d maxDeg=%d parts=%d)", s.wMin, s.maxDeg, s.parts)
	}
	if !matchesReference(wantH, referenceOAG(d.New, Hyperedges, s.wMin, s.maxDeg, newH)) ||
		!matchesReference(wantV, referenceOAG(d.New, Vertices, s.wMin, s.maxDeg, vCh)) {
		t.Fatalf("fresh build differs from the brute-force reference (wMin=%d maxDeg=%d parts=%d)", s.wMin, s.maxDeg, s.parts)
	}
	if err := gotH.Validate(d.New, s.wMin); err != nil {
		t.Fatalf("updated H-OAG invalid: %v", err)
	}
	s.g, s.hoag, s.voag = d.New, gotH, gotV
}

// randomBatch removes ~frac of the hyperedges and adds a comparable number
// of random new ones.
func randomBatch(rng *rand.Rand, g *hypergraph.Bipartite, frac float64) hypergraph.Batch {
	var b hypergraph.Batch
	numH := int(g.NumHyperedges())
	numV := int(g.NumVertices())
	for h := 0; h < numH; h++ {
		if rng.Float64() < frac {
			b.Remove = append(b.Remove, uint32(h))
		}
	}
	adds := rng.Intn(len(b.Remove) + 3)
	for i := 0; i < adds; i++ {
		sz := rng.Intn(7)
		var pins []uint32
		for k := 0; k < sz; k++ {
			pins = append(pins, uint32(rng.Intn(numV)))
		}
		b.Add = append(b.Add, pins)
	}
	return b
}

// TestUpdateDifferentialRandom runs random batch sequences across wMin,
// degree cap and chunking settings; every step checks the incremental
// update, the serial build and the parallel build against each other and
// the fresh build against the brute-force reference, on both OAG sides.
func TestUpdateDifferentialRandom(t *testing.T) {
	cfgs := []struct {
		wMin   uint32
		maxDeg int
		parts  int
	}{
		{1, 0, 0}, {1, 8, 0}, {2, 8, 1}, {1, 4, 3}, {3, 8, 3}, {2, 0, 4},
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := cfgs[int(seed)%len(cfgs)]
		s := newDiffState(randomHG(seed), cfg.wMin, cfg.maxDeg, cfg.parts)
		for step := 0; step < 4; step++ {
			s.apply(t, randomBatch(rng, s.g, 0.15))
		}
	}
}

// TestUpdateEmptyBatch pins the no-op path: identity remaps, nothing dirty,
// pure copy-through.
func TestUpdateEmptyBatch(t *testing.T) {
	s := newDiffState(randomHG(7), 1, 8, 3)
	s.apply(t, hypergraph.Batch{})
}

// TestUpdateRemoveThenReadd covers the id-compaction corner: the re-added
// hyperedge returns with a different id, so its neighbors' capped lists must
// re-sort around the new tie-break position.
func TestUpdateRemoveThenReadd(t *testing.T) {
	s := newDiffState(randomHG(3), 1, 2, 0)
	pins := append([]uint32(nil), s.g.IncidentVertices(1)...)
	s.apply(t, hypergraph.Batch{Remove: []uint32{1}})
	s.apply(t, hypergraph.Batch{Add: [][]uint32{pins}})
}

// TestUpdateLargeBatchFallsBack drives the dirty-majority rebuild path:
// removing most hyperedges must still yield a byte-equal OAG.
func TestUpdateLargeBatchFallsBack(t *testing.T) {
	s := newDiffState(randomHG(11), 1, 8, 2)
	var rm []uint32
	for h := uint32(0); h+1 < s.g.NumHyperedges(); h++ {
		rm = append(rm, h)
	}
	s.apply(t, hypergraph.Batch{Remove: rm})
}

// TestUpdateRemoveAll shrinks the node side to zero and grows it back.
func TestUpdateRemoveAll(t *testing.T) {
	s := newDiffState(hypergraph.MustBuild(5, [][]uint32{{0, 1, 2}, {1, 2, 3}}), 1, 8, 2)
	s.apply(t, hypergraph.Batch{Remove: []uint32{0, 1}})
	s.apply(t, hypergraph.Batch{Add: [][]uint32{{0, 1, 4}, {1, 2, 4}}})
}

// TestScratchReuseAcrossShapes is the satellite-4 regression: the pooled
// counting scratch is keyed only by capacity, so back-to-back builds of
// different-shaped graphs reuse one scatter array resliced to each graph's
// node count. Correctness rides entirely on the all-zero invariant putScratch
// documents; this test drives shrink → regrow → update sequences through the
// pool and checks every result against the scratch-free brute-force oracle.
func TestScratchReuseAcrossShapes(t *testing.T) {
	check := func(g *hypergraph.Bipartite, o *OAG) {
		t.Helper()
		want := bruteOverlaps(g, 1)
		var got int
		for a := uint32(0); a < o.NumNodes(); a++ {
			for i, nb := range o.Neighbors(a) {
				key := [2]uint32{a, nb}
				if a > nb {
					key = [2]uint32{nb, a}
				}
				if w, ok := want[key]; !ok || w != o.Weights(a)[i] {
					t.Fatalf("node %d neighbor %d: weight %d, brute force says %d (present %v)",
						a, nb, o.Weights(a)[i], want[key], ok)
				}
				got++
			}
		}
		if got != 2*len(want) {
			t.Fatalf("OAG has %d directed edges, brute force says %d", got, 2*len(want))
		}
	}

	big := randomHG(21)    // ~dozens of nodes: grows the pooled scatter array
	small := mutateSmall() // a handful of nodes: reslices it shorter
	for i := 0; i < 3; i++ {
		check(big, build(big, Hyperedges, 1, 0, nil, 1))
		check(small, build(small, Hyperedges, 1, 0, nil, 1))
		// Interleave the update path so its recount loop also inherits a
		// differently-shaped recycled scratch.
		d, err := small.ApplyBatch(hypergraph.Batch{Add: [][]uint32{{0, 1, 2}}})
		if err != nil {
			t.Fatal(err)
		}
		o := build(small, Hyperedges, 1, 0, nil, 1)
		up := update(o, 1, 0, Rewire{OldG: small, NewG: d.New, AddedNodes: d.AddedH})
		check(d.New, up)
		check(big, build(big, Hyperedges, 1, 0, nil, 1))
	}
}

func mutateSmall() *hypergraph.Bipartite {
	return hypergraph.MustBuild(4, [][]uint32{{0, 1, 2}, {1, 2, 3}, {0, 3}})
}

// TestUpdateMatchesAllBuildPaths pins the entry points against each other:
// Build at one and at several workers, the capped internal build and the
// Update wrapper must all agree on every chunking layout, BuildOps included
// for the builds.
func TestUpdateMatchesAllBuildPaths(t *testing.T) {
	g := randomHG(17)
	for _, parts := range []int{0, 1, 3} {
		ch := chunksFor(g.NumHyperedges(), parts)
		want := Build(g, Hyperedges, 2, ch, 1)
		for i, got := range []*OAG{
			build(g, Hyperedges, 2, DefaultMaxDegree, ch, 1),
			Build(g, Hyperedges, 2, ch, 4),
			build(g, Hyperedges, 2, DefaultMaxDegree, ch, 4),
		} {
			if !got.Equal(want) || got.BuildOps() != want.BuildOps() {
				t.Fatalf("parts=%d: build path %d disagrees with Build", parts, i)
			}
		}

		d, err := g.ApplyBatch(hypergraph.Batch{Remove: []uint32{2}, Add: [][]uint32{{0, 1, 2}}})
		if err != nil {
			t.Fatal(err)
		}
		newCh := chunksFor(d.New.NumHyperedges(), parts)
		rw := Rewire{OldG: g, NewG: d.New, NodeRemap: d.HRemap, AddedNodes: d.AddedH,
			OldChunks: ch, NewChunks: newCh}
		if got, fresh := Update(want, 2, rw), Build(d.New, Hyperedges, 2, newCh, 1); !got.Equal(fresh) {
			t.Fatalf("parts=%d: Update wrapper disagrees with fresh Build", parts)
		}
	}

	// Accessor smoke on a known fixture: side spellings, offsets, weights.
	o := Build(g, Vertices, 1, nil, 1)
	if Hyperedges.String() == Vertices.String() || o.Side() != Vertices {
		t.Fatalf("side accessors broken: %q %q %v", Hyperedges, Vertices, o.Side())
	}
	for a := uint32(0); a < o.NumNodes(); a++ {
		next := o.NumEdges()
		if a+1 < o.NumNodes() {
			next = o.Offset(a + 1)
		}
		if o.Offset(a)+o.Degree(a) != next {
			t.Fatalf("node %d: offset %d + degree %d misses next offset", a, o.Offset(a), o.Degree(a))
		}
		if len(o.Weights(a)) != len(o.Neighbors(a)) {
			t.Fatalf("node %d: %d weights for %d neighbors", a, len(o.Weights(a)), len(o.Neighbors(a)))
		}
	}
}

// TestUpdateChunkingAppears updates across a change of chunking itself —
// unchunked to chunked and back, and between chunk counts — which the dirty
// rules treat as an ordinary boundary shift. Splitting off or merging back
// a two-node tail chunk moves few nodes, so it runs the incremental path
// rather than the dirty-majority rebuild.
func TestUpdateChunkingAppears(t *testing.T) {
	whole := func(uint32) []hypergraph.Chunk { return nil }
	tail := func(n uint32) []hypergraph.Chunk {
		if n < 2 {
			return nil
		}
		return []hypergraph.Chunk{{Lo: 0, Hi: n - 2}, {Lo: n - 2, Hi: n}}
	}
	parts := func(k int) func(uint32) []hypergraph.Chunk {
		return func(n uint32) []hypergraph.Chunk { return chunksFor(n, k) }
	}
	layouts := [][2]func(uint32) []hypergraph.Chunk{
		{whole, tail}, {tail, whole}, {whole, parts(3)}, {parts(3), whole}, {parts(2), parts(4)},
	}
	for seed := int64(1); seed <= 6; seed++ {
		g := randomHG(seed)
		var batch hypergraph.Batch
		if seed%2 == 0 {
			batch.Remove = []uint32{0}
		}
		batch.Add = [][]uint32{{0, 1, 2}}
		d, err := g.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range layouts {
			for _, maxDeg := range []int{0, 4} {
				oldCh, newCh := l[0](g.NumHyperedges()), l[1](d.New.NumHyperedges())
				old := build(g, Hyperedges, 1, maxDeg, oldCh, 1)
				got := update(old, 1, maxDeg, Rewire{OldG: g, NewG: d.New, NodeRemap: d.HRemap, AddedNodes: d.AddedH,
					OldChunks: oldCh, NewChunks: newCh})
				if want := build(d.New, Hyperedges, 1, maxDeg, newCh, 1); !got.Equal(want) {
					t.Fatalf("seed %d layout %d maxDeg %d: update across a chunking change differs from a fresh build", seed, li, maxDeg)
				}
			}
		}
	}
}

// TestUpdateHubCrossing forces a mid across HubSkipThreshold in both
// directions: overlaps through the mid appear and disappear wholesale, which
// only the hub-flip dirty rule catches.
func TestUpdateHubCrossing(t *testing.T) {
	// Vertex 0 is shared by exactly HubSkipThreshold hyperedges {0,k}; they
	// also pairwise-overlap through nothing else, so each pair's weight is 1
	// via vertex 0 alone.
	numH := HubSkipThreshold
	pins := make([][]uint32, numH)
	for i := range pins {
		pins[i] = []uint32{0, uint32(i + 1)}
	}
	g := hypergraph.MustBuild(uint32(numH+2), pins)
	s := newDiffState(g, 1, 0, 0)
	// Adding one more hyperedge on vertex 0 pushes its degree past the
	// threshold: every pair loses its overlap edge.
	s.apply(t, hypergraph.Batch{Add: [][]uint32{{0, uint32(numH + 1)}}})
	if s.hoag.NumEdges() != 0 {
		t.Fatalf("hub crossing should have dropped all OAG edges, have %d", s.hoag.NumEdges())
	}
	// Removing it drops the degree back below: the edges all return.
	s.apply(t, hypergraph.Batch{Remove: []uint32{uint32(numH)}})
	if s.hoag.NumEdges() == 0 {
		t.Fatal("hub un-crossing should have restored the OAG edges")
	}
}
