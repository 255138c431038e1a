package oag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chgraph/internal/hypergraph"
)

func fig11() *hypergraph.Bipartite {
	// The paper's Figure 11(a)/Figure 1(a) example.
	return hypergraph.MustBuild(7, [][]uint32{
		{0, 4, 6},    // h0
		{1, 2, 3, 5}, // h1
		{0, 2, 4},    // h2
		{1, 3, 6},    // h3
	})
}

func TestFig11HOAGAtWmin1(t *testing.T) {
	g := fig11()
	o := build(g, Hyperedges, 1, 0, nil, 1)
	// Expected undirected edges: (h0,h2) w2, (h0,h3) w1 {v6}, (h1,h2) w1
	// {v2}, (h1,h3) w2 {v1,v3}.
	wantW := map[[2]uint32]uint32{
		{0, 2}: 2, {0, 3}: 1, {1, 2}: 1, {1, 3}: 2,
	}
	if o.NumEdges() != uint32(2*len(wantW)) {
		t.Fatalf("edges = %d, want %d", o.NumEdges(), 2*len(wantW))
	}
	for pair, w := range wantW {
		found := false
		for i, nb := range o.Neighbors(pair[0]) {
			if nb == pair[1] {
				found = true
				if o.Weights(pair[0])[i] != w {
					t.Errorf("weight(%v) = %d, want %d", pair, o.Weights(pair[0])[i], w)
				}
			}
		}
		if !found {
			t.Errorf("edge %v missing", pair)
		}
	}
	if err := o.Validate(g, 1); err != nil {
		t.Fatal(err)
	}
}

func TestWMinThreshold(t *testing.T) {
	g := fig11()
	o := build(g, Hyperedges, 2, 0, nil, 1)
	// Only the weight-2 edges survive.
	if o.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4 at wMin=2", o.NumEdges())
	}
	o = build(g, Hyperedges, 3, 0, nil, 1)
	if o.NumEdges() != 0 {
		t.Fatalf("edges = %d, want 0 at wMin=3", o.NumEdges())
	}
}

func TestVertexOAG(t *testing.T) {
	g := fig11()
	o := build(g, Vertices, 1, 0, nil, 1)
	// v0 and v4 share h0 and h2 => weight 2.
	found := false
	for i, nb := range o.Neighbors(0) {
		if nb == 4 {
			found = true
			if o.Weights(0)[i] != 2 {
				t.Errorf("weight(v0,v4) = %d, want 2", o.Weights(0)[i])
			}
		}
	}
	if !found {
		t.Fatal("edge (v0,v4) missing from V-OAG")
	}
}

func TestWeightDescendingOrder(t *testing.T) {
	g := randomHG(7)
	o := build(g, Hyperedges, 1, 0, nil, 1)
	for a := uint32(0); a < o.NumNodes(); a++ {
		ws := o.Weights(a)
		for i := 1; i < len(ws); i++ {
			if ws[i] > ws[i-1] {
				t.Fatalf("node %d neighbors not weight-descending: %v", a, ws)
			}
		}
	}
}

func TestDegreeCap(t *testing.T) {
	// A clique: 12 hyperedges sharing the same 5 vertices.
	hs := make([][]uint32, 12)
	for i := range hs {
		hs[i] = []uint32{0, 1, 2, 3, 4}
	}
	g := hypergraph.MustBuild(5, hs)
	o := build(g, Hyperedges, 3, 4, nil, 1)
	for a := uint32(0); a < o.NumNodes(); a++ {
		if o.Degree(a) > 4 {
			t.Fatalf("degree %d exceeds cap", o.Degree(a))
		}
	}
	// Retained neighbors must be the strongest (all equal here), and the
	// graph must still connect all clique members through chains of
	// retained edges.
	if o.NumEdges() != 12*4 {
		t.Fatalf("edges = %d, want 48", o.NumEdges())
	}
}

func TestChunkRestriction(t *testing.T) {
	g := fig11()
	// Chunks {h0,h1} and {h2,h3}: every overlap edge crosses, so the
	// per-chunk OAG is empty at wMin=1 except... h0-h2 cross, h0-h3 cross,
	// h1-h2 cross, h1-h3 cross: all cross.
	chunks := []hypergraph.Chunk{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}}
	o := build(g, Hyperedges, 1, 0, chunks, 1)
	if o.NumEdges() != 0 {
		t.Fatalf("edges = %d, want 0 (all overlaps cross chunks)", o.NumEdges())
	}
	// Single chunk keeps everything.
	o = build(g, Hyperedges, 1, 0, []hypergraph.Chunk{{Lo: 0, Hi: 4}}, 1)
	if o.NumEdges() != 8 {
		t.Fatalf("edges = %d, want 8", o.NumEdges())
	}
}

// TestChunksMustTile pins that a chunk list which does not tile the node
// range panics instead of building a different OAG: gaps, overlaps, short
// and long covers, each at one and at several workers.
func TestChunksMustTile(t *testing.T) {
	g := fig11() // 4 hyperedges
	for _, chunks := range [][]hypergraph.Chunk{
		{},                               // covers nothing
		{{Lo: 0, Hi: 2}},                 // short
		{{Lo: 0, Hi: 5}},                 // long
		{{Lo: 0, Hi: 2}, {Lo: 3, Hi: 4}}, // gap
		{{Lo: 0, Hi: 3}, {Lo: 2, Hi: 4}}, // overlap
		{{Lo: 2, Hi: 4}, {Lo: 0, Hi: 2}}, // out of order
	} {
		for _, workers := range []int{1, 3} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("chunks %v workers %d: Build did not panic", chunks, workers)
					}
				}()
				Build(g, Hyperedges, 1, chunks, workers)
			}()
		}
	}
}

func randomHG(seed int64) *hypergraph.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	numV := uint32(rng.Intn(40) + 2)
	hs := make([][]uint32, rng.Intn(30)+2)
	for i := range hs {
		sz := rng.Intn(8)
		for k := 0; k < sz; k++ {
			hs[i] = append(hs[i], uint32(rng.Intn(int(numV))))
		}
	}
	return hypergraph.MustBuild(numV, hs)
}

// bruteOverlaps computes the reference OAG edge set.
func bruteOverlaps(g *hypergraph.Bipartite, wMin uint32) map[[2]uint32]uint32 {
	out := map[[2]uint32]uint32{}
	for a := uint32(0); a < g.NumHyperedges(); a++ {
		for b := a + 1; b < g.NumHyperedges(); b++ {
			if w := g.OverlapSize(a, b); w >= wMin {
				out[[2]uint32{a, b}] = w
			}
		}
	}
	return out
}

func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64, wMinRaw uint8) bool {
		wMin := uint32(wMinRaw%3) + 1
		g := randomHG(seed)
		o := build(g, Hyperedges, wMin, 0, nil, 1)
		want := bruteOverlaps(g, wMin)
		// Uncapped: every brute edge must appear in both directions with
		// the right weight, and nothing else.
		var got int
		for a := uint32(0); a < o.NumNodes(); a++ {
			for i, nb := range o.Neighbors(a) {
				key := [2]uint32{a, nb}
				if a > nb {
					key = [2]uint32{nb, a}
				}
				w, ok := want[key]
				if !ok || w != o.Weights(a)[i] {
					return false
				}
				got++
			}
		}
		return got == 2*len(want) && o.Validate(g, wMin) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStorageAndBuildOps(t *testing.T) {
	g := fig11()
	o := build(g, Hyperedges, 1, 0, nil, 1)
	want := uint64(4 * (5 + 8 + 8)) // OAG_offset (n+1), OAG_edge and OAG_weight (2 per edge)
	if o.StorageBytes() != want {
		t.Fatalf("storage = %d, want %d", o.StorageBytes(), want)
	}
	if o.BuildOps() == 0 {
		t.Fatal("build ops not counted")
	}
}
