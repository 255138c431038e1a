package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chgraph/internal/bitset"
	"chgraph/internal/hypergraph"
	"chgraph/internal/oag"
)

func fig1() *hypergraph.Bipartite {
	return hypergraph.MustBuild(7, [][]uint32{
		{0, 4, 6},    // h0
		{1, 2, 3, 5}, // h1
		{0, 2, 4},    // h2
		{1, 3, 6},    // h3
	})
}

func allActive(n uint32) bitset.Bitmap {
	b := bitset.New(n)
	for i := uint32(0); i < n; i++ {
		b.Set(i)
	}
	return b
}

// TestPaperChainExample reproduces §IV-B: with all four hyperedges active
// and W_min=1, the chain rooted at h0 is <h0, h2, h1, h3>.
func TestPaperChainExample(t *testing.T) {
	g := fig1()
	o := oag.Build(g, oag.Hyperedges, 1, nil, 1)
	cs := Generate(o, 0, 4, allActive(4), DefaultDMax, nil)
	if cs.NumChains() != 1 {
		t.Fatalf("chains = %d, want 1", cs.NumChains())
	}
	want := []uint32{0, 2, 1, 3}
	got := cs.Chain(0)
	if len(got) != 4 {
		t.Fatalf("chain = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v, want %v (paper example)", got, want)
		}
	}
}

// chainInvariants checks the DESIGN.md chain properties for an arbitrary
// generation run.
func chainInvariants(t *testing.T, o *oag.OAG, lo, hi uint32, active bitset.Bitmap, dMax int) ChainSet {
	t.Helper()
	orig := active.Clone()
	cs := Generate(o, lo, hi, active, dMax, nil)

	// Every originally-active node in [lo,hi) appears exactly once.
	seen := map[uint32]int{}
	for _, n := range cs.Queue {
		seen[n]++
		if n < lo || n >= hi {
			t.Fatalf("node %d outside chunk [%d,%d)", n, lo, hi)
		}
		if !orig.Get(n) {
			t.Fatalf("inactive node %d scheduled", n)
		}
	}
	orig.ForEachSet(lo, hi, func(i uint32) {
		if seen[i] != 1 {
			t.Fatalf("active node %d scheduled %d times", i, seen[i])
		}
	})
	// The consumed bitmap has no active nodes left in range.
	if active.CountRange(lo, hi) != 0 {
		t.Fatal("active bits left after generation")
	}
	// Chain structure: starts are monotone and cover the queue; every
	// non-root element is an OAG neighbor of some earlier element of its
	// chain (depth-first exploration from the root).
	for j := 0; j < cs.NumChains(); j++ {
		c := cs.Chain(j)
		if len(c) == 0 {
			t.Fatal("empty chain")
		}
		for i := 1; i < len(c); i++ {
			ok := false
			for k := 0; k < i && !ok; k++ {
				for _, nb := range o.Neighbors(c[k]) {
					if nb == c[i] {
						ok = true
						break
					}
				}
			}
			if !ok {
				t.Fatalf("chain %d element %d (%d) not adjacent to any predecessor", j, i, c[i])
			}
		}
	}
	return cs
}

func TestChainInvariantsFig1(t *testing.T) {
	g := fig1()
	for _, side := range []oag.Side{oag.Hyperedges, oag.Vertices} {
		n := g.NumHyperedges()
		if side == oag.Vertices {
			n = g.NumVertices()
		}
		o := oag.Build(g, side, 1, nil, 1)
		chainInvariants(t, o, 0, n, allActive(n), DefaultDMax)
	}
}

func TestQuickChainInvariants(t *testing.T) {
	f := func(seed int64, dMaxRaw, frontierBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		numV := uint32(rng.Intn(30) + 2)
		hs := make([][]uint32, rng.Intn(40)+2)
		for i := range hs {
			sz := rng.Intn(6)
			for k := 0; k < sz; k++ {
				hs[i] = append(hs[i], uint32(rng.Intn(int(numV))))
			}
		}
		g := hypergraph.MustBuild(numV, hs)
		n := g.NumHyperedges()
		o := oag.Build(g, oag.Hyperedges, 1+uint32(dMaxRaw%2), nil, 1)
		active := bitset.New(n)
		for i := uint32(0); i < n; i++ {
			if rng.Intn(4) > 0 {
				active.Set(i)
			}
		}
		dMax := int(dMaxRaw%20) + 1
		tt := &testing.T{}
		chainInvariants(tt, o, 0, n, active, dMax)
		return !tt.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDMaxBoundsStackDepth(t *testing.T) {
	// A clique of 8: with dMax 3, chains flush at stack depth 3, so chain
	// lengths stay <= 3.
	hs := make([][]uint32, 8)
	for i := range hs {
		hs[i] = []uint32{0, 1, 2, 3}
	}
	g := hypergraph.MustBuild(4, hs)
	o := oag.Build(g, oag.Hyperedges, 3, nil, 1)
	cs := Generate(o, 0, 8, allActive(8), 3, nil)
	for j := 0; j < cs.NumChains(); j++ {
		if len(cs.Chain(j)) > 3 {
			t.Fatalf("chain longer than dMax: %v", cs.Chain(j))
		}
	}
}

func TestBacktrackingExtendsChains(t *testing.T) {
	// OAG shape: r--a, a--a2, r--b. A greedy walk r->a->a2 dead-ends; the
	// hardware stack backtracks to r and continues the SAME chain with b
	// (§V-B: the stack keeps each level's offsets and neighbor cacheline).
	g := hypergraph.MustBuild(9, [][]uint32{
		{0, 1, 2}, // h0 = r
		{0, 3, 4}, // h1 = a   (shares v0 with r)
		{3, 5, 6}, // h2 = a2  (shares v3 with a)
		{1, 7, 8}, // h3 = b   (shares v1 with r)
	})
	o := oag.Build(g, oag.Hyperedges, 1, nil, 1)
	cs := Generate(o, 0, 4, allActive(4), DefaultDMax, nil)
	if cs.NumChains() != 1 || len(cs.Chain(0)) != 4 {
		t.Fatalf("expected one chain of 4 via backtracking, got %v", cs.Queue)
	}
	if cs.Chain(0)[0] != 0 || cs.Chain(0)[3] != 3 {
		t.Fatalf("chain = %v, want [0 1 2 3] or [0 1|3 ...] ending with the backtracked branch", cs.Chain(0))
	}
}

// visitRecorder records visitor callbacks in order.
type visitRecorder struct {
	events []string
}

func (v *visitRecorder) RootScan(w uint32)   { v.events = append(v.events, "scan") }
func (v *visitRecorder) Select(n uint32)     { v.events = append(v.events, "select") }
func (v *visitRecorder) Offsets(n uint32)    { v.events = append(v.events, "offsets") }
func (v *visitRecorder) Inspect(c, n uint32) { v.events = append(v.events, "inspect") }
func (v *visitRecorder) ChainEnd()           { v.events = append(v.events, "end") }

func TestVisitorEventCounts(t *testing.T) {
	g := fig1()
	o := oag.Build(g, oag.Hyperedges, 1, nil, 1)
	rec := &visitRecorder{}
	cs := Generate(o, 0, 4, allActive(4), DefaultDMax, rec)
	var selects, ends int
	for _, e := range rec.events {
		switch e {
		case "select":
			selects++
		case "end":
			ends++
		}
	}
	if selects != len(cs.Queue) {
		t.Fatalf("selects = %d, queue = %d", selects, len(cs.Queue))
	}
	if ends != cs.NumChains() {
		t.Fatalf("ends = %d, chains = %d", ends, cs.NumChains())
	}
}
