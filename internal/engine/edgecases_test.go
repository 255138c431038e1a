package engine

import (
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/hypergraph"
	"chgraph/internal/sim/system"
)

// Degenerate inputs must not crash or deadlock any engine.
func TestDegenerateGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *hypergraph.Bipartite
	}{
		{"single-vertex-no-edges", hypergraph.MustBuild(1, nil)},
		{"empty-hyperedges", hypergraph.MustBuild(3, [][]uint32{{}, {}})},
		{"one-incidence", hypergraph.MustBuild(2, [][]uint32{{0}})},
		{"self-contained", hypergraph.MustBuild(4, [][]uint32{{0, 1, 2, 3}})},
		{"duplicated-hyperedges", hypergraph.MustBuild(3, [][]uint32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}})},
		{"isolated-vertices", hypergraph.MustBuild(10, [][]uint32{{0, 1}})},
	}
	for _, c := range cases {
		prep := Prepare(c.g, 2, 1)
		sys := testSys()
		sys.Cores = 2
		for _, kind := range allKinds {
			for _, algoName := range []string{"BFS", "PR", "CC", "MIS", "k-core", "BC"} {
				alg, _ := algorithms.ByName(algoName)
				if _, err := Run(c.g, alg, Options{Kind: kind, Sys: sys, Prep: prep, WMin: 1}); err != nil {
					t.Fatalf("%s/%v/%s: %v", c.name, kind, algoName, err)
				}
			}
		}
	}
}

// A frontier that immediately empties (unreachable source side) must
// terminate every engine after the first iteration.
func TestImmediateConvergence(t *testing.T) {
	g := hypergraph.MustBuild(4, [][]uint32{{1, 2}})
	prep := Prepare(g, 2, 1)
	sys := testSys()
	sys.Cores = 2
	for _, kind := range allKinds {
		// BFS from vertex 0, which has no hyperedges: one iteration.
		res, err := Run(g, algorithms.NewBFS(0), Options{Kind: kind, Sys: sys, Prep: prep, WMin: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations > 1 {
			t.Fatalf("%v ran %d iterations from an isolated source", kind, res.Iterations)
		}
	}
}

// Chain parameters at their extremes must stay correct.
func TestExtremeChainParameters(t *testing.T) {
	g := smallHG(5)
	want := algorithms.OracleCC(g)
	for _, dmax := range []int{1, 2, 64} {
		for _, wmin := range []uint32{1, 9} {
			prep := Prepare(g, 4, wmin)
			res, err := Run(g, algorithms.NewCC(), Options{Kind: ChGraph, Sys: testSys(), Prep: prep, WMin: wmin, DMax: dmax})
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if res.State.VertexVal[v] != want[v] {
					t.Fatalf("dmax=%d wmin=%d: wrong CC labels", dmax, wmin)
				}
			}
		}
	}
}

// Tiny FIFO capacities must throttle but never deadlock or corrupt. The
// capacities are model constants, so the test drives BFS through the
// Instance API and shrinks every compiled phase's chain and bipartite-edge
// FIFOs to one entry before the phase replays.
func TestTinyFIFOs(t *testing.T) {
	g := smallHG(17)
	in, err := NewInstance(g, Options{Kind: ChGraph, Sys: testSys(), Prep: Prepare(g, 4, 1), WMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	alg := algorithms.NewBFS(0)
	s := algorithms.NewState(g)
	frontierV := bitset.New(g.NumVertices())
	alg.Init(s, frontierV)
	shrunk := 0
	replay := func(st *Step, fn edgeFunc, next bitset.Bitmap) {
		drainStep(st, s, fn, next)
		for _, c := range st.cc {
			for _, a := range c.agents {
				for _, f := range []*system.FIFO{a.In, a.Out} {
					if f != nil && f.Cap != 1 {
						f.Cap = 1
						shrunk++
					}
				}
			}
		}
		st.Commit()
	}
	for frontierV.Count() > 0 {
		alg.BeforeHyperedgePhase(s)
		frontierE := bitset.New(g.NumHyperedges())
		replay(in.BeginHyperedgeComputation(frontierV, frontierE), alg.HF, frontierE)
		alg.BeforeVertexPhase(s)
		nextV := bitset.New(g.NumVertices())
		replay(in.BeginVertexComputation(frontierE, nextV), alg.VF, nextV)
		s.Iter++
		in.AdvanceIteration()
		done := alg.AfterVertexPhase(s, nextV)
		frontierV = nextV
		if done {
			break
		}
	}
	in.Finish()
	if shrunk == 0 {
		t.Fatal("no FIFO was shrunk")
	}
	want := algorithms.OracleBFS(g, 0)
	for v := range want {
		if s.VertexVal[v] != want[v] {
			t.Fatal("tiny FIFOs corrupted the result")
		}
	}
}

// Single-core runs must work (no cross-core coupling assumptions).
func TestSingleCore(t *testing.T) {
	g := smallHG(23)
	prep := Prepare(g, 1, 1)
	sys := testSys()
	sys.Cores = 1
	want := algorithms.OracleCC(g)
	for _, kind := range allKinds {
		res, err := Run(g, algorithms.NewCC(), Options{Kind: kind, Sys: sys, Prep: prep, WMin: 1})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.State.VertexVal[v] != want[v] {
				t.Fatalf("%v single-core mismatch", kind)
			}
		}
	}
}

// More cores than elements: some chunks are empty.
func TestMoreCoresThanElements(t *testing.T) {
	g := hypergraph.MustBuild(3, [][]uint32{{0, 1}, {1, 2}})
	prep := Prepare(g, 8, 1)
	sys := testSys()
	sys.Cores = 8
	want := algorithms.OracleBFS(g, 0)
	for _, kind := range allKinds {
		res, err := Run(g, algorithms.NewBFS(0), Options{Kind: kind, Sys: sys, Prep: prep, WMin: 1})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.State.VertexVal[v] != want[v] {
				t.Fatalf("%v empty-chunk mismatch", kind)
			}
		}
	}
}

// The LLC sweep hook must change measured traffic monotonically-ish: a
// drastically larger LLC cannot increase DRAM traffic.
func TestLLCSweepDirection(t *testing.T) {
	g := smallHG(31)
	prep := Prepare(g, 4, 1)
	small := testSys().WithLLCBytes(8 << 10)
	big := testSys().WithLLCBytes(4 << 20)
	a, err := Run(g, algorithms.NewPageRank(5), Options{Kind: Hygra, Sys: small, Prep: prep, WMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, algorithms.NewPageRank(5), Options{Kind: Hygra, Sys: big, Prep: prep, WMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.MemTotal() > a.MemTotal() {
		t.Fatalf("bigger LLC increased traffic: %d -> %d", a.MemTotal(), b.MemTotal())
	}
}

// TestDirectedPropagation: on a directed hypergraph, values flow only from
// source vertices through hyperedges to destination vertices, under every
// engine.
func TestDirectedPropagation(t *testing.T) {
	// Chain: v0 -[h0]-> v1 -[h1]-> v2, and a back-edge-free v3.
	g, err := hypergraph.BuildDirected(4,
		[][]uint32{{0}, {1}},
		[][]uint32{{1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	prep := Prepare(g, 2, 1)
	sys := testSys()
	sys.Cores = 2
	for _, kind := range allKinds {
		res, err := Run(g, algorithms.NewBFS(0), Options{Kind: kind, Sys: sys, Prep: prep, WMin: 1})
		if err != nil {
			t.Fatal(err)
		}
		d := res.State.VertexVal
		if d[0] != 0 || d[1] != 1 || d[2] != 2 {
			t.Fatalf("%v: directed distances = %v", kind, d[:3])
		}
		if d[3] != algorithms.Infinity {
			t.Fatalf("%v: unreachable v3 got %v", kind, d[3])
		}
	}
	// Reverse reachability must NOT exist: BFS from v2 reaches nothing.
	res, err := Run(g, algorithms.NewBFS(2), Options{Kind: Hygra, Sys: sys, Prep: prep, WMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.State.VertexVal[0] != algorithms.Infinity || res.State.VertexVal[1] != algorithms.Infinity {
		t.Fatal("direction not respected: backward propagation occurred")
	}
}
