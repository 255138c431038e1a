package engine

import (
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/hypergraph"
	"chgraph/internal/sim/system"
	"chgraph/internal/trace"
)

// buildPhase compiles one vertex-computation phase for inspection without
// running the timing simulator.
func buildPhase(t *testing.T, kind Kind, seed int64) []*system.Agent {
	t.Helper()
	g := smallHG(seed)
	prep := Prepare(g, 2, 1)
	sys := testSys()
	sys.Cores = 2
	s := algorithms.NewState(g)
	alg := algorithms.NewPageRank(1)
	frontierV := bitset.New(g.NumVertices())
	alg.Init(s, frontierV)
	alg.BeforeHyperedgePhase(s)

	// All hyperedges active for the vertex-computation phase.
	frontierE := bitset.New(g.NumHyperedges())
	for i := uint32(0); i < g.NumHyperedges(); i++ {
		frontierE.Set(i)
	}
	next := bitset.New(g.NumVertices())
	ph := hyperedgePhase(g, prep, frontierE, next)

	r := &runner{g: g, opt: Options{Kind: kind, Sys: sys, DMax: 16, WMin: 1}, prep: prep, sys: system.New(sys), res: &Result{}}
	apply := func(st *algorithms.State, src, dst uint32) algorithms.EdgeResult { return alg.VF(st, src, dst) }
	return r.compilePhase(ph, s, apply)
}

func countFlags(agents []*system.Agent, mask trace.OpFlags) (n int) {
	for _, a := range agents {
		for _, op := range a.Ops {
			if op.Flags&mask != 0 {
				n++
			}
		}
	}
	return
}

// TestFIFOPushPopBalance: compiled streams must have exactly matching push
// and pop counts per FIFO kind, or the timing replay would deadlock.
func TestFIFOPushPopBalance(t *testing.T) {
	for _, kind := range []Kind{ChGraph, ChGraphHCG, HATSV, HygraPF} {
		for seed := int64(1); seed < 5; seed++ {
			agents := buildPhase(t, kind, seed)
			pushC := countFlags(agents, trace.FlagPushChain)
			popC := countFlags(agents, trace.FlagPopChain)
			pushT := countFlags(agents, trace.FlagPushTuple)
			popT := countFlags(agents, trace.FlagPopTuple)
			if pushC != popC {
				t.Fatalf("%v seed %d: chain pushes %d != pops %d", kind, seed, pushC, popC)
			}
			if pushT != popT {
				t.Fatalf("%v seed %d: tuple pushes %d != pops %d", kind, seed, pushT, popT)
			}
		}
	}
}

// TestEngineAgentsUseL2Level: HCG/CP/HATS/prefetcher agents access memory at
// the L2 (they sit beside the L1, §V-A); core agents never do.
func TestEngineAgentsUseL2Level(t *testing.T) {
	for _, kind := range []Kind{ChGraph, ChGraphHCG, HATSV, HygraPF} {
		agents := buildPhase(t, kind, 7)
		var engineAgents, coreAgents int
		for _, a := range agents {
			if a.Engine {
				engineAgents++
				for _, op := range a.Ops {
					if op.HasMem() && op.Flags&trace.FlagL2 == 0 {
						t.Fatalf("%v: engine agent %s has an L1-level access", kind, a.Name)
					}
				}
			} else {
				coreAgents++
				if !a.IsCore {
					t.Fatalf("%v: non-engine agent %s not marked core", kind, a.Name)
				}
				for _, op := range a.Ops {
					if op.Flags&trace.FlagL2 != 0 {
						t.Fatalf("%v: core agent %s has an L2-level access", kind, a.Name)
					}
				}
			}
		}
		if engineAgents == 0 || coreAgents == 0 {
			t.Fatalf("%v: agents missing (%d engine, %d core)", kind, engineAgents, coreAgents)
		}
	}
}

// TestHygraHasOnlyCoreAgents: the software baseline runs everything on the
// cores.
func TestHygraHasOnlyCoreAgents(t *testing.T) {
	for _, kind := range []Kind{Hygra, GLA} {
		for _, a := range buildPhase(t, kind, 7) {
			if a.Engine || !a.IsCore {
				t.Fatalf("%v: unexpected agent %s", kind, a.Name)
			}
		}
	}
}

// TestValueAccessCountsMatchEdges: every engine touches each bipartite edge's
// destination value exactly once per phase (reads; writes follow the
// algorithm's Wrote results).
func TestValueAccessCountsMatchEdges(t *testing.T) {
	g := smallHG(7)
	edges := int(g.NumBipartiteEdges())
	for _, kind := range []Kind{Hygra, GLA, ChGraph, ChGraphHCG, HATSV} {
		agents := buildPhase(t, kind, 7)
		var dstReads int
		for _, a := range agents {
			for _, op := range a.Ops {
				if op.HasMem() && op.Arr == trace.VertexValue && !op.IsWrite() && op.Flags&trace.FlagPrefetch == 0 {
					dstReads++
				}
			}
		}
		// Chain engines also read src values from the hyperedge side; dst
		// (vertex) value reads must equal the edge count exactly.
		if dstReads != edges {
			t.Fatalf("%v: %d vertex-value reads, want %d (one per bipartite edge)", kind, dstReads, edges)
		}
	}
}

// TestOAGOpsOnlyFromChainEngines at the op-stream level.
func TestOAGOpsOnlyFromChainEngines(t *testing.T) {
	for _, kind := range []Kind{Hygra, HygraPF, HATSV} {
		agents := buildPhase(t, kind, 9)
		for _, a := range agents {
			for _, op := range a.Ops {
				if op.HasMem() && trace.GroupOf(op.Arr) == trace.GroupOAG {
					t.Fatalf("%v emitted an OAG access", kind)
				}
			}
		}
	}
	agents := buildPhase(t, ChGraph, 9)
	found := false
	for _, a := range agents {
		for _, op := range a.Ops {
			if op.HasMem() && trace.GroupOf(op.Arr) == trace.GroupOAG {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("ChGraph emitted no OAG accesses")
	}
}

// TestNextFrontierBitmapMaintenance: a dense source phase must still emit
// destination-bitmap update traffic when the next frontier comes out sparse
// — the successor phase will scan that bitmap. Elision is only legal when
// the next frontier ends the phase all-active (it is then consumed by a
// dense phase that never reads the bitmap). Regression test: the elision
// used to key on the *source* frontier's density, silently dropping the
// update ops whenever the producing phase was dense.
func TestNextFrontierBitmapMaintenance(t *testing.T) {
	// Every vertex needs degree > 0 so an all-activating apply really does
	// leave the next frontier all-active.
	hs := make([][]uint32, 60)
	for i := range hs {
		hs[i] = []uint32{uint32(i % 40), uint32((i * 7) % 40)}
	}
	g := hypergraph.MustBuild(40, hs)
	prep := Prepare(g, 2, 1)
	sys := testSys()
	sys.Cores = 2
	s := algorithms.NewState(g)
	alg := algorithms.NewPageRank(1)
	frontierV := bitset.New(g.NumVertices())
	alg.Init(s, frontierV)
	alg.BeforeHyperedgePhase(s)
	frontierE := bitset.New(g.NumHyperedges())
	for i := uint32(0); i < g.NumHyperedges(); i++ {
		frontierE.Set(i)
	}

	countBitmapWrites := func(apply edgeFunc) int {
		next := bitset.New(g.NumVertices())
		ph := hyperedgePhase(g, prep, frontierE, next)
		r := &runner{g: g, opt: Options{Kind: Hygra, Sys: sys, DMax: 16, WMin: 1}, prep: prep, sys: system.New(sys), res: &Result{}}
		var n int
		for _, a := range r.compilePhase(ph, s, apply) {
			for _, op := range a.Ops {
				if op.HasMem() && op.Arr == trace.Bitmap && op.IsWrite() {
					n++
				}
			}
		}
		return n
	}

	shrink := countBitmapWrites(func(st *algorithms.State, src, dst uint32) algorithms.EdgeResult {
		if dst%2 == 0 {
			return algorithms.Wrote | algorithms.Activate
		}
		return algorithms.Wrote
	})
	if shrink == 0 {
		t.Fatal("dense source phase with a shrinking next frontier emitted no bitmap updates")
	}
	full := countBitmapWrites(func(st *algorithms.State, src, dst uint32) algorithms.EdgeResult {
		return algorithms.Wrote | algorithms.Activate
	})
	if full != 0 {
		t.Fatalf("all-active next frontier still emitted %d bitmap updates", full)
	}
}

// TestPrefetcherOpsAreNonBinding: every access of the HygraPF prefetch agent
// carries the prefetch flag.
func TestPrefetcherOpsAreNonBinding(t *testing.T) {
	agents := buildPhase(t, HygraPF, 11)
	for _, a := range agents {
		if !a.Engine {
			continue
		}
		for _, op := range a.Ops {
			if op.HasMem() && op.Flags&trace.FlagPrefetch == 0 {
				t.Fatalf("prefetch agent has a binding access")
			}
		}
	}
}
