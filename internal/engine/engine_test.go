package engine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chgraph/internal/algorithms"
	"chgraph/internal/gen"
	"chgraph/internal/hypergraph"
	"chgraph/internal/oag"
	"chgraph/internal/sim/system"
)

func testSys() system.Config {
	c := system.ScaledConfig()
	c.Cores = 4
	return c
}

func smallHG(seed int64) *hypergraph.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	numV := uint32(rng.Intn(80) + 8)
	hs := make([][]uint32, rng.Intn(100)+4)
	for i := range hs {
		sz := rng.Intn(7)
		for k := 0; k < sz; k++ {
			hs[i] = append(hs[i], uint32(rng.Intn(int(numV))))
		}
	}
	return hypergraph.MustBuild(numV, hs)
}

var allKinds = []Kind{Hygra, GLA, ChGraph, ChGraphHCG, HATSV, HygraPF}

// TestAllEnginesMatchOracles is the central correctness property: every
// execution model must produce the oracle outputs for every algorithm.
func TestAllEnginesMatchOracles(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := smallHG(seed)
		prep := Prepare(g, 4, 1) // wMin 1 exercises chains on tiny graphs
		bfsWant := algorithms.OracleBFS(g, 0)
		prWant := algorithms.OraclePR(g, 0.85, 10)
		ccWant := algorithms.OracleCC(g)
		kcWant := algorithms.OracleKCore(g, 32)
		bcWant := algorithms.OracleBC(g, 0)

		for _, kind := range allKinds {
			opt := Options{Kind: kind, Sys: testSys(), Prep: prep, WMin: 1}

			res, err := Run(g, algorithms.NewBFS(0), opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range bfsWant {
				if res.State.VertexVal[v] != bfsWant[v] {
					t.Fatalf("seed %d %v BFS dist[%d] = %v, want %v", seed, kind, v, res.State.VertexVal[v], bfsWant[v])
				}
			}

			res, err = Run(g, algorithms.NewPageRank(10), opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range prWant {
				if math.Abs(res.State.VertexVal[v]-prWant[v]) > 1e-9*(1+prWant[v]) {
					t.Fatalf("seed %d %v PR rank[%d] = %v, want %v", seed, kind, v, res.State.VertexVal[v], prWant[v])
				}
			}

			res, err = Run(g, algorithms.NewCC(), opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range ccWant {
				if res.State.VertexVal[v] != ccWant[v] {
					t.Fatalf("seed %d %v CC label[%d] = %v, want %v", seed, kind, v, res.State.VertexVal[v], ccWant[v])
				}
			}

			mis := algorithms.NewMIS(7)
			res, err = Run(g, mis, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := algorithms.ValidateMIS(g, res.State.VertexVal); err != nil {
				t.Fatalf("seed %d %v MIS: %v", seed, kind, err)
			}

			kc := algorithms.NewKCore(32)
			if _, err = Run(g, kc, opt); err != nil {
				t.Fatal(err)
			}
			for v := range kcWant {
				if kc.Coreness[v] != kcWant[v] {
					t.Fatalf("seed %d %v coreness[%d] = %v, want %v", seed, kind, v, kc.Coreness[v], kcWant[v])
				}
			}

			bc := algorithms.NewBC(0)
			if _, err = Run(g, bc, opt); err != nil {
				t.Fatal(err)
			}
			for v := range bcWant {
				if math.Abs(bc.Centrality[v]-bcWant[v]) > 1e-6*(1+math.Abs(bcWant[v])) {
					t.Fatalf("seed %d %v BC[%d] = %v, want %v", seed, kind, v, bc.Centrality[v], bcWant[v])
				}
			}
		}
	}
}

func TestQuickEnginesAgreeOnSSSP(t *testing.T) {
	f := func(seed int64, src uint16) bool {
		g := smallHG(seed)
		prep := Prepare(g, 4, 1)
		want := algorithms.OracleSSSP(g, uint32(src))
		for _, kind := range []Kind{Hygra, ChGraph, HATSV} {
			res, err := Run(g, algorithms.NewSSSP(uint32(src)), Options{Kind: kind, Sys: testSys(), Prep: prep, WMin: 1})
			if err != nil {
				return false
			}
			for v := range want {
				if math.Abs(res.State.VertexVal[v]-want[v]) > 1e-9 && !(want[v] == algorithms.Infinity && res.State.VertexVal[v] == algorithms.Infinity) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsSanity(t *testing.T) {
	g := smallHG(42)
	prep := Prepare(g, 4, 1)
	for _, kind := range allKinds {
		res, err := Run(g, algorithms.NewPageRank(5), Options{Kind: kind, Sys: testSys(), Prep: prep, WMin: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles == 0 {
			t.Fatalf("%v: zero cycles", kind)
		}
		if res.MemTotal() == 0 {
			t.Fatalf("%v: zero memory traffic", kind)
		}
		if res.EdgesProcessed == 0 {
			t.Fatalf("%v: zero edges", kind)
		}
		if sf := res.StallFraction(); sf < 0 || sf > 1 {
			t.Fatalf("%v: stall fraction %f", kind, sf)
		}
		// Per-phase counters must sum to the totals.
		var phaseSum, total uint64
		for p := 0; p < 2; p++ {
			for a := range res.MemByPhase[p] {
				phaseSum += res.MemByPhase[p][a]
			}
		}
		total = res.MemTotal()
		if phaseSum != total {
			t.Fatalf("%v: per-phase %d != total %d", kind, phaseSum, total)
		}
		if res.Iterations != 5 {
			t.Fatalf("%v: iterations = %d", kind, res.Iterations)
		}
	}
}

func TestEdgesProcessedEqualAcrossEngines(t *testing.T) {
	g := smallHG(9)
	prep := Prepare(g, 4, 1)
	var want uint64
	for i, kind := range allKinds {
		res, err := Run(g, algorithms.NewPageRank(3), Options{Kind: kind, Sys: testSys(), Prep: prep, WMin: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res.EdgesProcessed
		} else if res.EdgesProcessed != want {
			t.Fatalf("%v processed %d edges, Hygra %d", kind, res.EdgesProcessed, want)
		}
	}
}

func TestOnlyChainEnginesTouchOAG(t *testing.T) {
	g := smallHG(13)
	prep := Prepare(g, 4, 1)
	for _, kind := range allKinds {
		res, err := Run(g, algorithms.NewCC(), Options{Kind: kind, Sys: testSys(), Prep: prep, WMin: 1})
		if err != nil {
			t.Fatal(err)
		}
		gr := res.MemByGroup()
		chains := kind == GLA || kind == ChGraph || kind == ChGraphHCG
		if !chains && gr[3] != 0 { // GroupOAG
			t.Fatalf("%v touched the OAG", kind)
		}
		if chains && res.ChainNodes == 0 {
			t.Fatalf("%v generated no chains", kind)
		}
	}
}

func TestPreprocessCharging(t *testing.T) {
	g := smallHG(21)
	prep := Prepare(g, 4, 3)
	without, _ := Run(g, algorithms.NewBFS(0), Options{Kind: ChGraph, Sys: testSys(), Prep: prep})
	with, _ := Run(g, algorithms.NewBFS(0), Options{Kind: ChGraph, Sys: testSys(), Prep: prep, ChargePreprocess: true})
	if with.PreprocessCycles == 0 {
		t.Fatal("no preprocessing charged")
	}
	if with.Cycles != without.Cycles+with.PreprocessCycles {
		t.Fatalf("cycles %d != %d + %d", with.Cycles, without.Cycles, with.PreprocessCycles)
	}
	// ChGraph preprocessing must exceed Hygra's (OAG construction).
	hygra := PrepCycles(g.NumBipartiteEdges(), 0)
	if with.PreprocessCycles <= hygra {
		t.Fatal("ChGraph preprocessing should exceed Hygra's")
	}
}

// TestOAGStorageIsModelledCSR pins Figure 21(b) to the arrays the simulator
// models: the OAG storage a Prep reports is exactly OAG_offset (n+1 entries),
// OAG_edge and OAG_weight (one entry each per directed edge), 4 bytes per
// entry, summed over the V-OAG and the H-OAG.
func TestOAGStorageIsModelledCSR(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := smallHG(seed)
		for _, wMin := range []uint32{1, 3} {
			prep := Prepare(g, 4, wMin)
			var want uint64
			for _, o := range []*oag.OAG{prep.VOAG, prep.HOAG} {
				want += 4 * (uint64(o.NumNodes()) + 1 + 2*uint64(o.NumEdges()))
			}
			if prep.VOAG.NumNodes() != g.NumVertices() || prep.HOAG.NumNodes() != g.NumHyperedges() {
				t.Fatalf("seed %d: OAG node counts %d/%d, graph %d/%d", seed,
					prep.VOAG.NumNodes(), prep.HOAG.NumNodes(), g.NumVertices(), g.NumHyperedges())
			}
			if got := prep.OAGStorageBytes(); got != want {
				t.Fatalf("seed %d wMin %d: OAGStorageBytes = %d, modelled CSR arrays = %d", seed, wMin, got, want)
			}
		}
	}
}

func TestPrepCoresMismatchRejected(t *testing.T) {
	g := smallHG(30)
	prep := Prepare(g, 8, 3)
	if _, err := Run(g, algorithms.NewBFS(0), Options{Kind: ChGraph, Sys: testSys(), Prep: prep}); err == nil {
		t.Fatal("expected cores/prep mismatch error")
	}
}

func TestGeneratedDatasetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("generated dataset smoke test is slow")
	}
	// A very small scaled-down FS exercise through the real recipe path.
	cfg, err := gen.Recipe("FS", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Regions = 4
	g := gen.MustGenerate(cfg)
	prep := Prepare(g, 4, 3)
	want := algorithms.OracleBFS(g, 0)
	for _, kind := range []Kind{Hygra, ChGraph} {
		res, err := Run(g, algorithms.NewBFS(0), Options{Kind: kind, Sys: testSys(), Prep: prep})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.State.VertexVal[v] != want[v] {
				t.Fatalf("%v BFS mismatch at %d", kind, v)
			}
		}
	}
}

func TestDenseModeSkipsBitmapTraffic(t *testing.T) {
	// Every vertex and hyperedge must have degree > 0, otherwise the
	// frontier never covers the zero-degree elements and the phases are
	// not dense.
	rng := rand.New(rand.NewSource(55))
	hs := make([][]uint32, 60)
	for i := range hs {
		hs[i] = []uint32{uint32(i % 40)}
		for k := 0; k < 3; k++ {
			hs[i] = append(hs[i], uint32(rng.Intn(40)))
		}
	}
	g := hypergraph.MustBuild(40, hs)
	prep := Prepare(g, 4, 1)
	// PR keeps everything active: bitmap DRAM traffic should be zero (or
	// nearly) for Hygra in dense mode.
	res, err := Run(g, algorithms.NewPageRank(5), Options{Kind: Hygra, Sys: testSys(), Prep: prep})
	if err != nil {
		t.Fatal(err)
	}
	if bm := res.MemReads[9] + res.MemWrites[9]; bm != 0 { // trace.Bitmap
		t.Fatalf("dense-mode PR produced %d bitmap accesses", bm)
	}
}

func TestChainMemoizationKeepsResultsIdentical(t *testing.T) {
	// PR's chains are generated once and replayed (§VI-B); the functional
	// result must match the oracle regardless.
	g := smallHG(77)
	prep := Prepare(g, 4, 1)
	res, err := Run(g, algorithms.NewPageRank(10), Options{Kind: ChGraph, Sys: testSys(), Prep: prep, WMin: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := algorithms.OraclePR(g, 0.85, 10)
	for v := range want {
		if math.Abs(res.State.VertexVal[v]-want[v]) > 1e-9*(1+want[v]) {
			t.Fatal("memoized chains changed the functional result")
		}
	}
	// Chains must have been *generated* for far fewer than 2*iterations
	// phases (first iteration only; a side may regenerate once more if the
	// frontier settles after iteration one).
	if res.ChainGenNodes > 2*(uint64(g.NumVertices())+uint64(g.NumHyperedges()))+20 {
		t.Fatalf("chains regenerated every iteration: %d nodes generated", res.ChainGenNodes)
	}
	// But the *executed* totals must count the replayed schedules too — the
	// replays run every iteration, so the executed total has to dwarf the
	// generated one over 10 iterations.
	if res.ChainNodes < 3*res.ChainGenNodes {
		t.Fatalf("replayed schedules not accumulated: executed %d vs generated %d", res.ChainNodes, res.ChainGenNodes)
	}
}

func TestPrepHyperedgeChunksMismatchRejected(t *testing.T) {
	g := smallHG(30)
	prep := Prepare(g, 4, 3)
	prep.HChunks = prep.HChunks[:len(prep.HChunks)-1]
	if _, err := Run(g, algorithms.NewBFS(0), Options{Kind: ChGraph, Sys: testSys(), Prep: prep}); err == nil {
		t.Fatal("expected hyperedge-chunk/prep mismatch error")
	}
}
