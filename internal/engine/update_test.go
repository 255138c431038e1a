package engine

import (
	"math/rand"
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/hypergraph"
)

func randomEngineBatch(rng *rand.Rand, g *hypergraph.Bipartite) hypergraph.Batch {
	var b hypergraph.Batch
	for h := uint32(0); h < g.NumHyperedges(); h++ {
		if rng.Float64() < 0.12 {
			b.Remove = append(b.Remove, h)
		}
	}
	adds := rng.Intn(len(b.Remove) + 3)
	for i := 0; i < adds; i++ {
		var pins []uint32
		for k, sz := 0, rng.Intn(6); k < sz; k++ {
			pins = append(pins, uint32(rng.Intn(int(g.NumVertices()))))
		}
		b.Add = append(b.Add, pins)
	}
	return b
}

// TestUpdatePrepDifferential is the engine half of the differential wall: a
// Prep updated incrementally across a random batch must be structurally
// identical to a fresh Prepare on the mutated graph, and every engine kind
// must produce bit-identical runs — cycles and full state — on either, at
// multiple host worker counts.
func TestUpdatePrepDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(seed))
			g := smallHG(seed)
			prep := PrepareParallel(g, 4, 1, workers)
			d, err := g.ApplyBatch(randomEngineBatch(rng, g))
			if err != nil {
				t.Fatal(err)
			}

			up := UpdatePrep(prep, d)
			fresh := PrepareParallel(d.New, 4, 1, workers)
			if !up.VOAG.Equal(fresh.VOAG) || !up.HOAG.Equal(fresh.HOAG) {
				t.Fatalf("seed %d workers %d: updated Prep's OAGs differ from fresh Prepare", seed, workers)
			}

			for _, kind := range allKinds {
				opt := Options{Kind: kind, Sys: testSys(), WMin: 1, Workers: workers}
				opt.Prep = up
				got, err := Run(d.New, algorithms.NewPageRank(5), opt)
				if err != nil {
					t.Fatalf("%v on updated prep: %v", kind, err)
				}
				opt.Prep = fresh
				want, err := Run(d.New, algorithms.NewPageRank(5), opt)
				if err != nil {
					t.Fatalf("%v on fresh prep: %v", kind, err)
				}
				if got.Cycles != want.Cycles {
					t.Fatalf("seed %d workers %d %v: cycles %d (updated) vs %d (fresh)",
						seed, workers, kind, got.Cycles, want.Cycles)
				}
				for v := range want.State.VertexVal {
					if got.State.VertexVal[v] != want.State.VertexVal[v] {
						t.Fatalf("seed %d workers %d %v: vertex %d diverged", seed, workers, kind, v)
					}
				}
				for h := range want.State.HyperedgeVal {
					if got.State.HyperedgeVal[h] != want.State.HyperedgeVal[h] {
						t.Fatalf("seed %d workers %d %v: hyperedge %d diverged", seed, workers, kind, h)
					}
				}
			}
		}
	}
}

// TestUpdatePrepSteadyStateAllocs extends the allocation pins across a
// mutation: after UpdatePrep, warm iterations on the updated artifact must
// be as allocation-free as they were on the original — mutations must not
// reintroduce per-phase buffer rebuilding.
func TestUpdatePrepSteadyStateAllocs(t *testing.T) {
	g := smallHG(3)
	prep := Prepare(g, 4, 1)

	// Cycle a run on the old artifact so the arena pool holds one warmed on
	// the old graph.
	if _, err := Run(g, algorithms.NewPageRank(3), Options{
		Kind: ChGraph, Sys: testSys(), Prep: prep, WMin: 1, Workers: 1,
	}); err != nil {
		t.Fatal(err)
	}

	d, err := g.ApplyBatch(hypergraph.Batch{
		Remove: []uint32{0, 7},
		Add:    [][]uint32{{0, 1, 2}, {3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	up := UpdatePrep(prep, d)

	opt := Options{Kind: ChGraph, Sys: testSys(), Prep: up, WMin: 1, Workers: 1}
	run := func(iters int) {
		if _, err := Run(d.New, algorithms.NewPageRank(iters), opt); err != nil {
			t.Fatal(err)
		}
	}
	if n := iterationAllocs(run); n != 0 {
		t.Fatalf("8 more iterations on updated Prep allocate %d more objects, want 0", n)
	}
}
