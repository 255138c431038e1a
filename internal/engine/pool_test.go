package engine

import (
	"context"
	"reflect"
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/hypergraph"
)

// poolShape is one instance shape the arena pool serves: a graph and a
// simulated core count.
type poolShape struct {
	g     *hypergraph.Bipartite
	cores int
}

// openShape opens a Workers=1 instance of kind on sh.
func openShape(t *testing.T, kind Kind, sh poolShape, prep *Prep) *Instance {
	t.Helper()
	sys := testSys()
	sys.Cores = sh.cores
	in, err := NewInstance(sh.g, Options{Kind: kind, Sys: sys, Prep: prep, WMin: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// openFresh opens an instance on an arena nothing has used: it empties the
// pool first, and retries in the rare case the goroutine moved to a P whose
// private pool slot still held an arena (a fresh arena's stitch buffer has
// never grown).
func openFresh(t *testing.T, kind Kind, sh poolShape, prep *Prep) *Instance {
	t.Helper()
	for try := 0; try < 10; try++ {
		for arenas.Get() != nil {
		}
		in := openShape(t, kind, sh, prep)
		if cap(in.r.scratch.agents) == 0 {
			return in
		}
		in.Finish()
	}
	t.Fatal("could not obtain a fresh arena")
	return nil
}

// TestArenaPoolAcrossShapes runs instances that alternate core counts (16
// and 4) and graphs through the one process-wide arena pool, for every
// engine kind on a sparse (BFS) and a dense (PageRank) algorithm: each run
// must be bit-identical to the same run on a fresh arena, including the runs
// that inherit an arena sized for more cores or filled on another graph.
func TestArenaPoolAcrossShapes(t *testing.T) {
	g0, g1 := smallHG(3), smallHG(11)
	// Every transition changes the graph, the core count or both; the
	// ones that keep the graph would replay a stale chain schedule if an
	// arena's chain cache stayed valid across runs.
	shapes := []poolShape{{g0, 16}, {g0, 4}, {g1, 16}, {g1, 4}}
	preps := make([]*Prep, len(shapes))
	for i, sh := range shapes {
		preps[i] = Prepare(sh.g, sh.cores, 1)
	}
	algs := []func() algorithms.Algorithm{
		func() algorithms.Algorithm { return algorithms.NewBFS(0) },
		func() algorithms.Algorithm { return algorithms.NewPageRank(3) },
	}
	run := func(in *Instance, alg algorithms.Algorithm) *Result {
		res, err := in.run(context.Background(), alg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			want := make([][]*Result, len(shapes))
			for i, sh := range shapes {
				for _, mk := range algs {
					want[i] = append(want[i], run(openFresh(t, kind, sh, preps[i]), mk()))
				}
			}
			inherited := 0
			var last *runScratch
			for round := 0; round < 2; round++ {
				for a, mk := range algs {
					for i, sh := range shapes {
						in := openShape(t, kind, sh, preps[i])
						if in.r.scratch == last {
							inherited++
						}
						last = in.r.scratch
						if got := run(in, mk()); !reflect.DeepEqual(got, want[i][a]) {
							t.Fatalf("round %d, %d cores, alg %d: pooled-arena result differs from the fresh-arena run:\n got %+v\nwant %+v",
								round, sh.cores, a, got, want[i][a])
						}
					}
				}
			}
			if inherited == 0 {
				t.Fatal("no run inherited the previous run's arena; the pool is not exercised")
			}
			for i, p := range preps {
				if n := p.ScratchOutstanding(); n != 0 {
					t.Fatalf("shape %d: %d arenas outstanding after every run finished", i, n)
				}
			}
		})
	}
}
