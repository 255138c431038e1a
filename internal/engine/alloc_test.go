package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"chgraph/internal/algorithms"
)

// iterationAllocs returns the allocations of run(12) minus those of
// run(4): what eight more iterations cost a run. Each count is the fewest
// any of ten runs made, on one P with GC off, so a run whose arena the pool
// dropped (GC, or the race detector's random drops) or that reused an
// arena for the first time does not count; an allocation made every
// iteration still does.
func iterationAllocs(run func(iters int)) int64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := func(iters int) int64 {
		var ms runtime.MemStats
		best := int64(math.MaxInt64)
		for i := 0; i < 10; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			run(iters)
			runtime.ReadMemStats(&ms)
			best = min(best, int64(ms.Mallocs-before))
		}
		return best
	}
	return fewest(12) - fewest(4)
}

// TestSteadyStateIterationAllocs is the zero-allocation wall, measured
// through RunCtx, the loop every run executes: with Workers=1 a PageRank
// run of 12 iterations must allocate exactly as much as one of 4. Every
// hot-path buffer — chain sets, op streams, FIFO rings, agents, frontier
// bitmaps, mark outcomes — lives in the instance's reuse arena, and the
// driver builds its closures once per run.
func TestSteadyStateIterationAllocs(t *testing.T) {
	g := smallHG(3)
	prep := Prepare(g, 4, 1)
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			opt := Options{Kind: kind, Sys: testSys(), Prep: prep, WMin: 1, Workers: 1}
			run := func(iters int) {
				if _, err := RunCtx(context.Background(), g, algorithms.NewPageRank(iters), opt); err != nil {
					t.Fatal(err)
				}
			}
			if d := iterationAllocs(run); d != 0 {
				t.Fatalf("8 more iterations allocate %d more objects, want 0", d)
			}
		})
	}
}

// TestConcurrentRunsSharedPrep exercises the Prep-owned scratch pool from
// many concurrent runs — the sharing pattern serve's worker pool produces on
// a prepared-artifact cache hit. Under -race this is the data-race wall for
// the pooled buffers; in any mode it asserts runs stay bit-identical when
// their arenas are recycled across goroutines.
func TestConcurrentRunsSharedPrep(t *testing.T) {
	g := smallHG(5)
	prep := Prepare(g, 4, 1)
	opt := Options{Kind: ChGraph, Sys: testSys(), Prep: prep, WMin: 1, Workers: 2}

	want, err := Run(g, algorithms.NewPageRank(5), opt)
	if err != nil {
		t.Fatal(err)
	}

	const runs = 12
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Run(g, algorithms.NewPageRank(5), opt)
			if err != nil {
				errs[i] = err
				return
			}
			if res.Cycles != want.Cycles {
				errs[i] = fmt.Errorf("cycles %d, want %d", res.Cycles, want.Cycles)
				return
			}
			for v := range want.State.VertexVal {
				if res.State.VertexVal[v] != want.State.VertexVal[v] {
					errs[i] = fmt.Errorf("vertex %d diverged", v)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
}
