package shard

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/engine"
)

// TestNilContextRuns: every runtime treats a nil ctx as Background. An
// unsharded engine.RunCtx and sharded runs at K=1 and K=2 must return the
// Background result and hand every reuse arena back.
func TestNilContextRuns(t *testing.T) {
	g := smallHG(5)
	eopt := engine.Options{Kind: engine.ChGraph, Sys: testSys(), WMin: 1, Workers: 1}
	prep := engine.Prepare(g, eopt.Sys.Cores, eopt.WMin)
	sharded := func(k int) ([]*engine.Prep, func(context.Context) (any, error)) {
		pre, err := Prepare(context.Background(), g, Options{Shards: k, Engine: eopt})
		if err != nil {
			t.Fatal(err)
		}
		return pre.Preps, func(ctx context.Context) (any, error) {
			return RunCtx(ctx, g, algorithms.NewPageRank(3), Options{Shards: k, Engine: eopt, Pre: pre})
		}
	}
	type runCase struct {
		name  string
		preps []*engine.Prep
		run   func(context.Context) (any, error)
	}
	cases := []runCase{{"engine", []*engine.Prep{prep}, func(ctx context.Context) (any, error) {
		o := eopt
		o.Prep = prep
		return engine.RunCtx(ctx, g, algorithms.NewPageRank(3), o)
	}}}
	for _, k := range []int{1, 2} {
		preps, run := sharded(k)
		cases = append(cases, runCase{fmt.Sprintf("shard/K%d", k), preps, run})
	}
	var nilCtx context.Context
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.run(nilCtx)
			if err != nil {
				t.Fatalf("nil ctx: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("nil-ctx result differs from the Background one:\n got %+v\nwant %+v", got, want)
			}
			for i, p := range c.preps {
				if n := p.ScratchOutstanding(); n != 0 {
					t.Fatalf("prep %d: %d arenas outstanding", i, n)
				}
			}
		})
	}
}

// TestShardSteadyStateIterationAllocs extends the engine's zero-allocation
// wall to sharded runs: through RunCtx with Workers=1, a PageRank run of 12
// iterations must allocate exactly as much as one of 4, at K=1 and K=2.
// Each count is the fewest of ten runs on one P with GC off, as in the
// engine's iterationAllocs, so a dropped pooled arena does not count; the
// runs share prebuilt artifacts, so no OAG build's pooled scratch does
// either.
func TestShardSteadyStateIterationAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := smallHG(3)
	for _, k := range []int{1, 2} {
		if k > 1 && raceEnabled {
			// The race detector drops sync.Pool items at random; with two
			// arenas per run a drop also changes which shard's arena the
			// next run's engines borrow, and an arena sized for the other
			// shard regrows, so no run is a clean sample.
			t.Log("K=2 skipped: the race detector drops sync.Pool items at random")
			continue
		}
		for _, kind := range allKinds {
			opt := Options{Shards: k, Engine: engine.Options{Kind: kind, Sys: testSys(), WMin: 1, Workers: 1}}
			pre, err := Prepare(context.Background(), g, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Pre = pre
			fewest := func(iters int) int64 {
				var ms runtime.MemStats
				best := int64(math.MaxInt64)
				for i := 0; i < 10; i++ {
					runtime.ReadMemStats(&ms)
					before := ms.Mallocs
					if _, err := RunCtx(context.Background(), g, algorithms.NewPageRank(iters), opt); err != nil {
						t.Fatal(err)
					}
					runtime.ReadMemStats(&ms)
					best = min(best, int64(ms.Mallocs-before))
				}
				return best
			}
			if n := fewest(12) - fewest(4); n != 0 {
				t.Errorf("K=%d %v: 8 more iterations allocate %d more objects, want 0", k, kind, n)
			}
		}
	}
}
