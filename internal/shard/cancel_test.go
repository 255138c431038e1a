package shard

import (
	"context"
	"errors"
	"sync"
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/engine"
	"chgraph/internal/obs"
)

// cancelAfterPhases fires cancel once it has seen n completed phase
// snapshots (across all shards).
type cancelAfterPhases struct {
	obs.Null
	mu     sync.Mutex
	left   int
	cancel context.CancelFunc
}

func (c *cancelAfterPhases) PhaseDone(obs.PhaseSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left--
	if c.left == 0 {
		c.cancel()
	}
}

func TestShardRunCtxPreCancelled(t *testing.T) {
	g := smallHG(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, g, algorithms.NewPageRank(3), Options{
		Shards: 2,
		Engine: engine.Options{Kind: engine.ChGraph, Sys: testSys(), WMin: 1},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got a Result from a cancelled run")
	}
}

func TestShardRunCtxCancelMidRun(t *testing.T) {
	g := smallHG(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ob := &cancelAfterPhases{left: 3, cancel: cancel}
	res, err := RunCtx(ctx, g, algorithms.NewPageRank(8), Options{
		Shards: 2,
		Engine: engine.Options{Kind: engine.ChGraph, Sys: testSys(), WMin: 1, Workers: 1, Observer: ob},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got a Result from a cancelled run")
	}
}

// TestPreparedRunMatchesDirect is the artifact-reuse contract: a run fed a
// Prepared must produce bit-identical state and cycles to one that builds
// everything itself, and repeated runs off one Prepared must agree.
func TestPreparedRunMatchesDirect(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		for _, pol := range allPolicies {
			g := smallHG(8)
			opt := Options{
				Shards: k, Policy: pol,
				Engine: engine.Options{Kind: engine.ChGraph, Sys: testSys(), WMin: 1, Workers: 2},
			}
			pre, err := Prepare(context.Background(), g, opt)
			if err != nil {
				t.Fatalf("K=%d/%s: Prepare: %v", k, pol, err)
			}
			direct, err := Run(g, algorithms.NewPageRank(5), opt)
			if err != nil {
				t.Fatalf("K=%d/%s: direct run: %v", k, pol, err)
			}
			for rep := 0; rep < 2; rep++ {
				o := opt
				o.Pre = pre
				reused, err := Run(g, algorithms.NewPageRank(5), o)
				if err != nil {
					t.Fatalf("K=%d/%s rep %d: prepared run: %v", k, pol, rep, err)
				}
				if reused.Cycles != direct.Cycles || reused.Iterations != direct.Iterations {
					t.Fatalf("K=%d/%s rep %d: prepared run diverged: cycles %d vs %d, iters %d vs %d",
						k, pol, rep, reused.Cycles, direct.Cycles, reused.Iterations, direct.Iterations)
				}
				if got, want := stateChecksum(reused.State), stateChecksum(direct.State); got != want {
					t.Fatalf("K=%d/%s rep %d: state checksum %s, want %s", k, pol, rep, got, want)
				}
			}
		}
	}
}

func TestPreparedMismatchRejected(t *testing.T) {
	g := smallHG(8)
	base := Options{
		Shards: 2, Policy: PolicyRange,
		Engine: engine.Options{Kind: engine.ChGraph, Sys: testSys(), WMin: 1},
	}
	pre, err := Prepare(context.Background(), g, base)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	alg := func() algorithms.Algorithm { return algorithms.NewPageRank(2) }

	cases := []struct {
		name   string
		mutate func(o *Options)
	}{
		{"shard count", func(o *Options) { o.Shards = 3 }},
		{"policy", func(o *Options) { o.Policy = PolicyGreedy }},
		{"wMin", func(o *Options) { o.Engine.WMin = 7 }},
		{"cores", func(o *Options) {
			sys := o.Engine.Sys
			sys.Cores = 2
			o.Engine.Sys = sys
		}},
	}
	for _, tc := range cases {
		o := base
		o.Pre = pre
		tc.mutate(&o)
		if _, err := Run(g, alg(), o); err == nil {
			t.Fatalf("%s mismatch accepted", tc.name)
		}
	}

	// The unmutated options still work — the mismatches above were the
	// rejections, not a broken Prepared.
	o := base
	o.Pre = pre
	if _, err := Run(g, alg(), o); err != nil {
		t.Fatalf("baseline prepared run: %v", err)
	}
}

func TestPrepareCancelled(t *testing.T) {
	g := smallHG(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Prepare(ctx, g, Options{Shards: 2, Engine: engine.Options{Kind: engine.ChGraph, Sys: testSys(), WMin: 1}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestShardIDMappingsRoundTrip pins the local↔global id translation on both
// sides of every shard: GlobalVertex/LocalVertex invert each other, and every
// hyperedge's (owner, local id) resolves back through GlobalHyperedge.
func TestShardIDMappingsRoundTrip(t *testing.T) {
	g := smallHG(23)
	for _, pol := range allPolicies {
		a, err := Partition(g, 3, pol, 0)
		if err != nil {
			t.Fatalf("%s: Partition: %v", pol, err)
		}
		p, err := Materialize(g, a, 0)
		if err != nil {
			t.Fatalf("%s: Materialize: %v", pol, err)
		}
		for si, sh := range p.Shards {
			for lv := range sh.Vertices {
				gv := sh.GlobalVertex(uint32(lv))
				if l2, ok := sh.LocalVertex(gv); !ok || l2 != uint32(lv) {
					t.Fatalf("%s shard %d: vertex %d -> global %d -> (%d, %v)", pol, si, lv, gv, l2, ok)
				}
			}
			for lh := range sh.Hyperedges {
				gh := sh.GlobalHyperedge(uint32(lh))
				if owner, l2 := p.LocalHyperedge(gh); owner != uint32(si) || l2 != uint32(lh) {
					t.Fatalf("%s shard %d: hyperedge %d -> global %d -> (%d, %d)", pol, si, lh, gh, owner, l2)
				}
			}
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, pol := range allPolicies {
		got, err := ParsePolicy(string(pol))
		if err != nil || got != pol {
			t.Fatalf("ParsePolicy(%q) = (%v, %v)", pol, got, err)
		}
	}
	if _, err := ParsePolicy("modulo"); err == nil {
		t.Fatalf("unknown policy accepted")
	}
}

// recordingObs counts what a shardTap forwards to its inner observer.
type recordingObs struct {
	obs.Null
	phases, iters, runs int
	lastShard           int
}

func (r *recordingObs) PhaseDone(s obs.PhaseSnapshot)       { r.phases++; r.lastShard = s.Shard }
func (r *recordingObs) IterationDone(obs.IterationSnapshot) { r.iters++ }
func (r *recordingObs) RunDone(obs.RunSnapshot)             { r.runs++ }

// TestShardTapForwardsOnlyPhases pins the observer contract of the shard
// coordinator: per-shard engines report phases (stamped with their shard id),
// while iteration and run events are emitted once by the coordinator itself —
// the tap must swallow the per-shard copies.
func TestShardTapForwardsOnlyPhases(t *testing.T) {
	rec := &recordingObs{lastShard: -1}
	tap := &shardTap{shard: 2, inner: rec}
	tap.PhaseDone(obs.PhaseSnapshot{})
	tap.IterationDone(obs.IterationSnapshot{})
	tap.RunDone(obs.RunSnapshot{})
	if rec.phases != 1 || rec.lastShard != 2 {
		t.Fatalf("phase forwarding broken: phases=%d shard=%d", rec.phases, rec.lastShard)
	}
	if rec.iters != 0 || rec.runs != 0 {
		t.Fatalf("tap leaked per-shard events: iters=%d runs=%d", rec.iters, rec.runs)
	}
}
