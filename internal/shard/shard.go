// Package shard is the partitioning + scale-out layer: it splits a
// hypergraph into K shards by hyperedge ownership (contiguous ranges or a
// single-pass streaming greedy assigner), materializes per-shard
// sub-hypergraphs with local↔global id maps, and runs one in-process engine
// backend per shard through engine.Drive, the iteration driver unsharded
// and distributed runs share.
//
// Execution model. Each iteration runs the two computation phases every
// run executes, split across shards:
//
//  1. every shard compiles its phase concurrently (engine.Instance /
//     engine.Step expose the compiler without the apply pass);
//  2. the driver drains all shards' HF/VF applications strictly
//     sequentially, shard-major, against ONE global algorithm state in the
//     global id space — the apply order is a deterministic function of the
//     partition alone, never of host scheduling;
//  3. every shard stitches and replays its op streams on its own simulated
//     system concurrently; the phase's merged simulated time is the maximum
//     over shards (a barrier, as in any bulk-synchronous scale-out);
//  4. the vertex-computation phase's shard-local activations are OR-merged
//     into the global next frontier, so a vertex activated on one shard is
//     active on every shard that replicates it.
//
// Because the drain applies HF/VF against the single global state in global
// ids, replicated vertices cannot diverge (there is exactly one value per
// vertex) and algorithms observe global degrees. K=1 runs one backend on the
// global graph itself (no sub-hypergraph copy, no id maps), which is the
// unsharded engine.RunCtx computation. DESIGN.md §11 gives the full
// determinism contract, including which configurations are exactly
// K-invariant.
package shard

import (
	"context"
	"time"

	"chgraph/internal/algorithms"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/par"
)

// Options configures a sharded run.
type Options struct {
	// Shards is the shard count K (1..MaxShards; 0 and 1 both mean one
	// shard, which runs the unsharded engine on the global graph).
	Shards int
	// Policy selects the partitioner (default PolicyRange).
	Policy Policy
	// Engine configures each shard's engine. Prep must be nil (each shard
	// preps its own sub-hypergraph); Observer receives every shard's
	// per-phase snapshots tagged with the shard index, plus merged
	// iteration and run snapshots from the coordinator.
	Engine engine.Options
	// Pre supplies prebuilt partition artifacts (see Prepare): when non-nil
	// the run skips partitioning, materialization and per-shard OAG
	// construction, using Pre's shards and preps instead. Pre must have been
	// built for the same K, policy, core count and W_min; a
	// mismatch is an error, never a silent misconfiguration.
	Pre *Prepared
}

// Result is a sharded run's merged outcome: the embedded engine.Result
// carries the global final State and the measurement counters summed over
// shards — except Cycles, which is the barrier-aware merged time (per phase
// the maximum over shards, summed over phases), and PreprocessCycles, the
// maximum over shards (shards preprocess concurrently).
type Result struct {
	*engine.Result
	// Shards and Policy echo the partition configuration.
	Shards int
	Policy Policy
	// ReplicatedVertices / ReplicationFactor measure the partition cut (see
	// Assignment).
	ReplicatedVertices uint64
	ReplicationFactor  float64
	// ShardPins and ShardHyperedges give the per-shard load balance.
	ShardPins       []uint64
	ShardHyperedges []uint64
	// PerShard holds each shard's own engine measurements (State is nil;
	// the algorithm state is global).
	PerShard []*engine.Result
	// WorkerRestarts counts backend restarts recovered during the run —
	// always 0 in-process; the distributed runtime counts worker rejoins.
	// A run with restarts keeps exact state checksums but its simulated
	// cycle counters are no longer comparable to a crash-free run (the
	// restarted worker's simulator is cache-cold; DESIGN.md §16).
	WorkerRestarts uint64
}

// shardTap forwards a shard engine's phase snapshots to the user observer
// tagged with the shard index. Engines emit nothing else: iteration and run
// snapshots come from the driver, merged.
type shardTap struct {
	obs.Null
	shard int
	inner obs.Observer
}

func (t *shardTap) PhaseDone(s obs.PhaseSnapshot) {
	s.Shard = t.shard
	t.inner.PhaseDone(s)
}

// runTap adds the partition to the driver's run snapshot.
type runTap struct {
	obs.Observer
	a *Assignment
}

func (t runTap) RunDone(s obs.RunSnapshot) {
	s.Shards, s.ReplicatedVertices, s.ReplicationFactor = t.a.K, t.a.ReplicatedVertices, t.a.ReplicationFactor()
	t.Observer.RunDone(s)
}

// Run executes alg on g split across opt.Shards shards.
func Run(g *hypergraph.Bipartite, alg algorithms.Algorithm, opt Options) (*Result, error) {
	return RunCtx(context.Background(), g, alg, opt)
}

// RunCtx is Run with cooperative cancellation, observed at the same points
// as engine.RunCtx — iteration boundaries, after each phase's compile
// fan-out (before any HF/VF application), and inside every shard engine's
// parallel compile workers — so a cancelled sharded run never commits
// partial work to any shard's simulator and returns ctx.Err() promptly.
func RunCtx(ctx context.Context, g *hypergraph.Bipartite, alg algorithms.Algorithm, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	userObs := opt.Engine.Observer
	var hostStart time.Time
	if userObs != nil {
		hostStart = time.Now()
	}
	k := max(opt.Shards, 1)
	pol := opt.Policy
	if pol == "" {
		pol = PolicyRange
	}
	workers := opt.Engine.Workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	// shards stays nil at K=1: the one backend runs on g itself.
	var a *Assignment
	var shards []*Shard
	if opt.Pre != nil {
		if err := validatePre(opt.Pre, k, pol, opt.Engine.WithDefaults()); err != nil {
			return nil, err
		}
		a = opt.Pre.P.Assign
		if k > 1 {
			shards = opt.Pre.P.Shards
		}
	} else {
		var err error
		if a, err = Partition(g, k, pol, 0); err != nil {
			return nil, err
		}
		if k > 1 {
			p, err := Materialize(g, a, workers)
			if err != nil {
				return nil, err
			}
			shards = p.Shards
		}
	}

	// One in-process backend (engine instance) per shard, prepped
	// concurrently (per-chunk OAG builds inside each instance already fan
	// out; shards are independent). On partial failure — one shard's engine
	// rejects its options, or the context is cancelled mid-fan-out — every
	// backend that did open is Closed so its scratch arena goes back to the
	// pool; Drive owns teardown once all backends exist.
	bks := make([]engine.Backend, k)
	errs := make([]error, k)
	ferr := par.ForCtx(ctx, workers, k, func(i int) {
		o := opt.Engine
		o.Prep = nil
		if opt.Pre != nil {
			o.Prep = opt.Pre.Preps[i]
		}
		o.Observer = nil
		if userObs != nil {
			o.Observer = &shardTap{shard: i, inner: userObs}
		}
		sg, vs, hs := g, []uint32(nil), []uint32(nil)
		if shards != nil {
			sg, vs, hs = shards[i].G, shards[i].Vertices, shards[i].Hyperedges
		}
		in, err := engine.NewInstanceCtx(ctx, sg, o)
		if err != nil {
			errs[i] = err
			return
		}
		bks[i] = engine.NewLocalBackend(in, vs, hs)
	})
	for _, e := range errs {
		if ferr == nil && e != nil {
			ferr = e
		}
	}
	if ferr != nil {
		for _, bk := range bks {
			if bk != nil {
				bk.Close()
			}
		}
		return nil, ferr
	}
	return Drive(ctx, g, a, alg, bks, opt.Engine, hostStart)
}

// Drive runs alg on g over bks, one backend per shard of a, through
// engine.Drive, and adds a's partition to the Result and the run snapshot.
// RunCtx and dist.RunCtx share it; like engine.Drive it Closes every
// backend on every path.
func Drive(ctx context.Context, g *hypergraph.Bipartite, a *Assignment, alg algorithms.Algorithm, bks []engine.Backend, opt engine.Options, hostStart time.Time) (*Result, error) {
	if opt.Observer != nil {
		opt.Observer = runTap{Observer: opt.Observer, a: a}
	}
	res, per, err := engine.Drive(ctx, g, alg, bks, opt, hostStart)
	if err != nil {
		return nil, err
	}
	out := a.Result(res, per)
	for _, bk := range bks {
		out.WorkerRestarts += bk.Restarts()
	}
	return out, nil
}

// Result wraps res, the merged outcome of a run over a's shards whose
// engines measured per, with a's partition.
func (a *Assignment) Result(res *engine.Result, per []*engine.Result) *Result {
	return &Result{
		Result: res,
		Shards: a.K, Policy: a.Policy,
		ReplicatedVertices: a.ReplicatedVertices,
		ReplicationFactor:  a.ReplicationFactor(),
		ShardPins:          a.ShardPins,
		ShardHyperedges:    a.ShardHyperedges,
		PerShard:           per,
	}
}
