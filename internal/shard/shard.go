// Package shard is the partitioning + scale-out layer: it splits a
// hypergraph into K shards by hyperedge ownership (contiguous ranges or a
// single-pass streaming greedy assigner), materializes per-shard
// sub-hypergraphs with local↔global id maps, and runs one engine instance
// per shard with a frontier merge barrier between phases.
//
// Execution model. Each iteration runs the same two computation phases as
// engine.Run, but split across shards:
//
//  1. every shard compiles its phase concurrently (engine.Instance /
//     engine.Step expose the compiler without the apply pass);
//  2. the coordinator drains all shards' HF/VF applications strictly
//     sequentially, shard-major, against ONE global algorithm state in the
//     global id space — the apply order is a deterministic function of the
//     partition alone, never of host scheduling;
//  3. every shard stitches and replays its op streams on its own simulated
//     system concurrently; the phase's merged simulated time is the maximum
//     over shards (a barrier, as in any bulk-synchronous scale-out);
//  4. after the vertex-computation phase the shard-local activations are
//     OR-merged into the global next frontier, so a vertex activated on one
//     shard is active on every shard that replicates it.
//
// Because the drain applies HF/VF against the single global state in global
// ids, replicated vertices cannot diverge (there is exactly one value per
// vertex), algorithms observe global degrees, and K=1 reproduces the
// unsharded engine bit for bit — op streams, timing and all. DESIGN.md §11
// gives the full determinism contract, including which configurations are
// exactly K-invariant.
package shard

import (
	"context"
	"time"

	"chgraph/internal/algorithms"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/par"
	"chgraph/internal/trace"
)

// Options configures a sharded run.
type Options struct {
	// Shards is the shard count K (1..MaxShards; 0 and 1 both mean one
	// shard, which is the unsharded computation executed through the shard
	// machinery).
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
// tagged with the shard index. Iteration and run snapshots are suppressed:
// the coordinator emits merged ones.
type shardTap struct {
	shard int
	inner obs.Observer
}

func (t *shardTap) PhaseDone(s obs.PhaseSnapshot) {
	s.Shard = t.shard
	t.inner.PhaseDone(s)
}
func (t *shardTap) IterationDone(obs.IterationSnapshot) {}
func (t *shardTap) RunDone(obs.RunSnapshot)             {}

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
	k := opt.Shards
	if k <= 0 {
		k = 1
	}
	pol := opt.Policy
	if pol == "" {
		pol = PolicyRange
	}
	workers := opt.Engine.Workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	var a *Assignment
	var p *Partitioned
	if opt.Pre != nil {
		if err := validatePre(opt.Pre, k, pol, opt.Engine.WithDefaults()); err != nil {
			return nil, err
		}
		a, p = opt.Pre.P.Assign, opt.Pre.P
	} else {
		var err error
		if a, err = Partition(g, k, pol, 0); err != nil {
			return nil, err
		}
		if p, err = Materialize(g, a, workers); err != nil {
			return nil, err
		}
	}

	userObs := opt.Engine.Observer
	var hostStart time.Time
	if userObs != nil {
		hostStart = time.Now()
	}

	// One in-process backend (engine instance) per shard, prepped
	// concurrently (per-chunk OAG builds inside each instance already fan
	// out; shards are independent). On partial failure — one shard's engine
	// rejects its options, or the context is cancelled mid-fan-out — every
	// backend that did open is Closed so its scratch arena goes back to the
	// pool; RunBarrier owns teardown once all backends exist.
	lbs := make([]*localBackend, k)
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
		lbs[i], errs[i] = newLocalBackend(ctx, p.Shards[i], o)
	})
	for _, e := range errs {
		if ferr == nil && e != nil {
			ferr = e
		}
	}
	if ferr != nil {
		for _, lb := range lbs {
			if lb != nil {
				lb.Close()
			}
		}
		return nil, ferr
	}
	bks := make([]Backend, k)
	for i, lb := range lbs {
		bks[i] = lb
	}
	return RunBarrier(ctx, p, alg, bks, BarrierOptions{
		Workers:          workers,
		ChargePreprocess: opt.Engine.ChargePreprocess,
		Observer:         userObs,
		HostStart:        hostStart,
	})
}

func maxOf(xs []uint64) uint64 {
	var m uint64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// mergeResults sums the per-shard measurement counters into one Result.
// Cycles, PreprocessCycles, Iterations and State are set by the caller with
// barrier-aware semantics.
func mergeResults(per []*engine.Result) *engine.Result {
	m := &engine.Result{Kind: per[0].Kind}
	for _, r := range per {
		for a := trace.Array(0); a < trace.NumArrays; a++ {
			m.MemReads[a] += r.MemReads[a]
			m.MemWrites[a] += r.MemWrites[a]
			m.MemByPhase[0][a] += r.MemByPhase[0][a]
			m.MemByPhase[1][a] += r.MemByPhase[1][a]
		}
		m.CoreCycles += r.CoreCycles
		m.MemStallCycles += r.MemStallCycles
		m.FifoStallCycles += r.FifoStallCycles
		m.L1Hits += r.L1Hits
		m.L1Misses += r.L1Misses
		m.L2Hits += r.L2Hits
		m.L2Misses += r.L2Misses
		m.L3Hits += r.L3Hits
		m.L3Misses += r.L3Misses
		m.EdgesProcessed += r.EdgesProcessed
		m.ChainCount += r.ChainCount
		m.ChainNodes += r.ChainNodes
		m.ChainGenCount += r.ChainGenCount
		m.ChainGenNodes += r.ChainGenNodes
	}
	return m
}
