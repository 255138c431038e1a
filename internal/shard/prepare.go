package shard

import (
	"context"
	"fmt"

	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/par"
)

// Prepared bundles every partition-derived artifact a sharded run can reuse
// across requests: the materialized shards (assignment included) and one
// fully built engine.Prep (chunks + both OAGs) per shard. Building it once
// and passing it through Options.Pre makes repeat runs of the same
// (dataset, K, policy, cores, W_min) spec skip partitioning, sub-hypergraph
// materialization and OAG construction entirely — the serving layer's cache
// currency. A Prepared is immutable after construction and safe to share
// between concurrent runs (engines only read it).
type Prepared struct {
	// P holds the materialized shards and the assignment they came from.
	P *Partitioned
	// Preps holds each shard's chunking + OAGs, indexed like P.Shards.
	Preps []*engine.Prep
	// Cores and WMin echo the configuration the artifacts were built for;
	// RunCtx rejects a Pre whose configuration disagrees with the run's
	// options rather than silently executing with mismatched OAGs.
	Cores int
	WMin  uint32
}

// Prepare builds the reusable artifacts for a sharded run under opt:
// partition, materialize, then one engine.Prep per shard (chunks plus both
// per-chunk OAGs, usable by every engine kind). Cancelling ctx aborts
// between stages and inside the per-shard fan-out; on error or cancellation
// nothing is returned.
func Prepare(ctx context.Context, g *hypergraph.Bipartite, opt Options) (*Prepared, error) {
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
	eo := opt.Engine.WithDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a, err := Partition(g, k, pol, 0)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := Materialize(g, a, eo.Workers)
	if err != nil {
		return nil, err
	}
	preps := make([]*engine.Prep, k)
	if err := par.ForCtx(ctx, eo.Workers, k, func(i int) {
		preps[i] = engine.PrepareParallel(p.Shards[i].G, eo.Sys.Cores, eo.WMin, eo.Workers)
	}); err != nil {
		return nil, err
	}
	return &Prepared{
		P: p, Preps: preps,
		Cores: eo.Sys.Cores, WMin: eo.WMin,
	}, nil
}

// validatePre checks that pre was built for exactly the partition and engine
// configuration a run is about to use.
func validatePre(pre *Prepared, k int, pol Policy, eo engine.Options) error {
	a := pre.P.Assign
	if a.K != k || a.Policy != pol {
		return fmt.Errorf("shard: Pre built for K=%d/%s, run wants K=%d/%s", a.K, a.Policy, k, pol)
	}
	if pre.Cores != eo.Sys.Cores || pre.WMin != eo.WMin {
		return fmt.Errorf("shard: Pre built for cores=%d/wMin=%d, run wants cores=%d/wMin=%d",
			pre.Cores, pre.WMin, eo.Sys.Cores, eo.WMin)
	}
	if len(pre.Preps) != k {
		return fmt.Errorf("shard: Pre has %d per-shard preps for K=%d", len(pre.Preps), k)
	}
	return nil
}
