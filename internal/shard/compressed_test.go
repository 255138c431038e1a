package shard

import (
	"reflect"
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
)

// TestPhaseStringAndTapSuppression nails down two tiny contracts: the
// Phase names used in logs, and that shardTap forwards only phase snapshots
// (iteration and run snapshots are the coordinator's to emit, merged).
func TestPhaseStringAndTapSuppression(t *testing.T) {
	if engine.HyperedgePhase.String() != "hyperedge" || engine.VertexPhase.String() != "vertex" {
		t.Fatalf("phase names %q/%q", engine.HyperedgePhase, engine.VertexPhase)
	}
	tl := obs.NewTimeline()
	tap := &shardTap{shard: 2, inner: tl}
	tap.IterationDone(obs.IterationSnapshot{})
	tap.RunDone(obs.RunSnapshot{})
	if len(tl.Iterations()) != 0 {
		t.Fatal("shardTap forwarded an iteration snapshot")
	}
	if _, done := tl.Run(); done {
		t.Fatal("shardTap forwarded a run snapshot")
	}
}

// TestShardCompressedKInvariance: a global graph decoded from the
// compressed codec materializes into shards whose encodings are
// byte-identical to the original graph's shards, and a sharded run on it is
// bit-identical to the same sharded run on the original, for every K — the
// K-invariance contract does not depend on where the payload came from.
func TestShardCompressedKInvariance(t *testing.T) {
	mk := func() algorithms.Algorithm { return algorithms.NewBFS(0) }
	for _, seed := range []int64{7, 11} {
		g := smallHG(seed)
		dec, err := hypergraph.DecodeCompressed(hypergraph.AppendCompressed(nil, g))
		if err != nil {
			t.Fatal(err)
		}

		var shardBytes [2][][]byte
		for i, src := range []*hypergraph.Bipartite{g, dec} {
			a, err := Partition(src, 3, PolicyGreedy, 0)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Materialize(src, a, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range p.Shards {
				shardBytes[i] = append(shardBytes[i], hypergraph.AppendCompressed(nil, sh.G))
			}
		}
		if !reflect.DeepEqual(shardBytes[0], shardBytes[1]) {
			t.Fatalf("seed %d: shards of the decoded graph encode differently", seed)
		}

		for _, kind := range allKinds {
			for _, k := range []int{1, 2, 3, 8} {
				if uint32(k) > g.NumHyperedges() {
					continue
				}
				want := runSharded(t, g, mk, kind, PolicyGreedy, k, 2)
				got := runSharded(t, dec, mk, kind, PolicyGreedy, k, 2)
				// State.G is the input graph object, which differs by
				// construction, and nowhere else.
				got.State.G = want.State.G
				if !reflect.DeepEqual(want, got) {
					t.Errorf("seed %d %v K=%d: sharded run on the decoded graph diverged", seed, kind, k)
				}
			}
		}
	}
}
