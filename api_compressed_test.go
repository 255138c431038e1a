package chgraph

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// reread returns g read back from its own compressed (CHG2) encoding, as a
// registry upload or file load would hold it.
func reread(t *testing.T, g *Hypergraph) *Hypergraph {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadHypergraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompressedRunBitIdentical: a hypergraph read back from its compressed
// encoding runs bit for bit like the original — values, cycles, per-group
// memory traffic, chain counts — unsharded and sharded.
func TestCompressedRunBitIdentical(t *testing.T) {
	g := prepareTestHG(t)
	back := reread(t, g)
	for _, alg := range []string{"PR", "BFS"} {
		for _, cfg := range []RunConfig{
			{Engine: ChGraph, Cores: 4, Iterations: 3},
			{Engine: Hygra, Cores: 2, Iterations: 3},
			{Engine: GLA, Cores: 4, Iterations: 3, Shards: 2},
		} {
			want, err := Run(g, alg, cfg)
			if err != nil {
				t.Fatalf("%s original: %v", alg, err)
			}
			got, err := Run(back, alg, cfg)
			if err != nil {
				t.Fatalf("%s reread: %v", alg, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s shards=%d: run on the reread graph diverged:\nwant %+v\ngot  %+v",
					alg, cfg.Shards, want, got)
			}
		}
	}
}

// TestCompressedPreparedRoundTrip pins the Prepared interplay for a graph
// read back from its compressed encoding: its artifacts serve its runs
// (bit-identical to direct runs), are rejected for the original graph
// object, and survive Apply.
func TestCompressedPreparedRoundTrip(t *testing.T) {
	orig := prepareTestHG(t)
	g := reread(t, orig)
	cfg := RunConfig{Engine: ChGraph, Cores: 4, Iterations: 3}
	pre, err := Prepare(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	direct, err := Run(g, "PR", cfg)
	if err != nil {
		t.Fatalf("direct Run: %v", err)
	}
	c := cfg
	c.Prepared = pre
	reused, err := Run(g, "PR", c)
	if err != nil {
		t.Fatalf("prepared Run: %v", err)
	}
	if !reflect.DeepEqual(direct, reused) {
		t.Fatal("prepared run diverged from direct run")
	}

	// The artifact is bound to the graph object it was built for.
	if _, err := Run(orig, "PR", c); err == nil {
		t.Fatal("Prepared accepted by a run on another graph object")
	}

	// The derived pair still matches a from-scratch run on the new graph.
	var batch Batch
	batch.RemoveHyperedges(0)
	batch.AddHyperedges([]uint32{0, 1, 2, 3})
	ng, npre, err := pre.Apply(context.Background(), batch)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	c = cfg
	c.Prepared = npre
	got, err := Run(ng, "PR", c)
	if err != nil {
		t.Fatalf("Run on applied pair: %v", err)
	}
	want, err := Run(ng, "PR", cfg)
	if err != nil {
		t.Fatalf("from-scratch Run on mutated graph: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("applied artifacts diverged from from-scratch run")
	}
}
