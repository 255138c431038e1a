package bench

import (
	"reflect"
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/engine"
	"chgraph/internal/gen"
	"chgraph/internal/obs"
)

// TestCompressedFootprintWEB pins the headline memory win of the packed
// CSR: on the WEB recipe (clustered, sorted adjacency, so deltas are small)
// the adjacency held must be at least 25% smaller than the plain CSR with
// 4-byte ids (StorageBytes without its value slots).
func TestCompressedFootprintWEB(t *testing.T) {
	g := gen.MustLoad("WEB", 0.05)
	raw := g.StorageBytes() - 8*uint64(g.NumVertices()+g.NumHyperedges())
	packed := g.AdjacencyBytes()
	if packed*4 > raw*3 {
		t.Fatalf("packed adjacency %d bytes vs plain CSR %d: less than 25%% smaller", packed, raw)
	}
	edges := float64(g.NumBipartiteEdges())
	t.Logf("WEB: %.2f -> %.2f bytes/edge (%.1f%% smaller)",
		float64(raw)/edges, float64(packed)/edges, 100*(1-float64(packed)/float64(raw)))
}

// TestSessionCompressedBitIdentical: a session cell over the packed
// dataset is bit-identical to a direct engine run on the same graph, and
// the session's footprint metrics record the packed bytes the dataset
// holds.
func TestSessionCompressedBitIdentical(t *testing.T) {
	spec := RunSpec{Dataset: "WEB", Algo: "PR", Kind: engine.ChGraph}
	m := obs.NewSessionMetrics()
	s := NewSession(Config{Scale: 0.02, Cores: 4, Metrics: m})
	got := s.Run(spec)

	g := s.Dataset("WEB")
	alg, _ := algorithms.ByName(spec.Algo)
	want, err := engine.Run(g, alg, engine.Options{Kind: spec.Kind, Sys: s.Cfg().Sys, WMin: 3, Workers: s.Cfg().Workers})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("session cell diverged from a direct run:\ndirect  %+v\nsession %+v", want, got)
	}

	sum := m.Summary()
	if sum.AdjacencyBytes != g.AdjacencyBytes() || sum.BytesPerEdge == 0 {
		t.Fatalf("session footprint %+v, want the dataset's %d packed bytes", sum, g.AdjacencyBytes())
	}
}
