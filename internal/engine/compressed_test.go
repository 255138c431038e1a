package engine

import (
	"reflect"
	"testing"

	"chgraph/internal/hypergraph"
)

// codecCopy returns g as a dist worker or a file reader holds it: decoded
// from the CHG2 codec, payload kept verbatim.
func codecCopy(t *testing.T, g *hypergraph.Bipartite) *hypergraph.Bipartite {
	t.Helper()
	c, err := hypergraph.DecodeCompressed(hypergraph.AppendCompressed(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGoldenCompressedEquivalence: a graph that went through the compressed
// codec runs bit-identically to the graph it was encoded from — same
// cycles, per-array memory traffic, chain schedules and final float bits —
// for every engine kind and golden algorithm, serial and parallel. The
// engines decode incidence lists through cursors and take every simulated
// address from the plain offsets, so nothing may depend on which graph
// object holds the payload.
func TestGoldenCompressedEquivalence(t *testing.T) {
	g := smallHG(11)
	dec := codecCopy(t, g)
	for _, kind := range allKinds {
		for algName, mk := range goldenAlgorithms() {
			r1, err := Run(g, mk(), Options{Kind: kind, Sys: testSys(), Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				r2, err := Run(dec, mk(), Options{Kind: kind, Sys: testSys(), Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				// State.G is the input graph object itself and differs by
				// construction; every derived value must still match.
				r2.State.G = g
				if !reflect.DeepEqual(r1, r2) {
					t.Errorf("%v/%s Workers=%d: run on the decoded copy diverged", kind, algName, workers)
				}
			}
		}
	}
}

// TestCompressedPrepEquivalence checks Prepare over the codec-decoded copy
// builds the same chunks and OAGs as over the original.
func TestCompressedPrepEquivalence(t *testing.T) {
	g := smallHG(7)
	pr := Prepare(g, 4, 2)
	pc := Prepare(codecCopy(t, g), 4, 2)
	if !pr.VOAG.Equal(pc.VOAG) || !pr.HOAG.Equal(pc.HOAG) {
		t.Fatal("Prepare over the decoded copy built different OAGs")
	}
	if !reflect.DeepEqual(pr.VChunks, pc.VChunks) || !reflect.DeepEqual(pr.HChunks, pc.HChunks) {
		t.Fatal("Prepare over the decoded copy built different chunks")
	}
}
