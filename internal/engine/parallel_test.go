package engine

import (
	"reflect"
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/oag"
)

// freshAlg returns a new algorithm instance per run: algorithms carry
// private state, so each Run needs its own.
func parallelTestAlgs() map[string]func() algorithms.Algorithm {
	return map[string]func() algorithms.Algorithm{
		"BFS": func() algorithms.Algorithm { return algorithms.NewBFS(0) },
		"PR":  func() algorithms.Algorithm { return algorithms.NewPageRank(5) },
		"CC":  func() algorithms.Algorithm { return algorithms.NewCC() },
	}
}

// TestParallelMatchesSequentialAllKinds is the tentpole equivalence
// property: for every execution model and several algorithms, a run with
// Workers=N must produce a Result (timing, memory traffic, chain stats —
// everything) and final State identical to Workers=1. The two-pass compile
// makes this structural, and this test enforces it.
func TestParallelMatchesSequentialAllKinds(t *testing.T) {
	for seed := int64(3); seed <= 4; seed++ {
		g := smallHG(seed)
		prep := Prepare(g, 4, 1)
		for _, kind := range allKinds {
			for name, mk := range parallelTestAlgs() {
				serial, err := Run(g, mk(), Options{Kind: kind, Sys: testSys(), Prep: prep, WMin: 1, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				par4, err := Run(g, mk(), Options{Kind: kind, Sys: testSys(), Prep: prep, WMin: 1, Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial.State.VertexVal, par4.State.VertexVal) ||
					!reflect.DeepEqual(serial.State.HyperedgeVal, par4.State.HyperedgeVal) {
					t.Fatalf("seed %d %v %s: parallel state differs from serial", seed, kind, name)
				}
				s, p := *serial, *par4
				s.State, p.State = nil, nil
				if !reflect.DeepEqual(s, p) {
					t.Fatalf("seed %d %v %s: parallel result differs from serial:\nserial:   %+v\nparallel: %+v", seed, kind, name, s, p)
				}
			}
		}
	}
}

// TestPrepareParallelMatchesSequential: the parallel preprocessing path
// must build byte-identical OAGs and chunkings, including the BuildOps
// preprocessing-cost accounting.
func TestPrepareParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := smallHG(seed)
		for _, wMin := range []uint32{1, 3} {
			serial := PrepareParallel(g, 4, wMin, 1)
			par8 := PrepareParallel(g, 4, wMin, 8)
			if !reflect.DeepEqual(serial, par8) {
				t.Fatalf("seed %d wMin %d: parallel Prepare differs from serial", seed, wMin)
			}
		}
	}
}

// TestOAGBuildParallelMatchesSerial exercises the per-chunk parallel OAG
// construction directly against the serial builder on both sides.
func TestOAGBuildParallelMatchesSerial(t *testing.T) {
	for seed := int64(11); seed <= 14; seed++ {
		g := smallHG(seed)
		prep := Prepare(g, 4, 1)
		for _, side := range []oag.Side{oag.Vertices, oag.Hyperedges} {
			chunks := prep.VChunks
			if side == oag.Hyperedges {
				chunks = prep.HChunks
			}
			serial := oag.Build(g, side, 1, chunks, 1)
			par6 := oag.Build(g, side, 1, chunks, 6)
			if !reflect.DeepEqual(serial, par6) {
				t.Fatalf("seed %d side %v: parallel OAG differs from serial", seed, side)
			}
		}
	}
}
