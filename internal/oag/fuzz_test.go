package oag

import (
	"math/rand"
	"testing"

	"chgraph/internal/hypergraph"
)

// FuzzMutationSequence drives an evolving hypergraph through a byte-coded
// stream of interleaved mutations — removes, adds, batch flushes, removes of
// nonexistent ids — and checks after every applied batch that the
// incrementally updated H- and V-OAGs are byte-equal to fresh serial and
// parallel builds on the mutated graph, which match the brute-force
// reference. Invariants: no panic on any input; invalid batches fail
// cleanly without mutating anything; incremental always equals rebuild.
//
// Op encoding (one byte per op, arg = b >> 2):
//
//	b & 3 == 0: stage a remove of hyperedge arg % numH
//	b & 3 == 1: stage an add of a hyperedge with arg % 6 random pins
//	b & 3 == 2: flush the staged batch (also exercises empty batches)
//	b & 3 == 3: attempt a remove of nonexistent id numH + arg (must error)
func FuzzMutationSequence(f *testing.F) {
	f.Add(int64(1), []byte{})                                // no ops: initial build only
	f.Add(int64(2), []byte{2, 2})                            // empty batches
	f.Add(int64(3), []byte{0, 2, 1, 2})                      // remove, flush, re-add, flush
	f.Add(int64(4), []byte{3, 7, 11})                        // nonexistent removes only
	f.Add(int64(5), []byte{0, 4, 8, 1, 5, 2, 1, 1, 2, 0, 2}) // mixed batches
	f.Add(int64(6), []byte{1, 1, 1, 1, 0, 0, 0, 0, 2, 2, 0, 1, 3, 2})

	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		wMin := uint32(rng.Intn(3) + 1)
		maxDeg := []int{0, 4, 8}[rng.Intn(3)]
		parts := rng.Intn(4)
		s := newDiffState(randomHG(seed), wMin, maxDeg, parts)

		var batch hypergraph.Batch
		flush := func() {
			s.apply(t, batch)
			batch = hypergraph.Batch{}
		}
		for _, b := range ops {
			arg := uint32(b >> 2)
			switch b & 3 {
			case 0:
				if numH := s.g.NumHyperedges(); numH > 0 {
					batch.Remove = append(batch.Remove, arg%numH)
				}
			case 1:
				var pins []uint32
				for k := uint32(0); k < arg%6; k++ {
					pins = append(pins, uint32(rng.Intn(int(s.g.NumVertices()))))
				}
				batch.Add = append(batch.Add, pins)
			case 2:
				flush()
			case 3:
				bad := hypergraph.Batch{Remove: []uint32{s.g.NumHyperedges() + arg}}
				if _, err := s.g.ApplyBatch(bad); err == nil {
					t.Fatal("remove of nonexistent hyperedge id must fail")
				}
			}
		}
		flush()
	})
}
