package system

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap ordering runQueue must reproduce.
type refHeap []*Agent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].clock < h[j].clock }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*Agent)) }
func (h *refHeap) Pop() any {
	old := *h
	a := old[len(old)-1]
	*h = old[:len(old)-1]
	return a
}

// TestRunQueueTieOrder drives runQueue and container/heap through the same
// random init/push/pop sequence with clocks drawn from a tiny range, so
// most comparisons are ties, and requires the same agent from every pop.
// Tie order decides which core reaches the shared L3 first, so it must not
// drift.
func TestRunQueueTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		agents := make([]*Agent, 1+rng.Intn(48))
		for i := range agents {
			agents[i] = &Agent{clock: uint64(rng.Intn(4))}
		}
		var q runQueue
		var ref refHeap
		n0 := rng.Intn(len(agents) + 1)
		q = append(q, agents[:n0]...)
		ref = append(ref, agents[:n0]...)
		q.init()
		heap.Init(&ref)
		pending := agents[n0:]
		for step := 0; len(q) > 0 || len(pending) > 0; step++ {
			if len(pending) > 0 && (len(q) == 0 || rng.Intn(3) > 0) {
				a := pending[0]
				pending = pending[1:]
				q.push(a)
				heap.Push(&ref, a)
				continue
			}
			got, want := q.pop(), heap.Pop(&ref).(*Agent)
			if got != want {
				t.Fatalf("trial %d step %d: runQueue popped clock %d (%p), container/heap clock %d (%p)",
					trial, step, got.clock, got, want.clock, want)
			}
			// Re-queue most popped agents with a clock at or just past
			// the popped one: at once, as RunPhase does after an op, or
			// later, as a FIFO wake-up does.
			if rng.Intn(4) > 0 {
				got.clock += uint64(rng.Intn(2))
				if rng.Intn(2) == 0 {
					q.push(got)
					heap.Push(&ref, got)
				} else {
					pending = append(pending, got)
				}
			}
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: reference heap kept %d agents", trial, len(ref))
		}
	}
}
