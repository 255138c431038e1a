package dist

import (
	"encoding/json"
	"runtime"
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/engine"
	"chgraph/internal/gen"
	"chgraph/internal/hypergraph"
)

// sessionIters is the PageRank iteration count of a scripted session.
const sessionIters = 2

// workerSession is the request bodies of one PageRank-shaped session on a
// Hygra shard engine, as the coordinator sends them: every vertex active,
// every mark resolved as a write that activates its destination, so both
// phases of every iteration compile the whole graph.
type workerSession struct {
	prepare []byte
	steps   [][]byte
	commits [][]byte
	finish  []byte
}

func newWorkerSession(tb testing.TB, g *hypergraph.Bipartite) *workerSession {
	tb.Helper()
	eo := engine.Options{Kind: engine.Hygra, Sys: testSys()}.WithDefaults()
	s := &workerSession{prepare: prepareBody(tb, prepareRequest{Session: "s", Options: toWireOptions(eo)}, g)}
	all := bitset.New(g.NumVertices())
	for v := uint32(0); v < g.NumVertices(); v++ {
		all.Set(v)
	}
	res := &resolutions{}
	for i := uint64(0); i < g.NumBipartiteEdges(); i++ {
		res.add(algorithms.Wrote | algorithms.Activate)
	}
	for it := 0; it < sessionIters; it++ {
		for ph := 0; ph < 2; ph++ {
			var front bitset.Bitmap
			if ph == 0 {
				front = all
			}
			s.steps = append(s.steps, stepBody(tb, stepRequest{Session: "s", Iter: it, Phase: ph}, front))
			s.commits = append(s.commits, commitBody(tb, commitRequest{Session: "s", Iter: it, Phase: ph}, res))
		}
	}
	hdr, err := json.Marshal(finishRequest{Session: "s"})
	if err != nil {
		tb.Fatal(err)
	}
	s.finish = appendHeader(nil, hdr)
	return s
}

// run drives the session through w's handlers.
func (s *workerSession) run(tb testing.TB, w *Worker) {
	do := func(fn func([]byte) ([]byte, error), body []byte) {
		if _, err := w.call(fn, body); err != nil {
			tb.Fatal(err)
		}
	}
	do(w.prepare, s.prepare)
	for i := range s.steps {
		do(w.step, s.steps[i])
		do(w.commit, s.commits[i])
	}
	do(w.finish, s.finish)
}

// sessionGraph is the shard the session tests and benchmark run: a WEB
// instance of a few thousand bipartite edges.
func sessionGraph() *hypergraph.Bipartite { return gen.MustLoad("WEB", 0.02) }

// maxSessionBytesPerEdge bounds a warm session's allocation per bipartite
// edge of its shard: the decoded graph, the replies and the frontiers. A
// worker that built a fresh engine arena and simulated system for every
// session allocated ~610 bytes per edge on sessionGraph (4.6 MB); reusing
// them leaves ~13 (97 KB).
const maxSessionBytesPerEdge = 32

// TestWarmWorkerSessionAllocs pins the worker's per-session allocation: a
// warm worker's next session reuses the engine arena and simulated system
// the last one returned to the process-wide pool, so it allocates little
// beyond the decoded shard graph.
func TestWarmWorkerSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	g := sessionGraph()
	s := newWorkerSession(t, g)
	w := &Worker{Workers: 1}
	s.run(t, w)
	best := ^uint64(0)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		s.run(t, w)
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
	}
	if limit := maxSessionBytesPerEdge * g.NumBipartiteEdges(); best > limit {
		t.Fatalf("warm session allocated %d bytes, want at most %d (%d per bipartite edge)", best, limit, maxSessionBytesPerEdge)
	}
}

// BenchmarkWorkerSession runs one full session (prepare, two PageRank
// iterations of step and commit, finish) on a warm in-process worker,
// calling its handlers directly: the worker's host time and allocations per
// distributed session, without HTTP.
func BenchmarkWorkerSession(b *testing.B) {
	s := newWorkerSession(b, sessionGraph())
	w := &Worker{Workers: 1}
	s.run(b, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.run(b, w)
	}
}
