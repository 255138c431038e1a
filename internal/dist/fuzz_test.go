package dist

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/sim/system"
)

// prepareBody builds a /prepare body the way the coordinator does, stating
// this build's wire version.
func prepareBody(tb testing.TB, req prepareRequest, g *hypergraph.Bipartite) []byte {
	tb.Helper()
	req.Wire = wireVersion
	hdr, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return append(appendHeader(nil, hdr), hypergraph.AppendCompressed(nil, g)...)
}

// FuzzPrepareDecode feeds arbitrary /prepare bodies through the worker's
// handshake (header split, JSON header, graph codec, engine options) and,
// when the worker accepts one, through one /step over every vertex and its
// /commit: nothing may panic, any graph the decoder accepts must be
// internally consistent, and an accepted session must run.
func FuzzPrepareDecode(f *testing.F) {
	tiny := hypergraph.MustBuild(3, [][]uint32{{0, 1}, {1, 2}})
	directed, err := hypergraph.BuildDirected(4, [][]uint32{{0, 1}, {2}}, [][]uint32{{2, 3}, {0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prepareBody(f, prepareRequest{Session: "s"}, tiny))
	// A header from a coordinator that still sent the retired
	// "compressed" field: unknown fields are ignored.
	f.Add(append(appendHeader(nil, []byte(`{"wire":2,"session":"s","compressed":true}`)), hypergraph.AppendCompressed(nil, tiny)...))
	f.Add(prepareBody(f, prepareRequest{Session: "s", Shard: 1, Iter: 2}, directed))
	f.Add(appendHeader(nil, []byte(`{"wire":2,"session":"s"}`)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<14 {
			t.Skip()
		}
		req, g, err := decodePrepare(body)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted an inconsistent graph: %v", err)
		}
		w := &Worker{Workers: 1}
		if _, err := w.prepare(body); err != nil {
			return // options the engine rejects
		}
		all := bitset.New(g.NumVertices())
		for v := uint32(0); v < g.NumVertices(); v++ {
			all.Set(v)
		}
		out, err := w.step(stepBody(t, stepRequest{Session: req.Session, Iter: req.Iter}, all))
		if err != nil {
			t.Fatalf("step on an accepted session: %v", err)
		}
		marks := acceptMarks(t, g, out, 0)
		if _, err := w.commit(commitBody(t, commitRequest{Session: req.Session, Iter: req.Iter}, noEffect(marks))); err != nil {
			t.Fatalf("commit on an accepted session: %v", err)
		}
	})
}

// fuzzShard is the shard graph the worker fuzz targets prepare: 5 vertices,
// 4 hyperedges, so a frontier is one bitmap word with bits past the shard.
func fuzzShard() *hypergraph.Bipartite {
	return hypergraph.MustBuild(5, [][]uint32{{0, 1, 2}, {1, 2, 3}, {0, 4}, {2, 3, 4}})
}

// preparedWorker returns a serial worker holding session "s" on fuzzShard.
func preparedWorker(tb testing.TB) *Worker {
	tb.Helper()
	w := &Worker{Workers: 1}
	eo := engine.Options{Kind: engine.ChGraph, Sys: system.ScaledConfig()}.WithDefaults()
	if _, err := w.prepare(prepareBody(tb, prepareRequest{Session: "s", Options: toWireOptions(eo)}, fuzzShard())); err != nil {
		tb.Fatal(err)
	}
	return w
}

// stepBody builds a /step body the way the coordinator does.
func stepBody(tb testing.TB, req stepRequest, frontier bitset.Bitmap) []byte {
	tb.Helper()
	hdr, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	body := appendHeader(nil, hdr)
	if frontier != nil {
		body = frontier.AppendBinary(body)
	}
	return body
}

// commitBody builds a /commit body the way the coordinator does.
func commitBody(tb testing.TB, req commitRequest, res *resolutions) []byte {
	tb.Helper()
	hdr, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return appendResolutions(appendHeader(nil, hdr), res)
}

// noEffect returns n resolutions that neither write nor activate.
func noEffect(n int) *resolutions {
	r := &resolutions{}
	for i := 0; i < n; i++ {
		r.add(0)
	}
	return r
}

// acceptMarks fails unless the coordinator accepts a /step reply for
// phase of shard g, and returns its mark count.
func acceptMarks(tb testing.TB, g *hypergraph.Bipartite, out []byte, phase int) int {
	tb.Helper()
	numSrc, deg, _ := phaseSources(g, phase)
	_, n, err := decodeSources(out, nil, numSrc, deg)
	if err != nil {
		tb.Fatalf("worker replied with marks the coordinator rejects: %v", err)
	}
	return n
}

// FuzzStepDecode feeds arbitrary /step bodies (header split, JSON header,
// frontier bitmap) to a prepared worker: it must never panic, and any step it
// accepts must reply with marks inside the shard.
func FuzzStepDecode(f *testing.F) {
	all := bitset.New(5)
	for v := uint32(0); v < 5; v++ {
		all.Set(v)
	}
	f.Add(stepBody(f, stepRequest{Session: "s"}, all))
	f.Add(stepBody(f, stepRequest{Session: "s", Phase: 1}, nil))
	f.Add(stepBody(f, stepRequest{Session: "s"}, bitset.Bitmap{^uint64(0)})) // bits past the shard
	f.Add(stepBody(f, stepRequest{Session: "s"}, bitset.New(200)))           // wrong word count
	f.Add(stepBody(f, stepRequest{Session: "s", Phase: 2}, all))
	f.Add(stepBody(f, stepRequest{Session: "other"}, all))
	f.Add(stepBody(f, stepRequest{Session: "s", Iter: 3}, all))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<12 {
			t.Skip()
		}
		w := preparedWorker(t)
		out, err := w.step(body)
		if err != nil {
			return
		}
		hdr, _, _ := splitHeader(body)
		var req stepRequest
		if err := json.Unmarshal(hdr, &req); err != nil {
			t.Fatalf("accepted a step whose header does not parse: %v", err)
		}
		acceptMarks(t, fuzzShard(), out, req.Phase)
		// A duplicate of the live step re-serves the same marks.
		if again, err := w.step(body); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("duplicate step: err %v, reply changed %v", err, !bytes.Equal(again, out))
		}
	})
}

// FuzzCommitDecode feeds arbitrary /commit bodies (header split, JSON header,
// packed resolutions) to a worker with a live hyperedge step over every
// vertex: it must never panic, and any commit it accepts must reply with a
// JSON header and a bitmap payload.
func FuzzCommitDecode(f *testing.F) {
	marks := liveWorker(f).st.NumMarks()
	all := &resolutions{}
	for i := 0; i < marks; i++ {
		all.add(algorithms.Wrote | algorithms.Activate)
	}
	f.Add(commitBody(f, commitRequest{Session: "s"}, noEffect(marks)))
	f.Add(commitBody(f, commitRequest{Session: "s"}, all))
	f.Add(commitBody(f, commitRequest{Session: "s"}, noEffect(marks+1)))
	f.Add(commitBody(f, commitRequest{Session: "s", Phase: 1}, noEffect(marks)))
	f.Add(commitBody(f, commitRequest{Session: "s"}, &resolutions{})[:10])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<12 {
			t.Skip()
		}
		w := liveWorker(t)
		out, err := w.commit(body)
		if err != nil {
			return
		}
		hdr, payload, err := splitHeader(out)
		var rep commitReply
		if err != nil || json.Unmarshal(hdr, &rep) != nil {
			t.Fatalf("commit reply does not parse: %v", err)
		}
		var next bitset.Bitmap
		if _, err := next.DecodeBinary(payload); err != nil {
			t.Fatalf("commit reply payload is not a bitmap: %v", err)
		}
	})
}

// liveWorker returns a prepared worker with a live hyperedge step over every
// vertex of fuzzShard.
func liveWorker(tb testing.TB) *Worker {
	tb.Helper()
	w := preparedWorker(tb)
	all := bitset.New(5)
	for v := uint32(0); v < 5; v++ {
		all.Set(v)
	}
	if _, err := w.step(stepBody(tb, stepRequest{Session: "s"}, all)); err != nil {
		tb.Fatal(err)
	}
	return w
}

// FuzzMarksDecode feeds arbitrary /step replies for either phase of
// fuzzShard to the coordinator's mark decode: it must never panic, every
// source it accepts lies inside the shard, the sources' incidence lists
// hold exactly the stated mark count, and the marks Drain expands from
// them re-encode to the same count and sources.
func FuzzMarksDecode(f *testing.F) {
	g := fuzzShard()
	f.Add(encodeSources(5, 0, 2), byte(0))         // in range: vertex 0 (2 marks), vertex 2 (3 marks)
	f.Add(encodeSources(2, 5), byte(0))            // source on the vertex bound
	f.Add(encodeSources(6, 1, 0), byte(1))         // vertex phase: hyperedges 1 and 0
	f.Add(encodeSources(4, 1, 0), byte(1))         // count below the lists' total
	f.Add(encodeSources(0), byte(1))               // empty phase
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, byte(0)) // truncated count
	f.Fuzz(func(t *testing.T, data []byte, phase byte) {
		numSrc, deg, adj := phaseSources(g, int(phase&1))
		srcs, n, err := decodeSources(data, nil, numSrc, deg)
		if err != nil {
			return
		}
		for _, s := range srcs {
			if s >= numSrc {
				t.Fatalf("accepted source %d outside the shard's %d", s, numSrc)
			}
		}
		marks := listMarks(adj, srcs...)
		if len(marks) != n {
			t.Fatalf("accepted %d sources holding %d marks, stated %d", len(srcs), len(marks), n)
		}
		re := appendSources(nil, len(marks), func(i int) (uint32, uint32) { return marks[i][0], marks[i][1] }, deg)
		again, m, err := decodeSources(re, nil, numSrc, deg)
		if err != nil || m != n || !slices.Equal(again, srcs) {
			t.Fatalf("accepted reply does not survive re-encoding: %v", err)
		}
	})
}

// FuzzSourcesDecode feeds arbitrary /step replies, shard sizes and degree
// patterns to the source decode's range and count checks: it must never
// panic, and any reply it accepts names only sources below the bound whose
// degrees sum to the stated mark count.
func FuzzSourcesDecode(f *testing.F) {
	f.Add(encodeSources(6, 2, 9, 0), uint32(10), uint32(3))
	f.Add(encodeSources(6, 2, 10), uint32(10), uint32(3))          // source on the bound
	f.Add(encodeSources(7, 2, 9, 0), uint32(10), uint32(3))        // count above the lists' total
	f.Add(encodeSources(1<<40, 1), uint32(2), uint32(0))           // huge count
	f.Add(append(encodeSources(2, 1), 0x80), uint32(2), uint32(2)) // truncated source
	f.Add([]byte{}, uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, numSrc, degMod uint32) {
		// Degrees 1..degMod+1, varying by source, as a shard's would.
		deg := func(s uint32) uint32 { return 1 + s%(degMod%64+1) }
		srcs, n, err := decodeSources(data, nil, numSrc, deg)
		if err != nil {
			return
		}
		total := 0
		for _, s := range srcs {
			if s >= numSrc {
				t.Fatalf("accepted source %d outside %d", s, numSrc)
			}
			total += int(deg(s))
		}
		if total != n {
			t.Fatalf("accepted sources holding %d marks, stated %d", total, n)
		}
	})
}

// FuzzResolutionsDecode feeds arbitrary /commit payloads to the worker's
// packed-resolution decode: it must never panic, and any payload it accepts
// has exactly the stated mark count's bytes and re-encodes to itself.
func FuzzResolutionsDecode(f *testing.F) {
	r := &resolutions{}
	for _, e := range []algorithms.EdgeResult{0, algorithms.Wrote, algorithms.Activate, algorithms.Wrote | algorithms.Activate, algorithms.Wrote} {
		r.add(e)
	}
	blob := appendResolutions(nil, r)
	f.Add(blob)
	f.Add(blob[:len(blob)-1])                         // one byte short
	f.Add(append(blob[:len(blob):len(blob)], 0))      // one byte long
	f.Add(append(blob[:len(blob)-1:len(blob)], 0xff)) // padding bits set
	f.Add(appendResolutions(nil, &resolutions{}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeResolutions(data)
		if err != nil {
			return
		}
		back := &resolutions{}
		for i := 0; i < res.n; i++ {
			back.add(res.at(i))
		}
		if !bytes.Equal(appendResolutions(nil, back), data) {
			t.Fatal("accepted resolutions do not re-encode to their input")
		}
	})
}
