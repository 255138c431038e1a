package dist

import (
	"bytes"
	"encoding/json"
	"testing"

	"chgraph/internal/bitset"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/sim/system"
)

// prepareBody builds a /prepare body the way the coordinator does.
func prepareBody(tb testing.TB, req prepareRequest, g *hypergraph.Bipartite) []byte {
	tb.Helper()
	hdr, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return append(appendHeader(nil, hdr), hypergraph.AppendCompressed(nil, g)...)
}

// FuzzPrepareDecode feeds arbitrary /prepare bodies through the worker's
// decode path (header split, JSON header, graph codec): it must never
// panic, and any graph it accepts must be internally consistent.
func FuzzPrepareDecode(f *testing.F) {
	tiny := hypergraph.MustBuild(3, [][]uint32{{0, 1}, {1, 2}})
	directed, err := hypergraph.BuildDirected(4, [][]uint32{{0, 1}, {2}}, [][]uint32{{2, 3}, {0}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prepareBody(f, prepareRequest{Session: "s"}, tiny))
	// A header from a coordinator that still sent the retired
	// "compressed" field: unknown fields are ignored.
	f.Add(append(appendHeader(nil, []byte(`{"session":"s","compressed":true}`)), hypergraph.AppendCompressed(nil, tiny)...))
	f.Add(prepareBody(f, prepareRequest{Session: "s", Shard: 1, Iter: 2}, directed))
	f.Add(appendHeader(nil, []byte(`{"session":"s"}`)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<14 {
			t.Skip()
		}
		_, g, err := decodePrepare(body)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted an inconsistent graph: %v", err)
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
func commitBody(tb testing.TB, req commitRequest, res []byte) []byte {
	tb.Helper()
	hdr, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return appendResolutions(appendHeader(nil, hdr), res)
}

// checkMarks fails unless a /step reply decodes to marks inside the shard
// for the phase.
func checkMarks(t *testing.T, out []byte, phase int) {
	t.Helper()
	g := fuzzShard()
	numSrc, numDst := g.NumVertices(), g.NumHyperedges()
	if phase == 1 {
		numSrc, numDst = numDst, numSrc
	}
	if _, err := decodeMarks(out, nil, numSrc, numDst); err != nil {
		t.Fatalf("worker replied with marks the coordinator rejects: %v", err)
	}
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
		checkMarks(t, out, req.Phase)
		// A duplicate of the live step re-serves the same marks.
		if again, err := w.step(body); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("duplicate step: err %v, reply changed %v", err, !bytes.Equal(again, out))
		}
	})
}

// FuzzCommitDecode feeds arbitrary /commit bodies (header split, JSON header,
// resolutions) to a worker with a live hyperedge step over every vertex: it
// must never panic, and any commit it accepts must reply with a JSON header
// and a bitmap payload.
func FuzzCommitDecode(f *testing.F) {
	marks := liveWorker(f).st.NumMarks()
	f.Add(commitBody(f, commitRequest{Session: "s"}, make([]byte, marks)))
	f.Add(commitBody(f, commitRequest{Session: "s"}, bytes.Repeat([]byte{0xff}, marks)))
	f.Add(commitBody(f, commitRequest{Session: "s"}, make([]byte, marks+1)))
	f.Add(commitBody(f, commitRequest{Session: "s", Phase: 1}, make([]byte, marks)))
	f.Add(commitBody(f, commitRequest{Session: "s"}, nil)[:10])
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

// FuzzMarksDecode feeds arbitrary /step replies and shard sizes to the
// coordinator's mark decode: it must never panic, and every mark it accepts
// lies inside the shard and re-encodes to the bytes it was read from.
func FuzzMarksDecode(f *testing.F) {
	pairs := [][2]uint32{{0, 3}, {4, 0}, {2, 2}}
	blob := appendMarks(nil, len(pairs), func(i int) (uint32, uint32) { return pairs[i][0], pairs[i][1] })
	f.Add(blob, uint32(5), uint32(4))
	f.Add(blob, uint32(4), uint32(4)) // src on the bound
	f.Add(blob, uint32(5), uint32(3)) // dst on the bound
	f.Add(blob[:len(blob)-3], uint32(5), uint32(4))
	f.Add(appendMarks(nil, 0, nil), uint32(0), uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint32(1), uint32(1)) // huge count, no pairs
	f.Fuzz(func(t *testing.T, data []byte, numSrc, numDst uint32) {
		marks, err := decodeMarks(data, nil, numSrc, numDst)
		if err != nil {
			return
		}
		for i := 0; i+1 < len(marks); i += 2 {
			if marks[i] >= numSrc || marks[i+1] >= numDst {
				t.Fatalf("accepted mark (%d, %d) outside %d x %d", marks[i], marks[i+1], numSrc, numDst)
			}
		}
		re := appendMarks(nil, len(marks)/2, func(i int) (uint32, uint32) { return marks[2*i], marks[2*i+1] })
		if !bytes.HasPrefix(data, re) {
			t.Fatal("accepted marks do not re-encode to their input")
		}
	})
}
