package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/shard"
)

func TestHeaderRoundTrip(t *testing.T) {
	hdr := []byte(`{"session":"abc"}`)
	payload := []byte{1, 2, 3, 4, 5}
	body := append(appendHeader(nil, hdr), payload...)
	gotHdr, gotPayload, err := splitHeader(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotHdr, hdr) || !bytes.Equal(gotPayload, payload) {
		t.Fatalf("round trip: hdr %q payload %v", gotHdr, gotPayload)
	}
	if _, _, err := splitHeader(body[:2]); err == nil {
		t.Fatal("truncated length prefix: want error")
	}
	if _, _, err := splitHeader(body[:4+len(hdr)-1]); err == nil {
		t.Fatal("truncated header: want error")
	}
}

// graphsEqual compares two bipartite hypergraphs structurally, including
// adjacency order (the graph codec must preserve it bit for bit).
func graphsEqual(t *testing.T, a, b *hypergraph.Bipartite) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumHyperedges() != b.NumHyperedges() || a.Directed() != b.Directed() {
		t.Fatalf("shape mismatch: %d/%d/%v vs %d/%d/%v",
			a.NumVertices(), a.NumHyperedges(), a.Directed(),
			b.NumVertices(), b.NumHyperedges(), b.Directed())
	}
	for h := uint32(0); h < a.NumHyperedges(); h++ {
		if !reflect.DeepEqual(a.IncidentVertices(h), b.IncidentVertices(h)) {
			t.Fatalf("hyperedge %d pins %v vs %v", h, a.IncidentVertices(h), b.IncidentVertices(h))
		}
	}
	for v := uint32(0); v < a.NumVertices(); v++ {
		av, bv := a.IncidentHyperedges(v), b.IncidentHyperedges(v)
		if len(av) != len(bv) {
			t.Fatalf("vertex %d incidence %v vs %v", v, av, bv)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("vertex %d incidence %v vs %v", v, av, bv)
			}
		}
	}
}

// startTappedWorkers is startHTTPWorkers with every /prepare body recorded
// by shard index before the worker handles it.
func startTappedWorkers(t *testing.T, k int) ([]string, func(shard int) []byte) {
	t.Helper()
	var mu sync.Mutex
	bodies := map[int][]byte{}
	addrs := make([]string, k)
	for i := range addrs {
		w := NewWorker()
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/prepare" {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					http.Error(rw, err.Error(), http.StatusBadRequest)
					return
				}
				if req, _, err := decodePrepare(body); err == nil {
					mu.Lock()
					bodies[req.Shard] = body
					mu.Unlock()
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			w.ServeHTTP(rw, r)
		}))
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs, func(shard int) []byte {
		mu.Lock()
		defer mu.Unlock()
		return bodies[shard]
	}
}

// smallDirectedHG is a seeded directed hypergraph of smallHG's size.
func smallDirectedHG(t *testing.T, seed int64) *hypergraph.Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	numV := uint32(rng.Intn(80) + 8)
	srcs := make([][]uint32, rng.Intn(100)+4)
	dsts := make([][]uint32, len(srcs))
	for i := range srcs {
		for k := rng.Intn(4) + 1; k > 0; k-- {
			srcs[i] = append(srcs[i], uint32(rng.Intn(int(numV))))
			dsts[i] = append(dsts[i], uint32(rng.Intn(int(numV))))
		}
	}
	g, err := hypergraph.BuildDirected(numV, srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPreparePayload pins the single graph encoding across the process
// boundary: over real HTTP workers, each /prepare graph payload is
// byte-identical to hypergraph.AppendCompressed and hypergraph.WriteBinary
// of the coordinator's shard graph, the worker decodes it to that graph,
// and the run matches the in-process one. The global graph is built in
// memory ("raw"), decoded from its own CHG2 encoding ("compressed"), or
// directed.
func TestPreparePayload(t *testing.T) {
	const k = 2
	var rawBody []byte
	for _, c := range []struct {
		name string
		g    *hypergraph.Bipartite
	}{
		{"raw", smallHG(7)},
		{"compressed", codecCopy(t, smallHG(7))},
		{"directed", smallDirectedHG(t, 5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			addrs, body := startTappedWorkers(t, k)
			eo := engine.Options{Kind: engine.ChGraph, Sys: testSys()}
			got, err := RunCtx(context.Background(), c.g, algorithms.NewBFS(0), fastOpts(addrs, shard.PolicyRange, eo))
			if err != nil {
				t.Fatal(err)
			}
			want, err := shard.RunCtx(context.Background(), c.g, algorithms.NewBFS(0), shard.Options{
				Shards: k, Policy: shard.PolicyRange, Engine: eo,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, got, want)

			a, err := shard.Partition(c.g, k, shard.PolicyRange, 0)
			if err != nil {
				t.Fatal(err)
			}
			p, err := shard.Materialize(c.g, a, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, sh := range p.Shards {
				_, dec, err := decodePrepare(body(i))
				if err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
				_, payload, _ := splitHeader(body(i))
				var file bytes.Buffer
				if err := hypergraph.WriteBinary(&file, sh.G); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(payload, hypergraph.AppendCompressed(nil, sh.G)) || !bytes.Equal(payload, file.Bytes()) {
					t.Fatalf("shard %d: /prepare payload differs from the codec and file encodings", i)
				}
				if err := dec.Validate(); err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
				graphsEqual(t, sh.G, dec)
			}
			if c.name == "raw" {
				rawBody = body(0)
			}
		})
	}
	t.Run("truncated", func(t *testing.T) {
		if rawBody == nil {
			t.Skip("raw case did not run")
		}
		hdr, _, err := splitHeader(rawBody)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(rawBody); n++ {
			if _, _, err := decodePrepare(rawBody[:n]); err == nil {
				t.Fatalf("decode of %d/%d bytes (header %d): want error", n, len(rawBody), len(hdr))
			}
		}
	})
}

// codecCopy decodes g from its own CHG2 encoding.
func codecCopy(t *testing.T, g *hypergraph.Bipartite) *hypergraph.Bipartite {
	t.Helper()
	c, err := hypergraph.DecodeCompressed(hypergraph.AppendCompressed(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// encodeSources builds a /step reply from a stated mark count and a source
// sequence, consistent or not, the way appendSources lays it out.
func encodeSources(n uint64, srcs ...uint32) []byte {
	out := binary.AppendUvarint(nil, n)
	var prev uint32
	for _, s := range srcs {
		out = hypergraph.AppendDelta(out, prev, s)
		prev = s
	}
	return out
}

// listMarks expands srcs into the marks an engine compiles for them: each
// source's whole incidence list in adj, in order.
func listMarks(adj *hypergraph.PackedAdj, srcs ...uint32) [][2]uint32 {
	var marks [][2]uint32
	cur := adj.NewCursor()
	for _, s := range srcs {
		for _, d := range cur.List(s) {
			marks = append(marks, [2]uint32{s, d})
		}
	}
	return marks
}

func TestMarksRoundTrip(t *testing.T) {
	g := fuzzShard()
	numV, deg, adj := phaseSources(g, 0)
	srcs := []uint32{2, 0, 4}
	marks := listMarks(adj, srcs...)
	mark := func(i int) (uint32, uint32) { return marks[i][0], marks[i][1] }
	blob := appendSources(nil, len(marks), mark, deg)
	if want := encodeSources(uint64(len(marks)), srcs...); !bytes.Equal(blob, want) {
		t.Fatalf("reply %v, want %v", blob, want)
	}
	got, n, err := decodeSources(blob, nil, numV, deg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, srcs) || n != len(marks) {
		t.Fatalf("sources %v with %d marks, want %v with %d", got, n, srcs, len(marks))
	}
	// Reuse: decoding a smaller set into the same slice must not allocate.
	reused, _, err := decodeSources(encodeSources(2, 1), got, numV, deg)
	if err != nil {
		t.Fatal(err)
	}
	if &reused[0] != &got[0] || len(reused) != 1 {
		t.Fatalf("decode did not reuse backing array (len %d)", len(reused))
	}
	if _, _, err := decodeSources(append(blob[:len(blob):len(blob)], 0x80), nil, numV, deg); err == nil || fatal(err) {
		t.Fatalf("truncated source: got %v, want a retryable decode error", err)
	}
	for _, bad := range []struct {
		name string
		data []byte
		num  uint32
	}{
		{"source on the bound", blob, 4},
		{"count above the lists", encodeSources(uint64(len(marks)+1), srcs...), numV},
		{"count below the lists", encodeSources(uint64(len(marks)-1), srcs...), numV},
		{"count without sources", encodeSources(1), numV},
	} {
		_, _, err := decodeSources(bad.data, nil, bad.num, deg)
		if _, ok := err.(*protocolError); !ok || !fatal(err) {
			t.Fatalf("%s: got %v, want a non-retryable protocolError", bad.name, err)
		}
	}
	// A run of marks that is not one source's whole list breaks the
	// engine invariant the reply relies on.
	defer func() {
		if recover() == nil {
			t.Fatal("encoding a partial incidence list: want a panic")
		}
	}()
	appendSources(nil, len(marks)-1, mark, deg)
}

func TestResolutionsRoundTrip(t *testing.T) {
	in := []algorithms.EdgeResult{0, algorithms.Wrote, algorithms.Activate, algorithms.Wrote | algorithms.Activate, algorithms.Activate}
	r := &resolutions{}
	for _, e := range in {
		r.add(e)
	}
	blob := appendResolutions(nil, r)
	if len(blob) != 4+2 {
		t.Fatalf("%d marks packed into %d bytes, want 4+2", len(in), len(blob))
	}
	got, err := decodeResolutions(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.n != len(in) {
		t.Fatalf("%d resolutions, want %d", got.n, len(in))
	}
	for i, e := range in {
		if got.at(i) != e {
			t.Fatalf("resolution %d is %v, want %v", i, got.at(i), e)
		}
	}
	for name, bad := range map[string][]byte{
		"truncated":                      blob[:5],
		"one too long":                   append(blob[:len(blob):len(blob)], 0),
		"padding set":                    append(blob[:len(blob)-1:len(blob)-1], blob[len(blob)-1]|0x40),
		"byte per mark (wire version 1)": append(binary.LittleEndian.AppendUint32(nil, uint32(len(in))), 0, 1, 2, 3, 2),
	} {
		if _, err := decodeResolutions(bad); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
}

func TestWireOptionsRoundTrip(t *testing.T) {
	eo := engine.Options{Kind: engine.ChGraphHCG, DMax: 9, WMin: 5}.WithDefaults()
	eo.Sys.L1.Ways = 4
	back, err := toWireOptions(eo).engineOptions(4)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != eo.Kind || back.DMax != eo.DMax || back.WMin != eo.WMin || back.Workers != 4 {
		t.Fatalf("options round trip mismatch: %+v vs %+v", back, eo)
	}
	if !reflect.DeepEqual(back.Sys, eo.Sys) {
		t.Fatal("sim config did not round trip")
	}
}

// TestWireOptionsCoverEngineOptions fails when engine.Options gains a field
// that wireOptions does not carry: a model option left off the wire would
// silently break bit-identity between in-process and distributed runs. The
// exemptions are host-side (Prep, Workers, Observer) or travel in
// prepareRequest (ChargePreprocess).
func TestWireOptionsCoverEngineOptions(t *testing.T) {
	exempt := map[string]bool{"Prep": true, "Workers": true, "Observer": true, "ChargePreprocess": true}
	wire := reflect.TypeOf(wireOptions{})
	eo := reflect.TypeOf(engine.Options{})
	for i := 0; i < eo.NumField(); i++ {
		name := eo.Field(i).Name
		if exempt[name] {
			continue
		}
		if _, ok := wire.FieldByName(name); !ok {
			t.Errorf("engine.Options.%s is not carried by wireOptions", name)
		}
	}
	if _, ok := reflect.TypeOf(prepareRequest{}).FieldByName("ChargePreprocess"); !ok {
		t.Error("prepareRequest does not carry ChargePreprocess")
	}
}

// TestSourcesReproduceMarks pins the engine invariant the /step reply
// relies on: for every engine kind, in both phase directions, a Step's
// marks are the whole incidence lists of its sources, in order. Each phase
// of a sparse (BFS) and a dense, replaying (PageRank) run on every shard of
// a two-way split is encoded as the worker encodes it, decoded as the
// coordinator decodes it, and expanded through the shard graph; the result
// must be Step.Mark exactly.
func TestSourcesReproduceMarks(t *testing.T) {
	g := smallHG(7)
	a, err := shard.Partition(g, 2, shard.PolicyRange, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.Materialize(g, a, 1)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []engine.Kind{engine.Hygra, engine.GLA, engine.ChGraph, engine.ChGraphHCG, engine.HATSV, engine.HygraPF}
	algs := []func() algorithms.Algorithm{
		func() algorithms.Algorithm { return algorithms.NewBFS(0) },
		func() algorithms.Algorithm { return algorithms.NewPageRank(3) },
	}
	for _, kind := range kinds {
		for _, sh := range p.Shards {
			for _, mk := range algs {
				alg := mk()
				checkRunSources(t, sh.G, alg, engine.Options{Kind: kind, Sys: testSys(), WMin: 1, Workers: 1})
			}
		}
	}
}

// checkRunSources runs alg on g through the Step API, checking every
// phase's marks against their encoded sources.
func checkRunSources(t *testing.T, g *hypergraph.Bipartite, alg algorithms.Algorithm, opt engine.Options) {
	t.Helper()
	in, err := engine.NewInstance(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Finish()
	s := algorithms.NewState(g)
	frontV := bitset.New(g.NumVertices())
	alg.Init(s, frontV)
	cur := &hypergraph.AdjCursor{}
	phase := func(st *engine.Step, ph int, fn func(*algorithms.State, uint32, uint32) algorithms.EdgeResult, next bitset.Bitmap) {
		n := st.NumMarks()
		numSrc, deg, adj := phaseSources(g, ph)
		srcs, got, err := decodeSources(appendSources(nil, n, st.Mark, deg), nil, numSrc, deg)
		if err != nil || got != n {
			t.Fatalf("%v %s phase %d: decode: %v (%d marks, want %d)", opt.Kind, alg.Name(), ph, err, got, n)
		}
		cur.Bind(adj)
		i := 0
		for _, src := range srcs {
			for _, dst := range cur.List(src) {
				if ms, md := st.Mark(i); ms != src || md != dst {
					t.Fatalf("%v %s phase %d: mark %d is (%d, %d), sources expand to (%d, %d)", opt.Kind, alg.Name(), ph, i, ms, md, src, dst)
				}
				i++
			}
		}
		for i := 0; i < n; i++ {
			src, dst := st.Mark(i)
			r := fn(s, src, dst)
			st.Resolve(i, r, r&algorithms.Activate != 0 && next.TestAndSet(dst))
		}
		st.Commit()
	}
	for it := 0; frontV.Count() > 0 && (alg.MaxIterations() == 0 || it < alg.MaxIterations()); it++ {
		alg.BeforeHyperedgePhase(s)
		frontE := bitset.New(g.NumHyperedges())
		phase(in.BeginHyperedgeComputation(frontV, frontE), 0, alg.HF, frontE)
		alg.BeforeVertexPhase(s)
		nextV := bitset.New(g.NumVertices())
		phase(in.BeginVertexComputation(frontE, nextV), 1, alg.VF, nextV)
		s.Iter++
		in.AdvanceIteration()
		if alg.AfterVertexPhase(s, nextV) {
			break
		}
		frontV = nextV
	}
}
