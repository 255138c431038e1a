package dist

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"chgraph/internal/algorithms"
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

func TestMarksRoundTrip(t *testing.T) {
	pairs := [][2]uint32{{0, 3}, {7, 7}, {1 << 20, 0}}
	blob := appendMarks(nil, len(pairs), func(i int) (uint32, uint32) { return pairs[i][0], pairs[i][1] })
	got, err := decodeMarks(blob, nil, 1<<20+1, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0, 3, 7, 7, 1 << 20, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("marks %v, want %v", got, want)
	}
	// Reuse: decoding a smaller set into the same slice must not allocate.
	reused, err := decodeMarks(appendMarks(nil, 1, func(int) (uint32, uint32) { return 9, 9 }), got, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if &reused[0] != &got[0] || len(reused) != 2 {
		t.Fatalf("decode did not reuse backing array (len %d)", len(reused))
	}
	if _, err := decodeMarks(blob[:len(blob)-1], nil, 1<<20+1, 8); err == nil {
		t.Fatal("truncated marks: want error")
	}
	for _, lim := range [][2]uint32{{1 << 20, 8}, {1<<20 + 1, 7}} {
		_, err := decodeMarks(blob, nil, lim[0], lim[1])
		if _, ok := err.(*markRangeError); !ok || !fatal(err) {
			t.Fatalf("limits %v: got %v, want a non-retryable markRangeError", lim, err)
		}
	}
}

func TestResolutionsRoundTrip(t *testing.T) {
	res := []byte{0, 1, 2, 255}
	got, err := decodeResolutions(appendResolutions(nil, res))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, res) {
		t.Fatalf("resolutions %v, want %v", got, res)
	}
	if _, err := decodeResolutions(appendResolutions(nil, res)[:5]); err == nil {
		t.Fatal("truncated resolutions: want error")
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
