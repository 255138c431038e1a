package dist

import (
	"encoding/json"
	"testing"

	"chgraph/internal/hypergraph"
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
