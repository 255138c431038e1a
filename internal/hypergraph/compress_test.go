package hypergraph

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
)

// sameList compares adjacency lists by contents; empty lists may be nil or
// non-nil depending on which storage served them.
func sameList(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// testGraphs returns a spread of shapes: empty, degenerate, hub-heavy,
// unsorted adjacency, more lists than one pack block, and directed.
func testGraphs(t testing.TB) map[string]*Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	hub := make([]uint32, 0, 300)
	for v := uint32(0); v < 300; v++ {
		hub = append(hub, v)
	}
	many := make([][]uint32, 3*packBlock+5)
	for i := range many {
		he := make([]uint32, 0, 6)
		for k := 0; k < 6; k++ {
			he = append(he, rng.Uint32()%500)
		}
		many[i] = he
	}
	directed, err := BuildDirected(6, [][]uint32{{0, 1}, {2}, nil}, [][]uint32{{3}, {4, 5}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Bipartite{
		"empty":      MustBuild(0, nil),
		"emptyEdges": MustBuild(4, [][]uint32{nil, {}, nil}),
		"tiny":       MustBuild(3, [][]uint32{{0, 1}, {1, 2}}),
		"hub":        MustBuild(300, [][]uint32{hub, {7}, hub[10:50]}),
		"unsorted":   MustBuild(50, [][]uint32{{40, 3, 17, 2}, {9, 8, 7}, {49, 0}}),
		"manyLists":  MustBuild(500, many),
		"directed":   directed,
	}
}

func TestPackedRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			c := g.Compress()
			if !c.Compressed() || g.Compressed() {
				t.Fatal("Compressed() flags wrong way around")
			}
			if got := c.Decompress(); !structurallyEqual(g, got) {
				t.Fatal("Compress().Decompress() changed the hypergraph")
			}
			if c.NumBipartiteEdges() != g.NumBipartiteEdges() {
				t.Fatalf("edge count %d != %d", c.NumBipartiteEdges(), g.NumBipartiteEdges())
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("compressed graph fails validation: %v", err)
			}
			// Plain accessors on the compressed form decode the same lists.
			for h := uint32(0); h < g.NumHyperedges(); h++ {
				if !sameList(c.IncidentVertices(h), g.IncidentVertices(h)) {
					t.Fatalf("IncidentVertices(%d) differs", h)
				}
			}
			for v := uint32(0); v < g.NumVertices(); v++ {
				if !sameList(c.IncidentHyperedges(v), g.IncidentHyperedges(v)) {
					t.Fatalf("IncidentHyperedges(%d) differs", v)
				}
			}
		})
	}
}

func TestCursorSequentialAndRandom(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			g.EnsurePacked()
			cur := g.PackedH().NewCursor()
			for h := uint32(0); h < g.NumHyperedges(); h++ {
				if got, want := cur.List(h), g.IncidentVertices(h); !sameList(got, want) {
					t.Fatalf("sequential List(%d) = %v, want %v", h, got, want)
				}
			}
			// Random order exercises the block-seek path.
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < 200 && g.NumHyperedges() > 0; i++ {
				h := rng.Uint32() % g.NumHyperedges()
				if got, want := cur.List(h), g.IncidentVertices(h); !sameList(got, want) {
					t.Fatalf("random List(%d) = %v, want %v", h, got, want)
				}
			}
			// Rebinding resets to list 0 and keeps working.
			cur.Bind(g.PackedV())
			for v := uint32(0); v < g.NumVertices(); v++ {
				if got, want := cur.List(v), g.IncidentHyperedges(v); !sameList(got, want) {
					t.Fatalf("rebound List(%d) = %v, want %v", v, got, want)
				}
			}
		})
	}
}

func TestCompressedCodecByteIdentity(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			blob := AppendCompressed(nil, g)
			dec, err := DecodeCompressed(blob)
			if err != nil {
				t.Fatalf("decoding own encoding: %v", err)
			}
			if !structurallyEqual(g, dec.Decompress()) {
				t.Fatal("codec round trip changed the hypergraph")
			}
			if again := AppendCompressed(nil, dec); !bytes.Equal(blob, again) {
				t.Fatal("re-encoding the decoded graph is not byte-identical")
			}
			// No truncation may panic; each must fail cleanly.
			for n := 0; n < len(blob); n++ {
				if _, err := DecodeCompressed(blob[:n]); err == nil {
					t.Fatalf("truncation to %d bytes decoded successfully", n)
				}
			}
		})
	}
}

func TestSortAdjacencyRepacks(t *testing.T) {
	build := func() *Bipartite { return MustBuild(50, [][]uint32{{40, 3, 17, 2}, {9, 8, 7}, {49, 0}}) }

	// Raw graph: a stale pack cache must not survive the sort.
	g := build()
	g.EnsurePacked()
	g.SortAdjacency()
	g.EnsurePacked()
	want := build()
	want.SortAdjacency()
	for h := uint32(0); h < g.NumHyperedges(); h++ {
		if got := g.PackedH().NewCursor().List(h); !sameList(got, want.IncidentVertices(h)) {
			t.Fatalf("packed list %d = %v after sort, want %v", h, got, want.IncidentVertices(h))
		}
	}

	// Compressed-only graph: sorting repacks in place.
	c := build().Compress()
	c.SortAdjacency()
	if !structurallyEqual(want, c.Decompress()) {
		t.Fatal("SortAdjacency on the compressed form diverged from the raw sort")
	}
}

func TestAdjacencyBytesShrink(t *testing.T) {
	// A sorted local-neighborhood graph is the codec's favorable case: all
	// deltas are small, so packed incidence must beat 4 bytes per entry by a
	// wide margin (the bytes_per_edge bench gate tracks the same ratio).
	hs := make([][]uint32, 2000)
	for i := range hs {
		base := uint32(i)
		hs[i] = []uint32{base, base + 1, base + 2, base + 3}
	}
	g := MustBuild(2100, hs)
	g.SortAdjacency()
	raw := g.AdjacencyBytes()
	comp := g.Compress().AdjacencyBytes()
	if comp >= raw*3/4 {
		t.Fatalf("compressed adjacency %d bytes, want < 75%% of raw %d", comp, raw)
	}
}

func TestDecodeCompressedRejectsCorruption(t *testing.T) {
	g := MustBuild(20, [][]uint32{{0, 5, 19}, {3}, {7, 8}})
	blob := AppendCompressed(nil, g)
	// Flip every single byte; decode must never panic and any acceptance
	// must still produce an internally consistent structure.
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		dec, err := DecodeCompressed(bad)
		if err != nil {
			continue
		}
		if err := dec.Validate(); err != nil {
			t.Fatalf("byte %d flip decoded an invalid graph: %v", i, err)
		}
	}
}

// TestDecodeCompressedRejectsMirrorGap splices one graph's vertex side onto
// another's hyperedge side. Both sides are well-formed and hold the same
// number of entries, so only the mirror check can tell that the vertex side
// does not list the hyperedge side's incidences.
func TestDecodeCompressedRejectsMirrorGap(t *testing.T) {
	// The empty graph's encoding is the header (ending in the flags byte)
	// plus two zero payload lengths.
	hdrLen := len(AppendCompressed(nil, MustBuild(0, nil))) - 8
	// hSideEnd is the byte offset where the vertex side starts (all
	// degrees here fit one varint byte).
	hSideEnd := func(blob []byte, numH int) int {
		lenAt := hdrLen + numH
		return lenAt + 4 + int(binary.LittleEndian.Uint32(blob[lenAt:]))
	}
	a := AppendCompressed(nil, MustBuild(3, [][]uint32{{0, 1}, {0, 2}}))
	b := AppendCompressed(nil, MustBuild(3, [][]uint32{{0, 1}, {1, 2}}))
	splice := append(append([]byte(nil), b[:hSideEnd(b, 2)]...), a[hSideEnd(a, 2):]...)
	if g, err := DecodeCompressed(splice); err == nil {
		t.Fatalf("spliced sides decoded (Validate: %v)", g.Validate())
	}
	// The same splice is fine for a directed graph, whose sides are
	// independent by construction.
	splice[hdrLen-1] = 1
	g, err := DecodeCompressed(splice)
	if err != nil {
		t.Fatalf("directed splice: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendCompressedKeepsRawGraphsRaw: encoding a raw graph packs into a
// temporary buffer; it must not leave a packed copy cached on the graph.
func TestAppendCompressedKeepsRawGraphsRaw(t *testing.T) {
	g := fig1()
	if err := WriteBinary(io.Discard, g); err != nil {
		t.Fatal(err)
	}
	if g.pack.h != nil || g.pack.v != nil {
		t.Fatal("WriteBinary cached a pack on a raw graph")
	}
	// A graph that already caches its pack encodes to the same bytes.
	cached := fig1()
	cached.EnsurePacked()
	if !bytes.Equal(AppendCompressed(nil, g), AppendCompressed(nil, cached)) {
		t.Fatal("cached and temporary packs encode differently")
	}
}

func FuzzCompressedCodec(f *testing.F) {
	f.Add(uint32(4), []byte{0, 0, 1, 0, 0xFF, 0xFF, 2, 0, 3, 0})
	f.Add(uint32(1), []byte{})
	f.Add(uint32(300), []byte{44, 1, 2, 1, 0xFF, 0xFF, 9, 0})
	// Blob probes for the decode branch: one encoding, one blob without
	// the magic (the pre-magic layout, now rejected) and its prefixed copy.
	f.Add(uint32(0), AppendCompressed(nil, MustBuild(3, [][]uint32{{0, 1}, {1, 2}})))
	f.Add(uint32(0), []byte{2, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add(uint32(0), []byte("CHG2\x02\x00\x00\x00\x01\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, numV uint32, data []byte) {
		if numV > maxFuzzVertices || len(data) > 1<<12 {
			t.Skip()
		}
		// Branch 1: a real uncompressed build must survive
		// encode→decode→decompress unchanged, and re-encoding the decoded
		// graph must be byte-identical (the payload is copied verbatim).
		if g, err := Build(numV, decodeHyperedges(data)); err == nil {
			blob := AppendCompressed(nil, g)
			dec, err := DecodeCompressed(blob)
			if err != nil {
				t.Fatalf("decoding own encoding: %v", err)
			}
			if !structurallyEqual(g, dec.Decompress()) {
				t.Fatal("codec round trip changed the hypergraph")
			}
			if !bytes.Equal(blob, AppendCompressed(nil, dec)) {
				t.Fatal("re-encoding not byte-identical")
			}
		}
		// Branch 2: arbitrary bytes must never panic, anything the decoder
		// accepts must be valid and canonicalize to a byte-stable encoding after
		// one pass (degrees re-encoded minimally, payload verbatim).
		dec, err := DecodeCompressed(data)
		if err != nil {
			return
		}
		if err := dec.Validate(); err != nil {
			t.Fatalf("accepted an invalid graph: %v", err)
		}
		enc1 := AppendCompressed(nil, dec)
		dec2, err := DecodeCompressed(enc1)
		if err != nil {
			t.Fatalf("re-decoding accepted graph: %v", err)
		}
		if !structurallyEqual(dec.Decompress(), dec2.Decompress()) {
			t.Fatal("canonicalization changed the hypergraph")
		}
		if enc2 := AppendCompressed(nil, dec2); !bytes.Equal(enc1, enc2) {
			t.Fatal("canonical encoding not a fixed point")
		}
	})
}
