package hypergraph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
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
	// Mixed lengths and multi-byte deltas, so a seek crosses words holding
	// any number of terminators.
	mixed := make([][]uint32, 3*packBlock+7)
	for i := range mixed {
		for k := rng.Intn(41); k > 0; k-- {
			mixed[i] = append(mixed[i], rng.Uint32()%2000)
		}
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
		"mixed":      MustBuild(2000, mixed),
		"directed":   directed,
	}
}

// TestPackedRoundTrip: the decode paths (Unpack, cursors, the cold
// accessors) agree, and packing the unpacked lists again reproduces the held
// payload, block table and sortedness bit for bit.
func TestPackedRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			if err := g.Validate(); err != nil {
				t.Fatalf("graph fails validation: %v", err)
			}
			for _, p := range []*PackedAdj{g.PackedH(), g.PackedV()} {
				u := p.Unpack()
				again := packAdjacency(p.off, u.adj)
				if !bytes.Equal(again.data, p.data) || !reflect.DeepEqual(again.blk, p.blk) || again.sorted != p.sorted {
					t.Fatal("re-packing the unpacked lists changed the encoding")
				}
			}
			hs, vs := g.PackedH().Unpack(), g.PackedV().Unpack()
			for h := uint32(0); h < g.NumHyperedges(); h++ {
				if !sameList(hs.List(h), g.IncidentVertices(h)) {
					t.Fatalf("Unpack list %d differs from IncidentVertices", h)
				}
			}
			for v := uint32(0); v < g.NumVertices(); v++ {
				if !sameList(vs.List(v), g.IncidentHyperedges(v)) {
					t.Fatalf("Unpack list %d differs from IncidentHyperedges", v)
				}
			}
			if got := uint64(len(hs.adj)); got != g.NumBipartiteEdges() {
				t.Fatalf("unpacked %d entries, want %d", got, g.NumBipartiteEdges())
			}
		})
	}
}

// TestIncidentVerticesReturnsCopy: the cold accessors hand out fresh
// slices, so a caller writing to one cannot corrupt the graph.
func TestIncidentVerticesReturnsCopy(t *testing.T) {
	g := fig1()
	want := g.IncidentVertices(0)
	got := g.IncidentVertices(0)
	got[0] = 99
	if !sameList(g.IncidentVertices(0), want) {
		t.Fatal("writing to IncidentVertices' result changed the graph")
	}
	hs := g.IncidentHyperedges(1)
	hs[0] = 99
	if g.IncidentHyperedges(1)[0] == 99 {
		t.Fatal("writing to IncidentHyperedges' result changed the graph")
	}
	// Unpacked lists are capped, so appending cannot spill into the next.
	u := g.PackedH().Unpack()
	_ = append(u.List(0), 99)
	if !sameList(u.List(1), g.IncidentVertices(1)) {
		t.Fatal("append to an unpacked list overwrote the next list")
	}
}

func TestCursorSequentialAndRandom(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			// Unpack decodes front to back and never seeks: the reference.
			hs, vs := g.PackedH().Unpack(), g.PackedV().Unpack()
			cur := g.PackedH().NewCursor()
			for h := uint32(0); h < g.NumHyperedges(); h++ {
				if got, want := cur.List(h), hs.List(h); !sameList(got, want) {
					t.Fatalf("sequential List(%d) = %v, want %v", h, got, want)
				}
			}
			// Random order exercises the block seek and the forward skip
			// within a block, and so does the cold accessor.
			rng := rand.New(rand.NewSource(2))
			for i := 0; i < 400 && g.NumHyperedges() > 0; i++ {
				h := rng.Uint32() % g.NumHyperedges()
				if got, want := cur.List(h), hs.List(h); !sameList(got, want) {
					t.Fatalf("random List(%d) = %v, want %v", h, got, want)
				}
				if got := g.IncidentVertices(h); !sameList(got, hs.List(h)) {
					t.Fatalf("IncidentVertices(%d) = %v, want %v", h, got, hs.List(h))
				}
			}
			// Rebinding resets to list 0 and keeps working.
			cur.Bind(g.PackedV())
			for v := uint32(0); v < g.NumVertices(); v++ {
				if got, want := cur.List(v), vs.List(v); !sameList(got, want) {
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
			if !structurallyEqual(g, dec) {
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

// TestSortAdjacencyRepacks: sorting re-packs an unsorted side to the
// sorted lists, and leaves a side already known sorted — built sorted or
// decoded from sorted bytes — as it is, with no re-pack.
func TestSortAdjacencyRepacks(t *testing.T) {
	lists := [][]uint32{{40, 3, 17, 2}, {9, 8, 7}, {49, 0}}
	g := MustBuild(50, lists)
	if g.PackedH().sorted || !g.PackedV().sorted {
		t.Fatal("sortedness not recorded at pack time")
	}
	v := g.PackedV()
	g.SortAdjacency()
	if g.PackedV() != v {
		t.Fatal("sorted vertex side was re-packed")
	}
	for h, l := range lists {
		want := append([]uint32(nil), l...)
		slices.Sort(want)
		if got := g.IncidentVertices(uint32(h)); !sameList(got, want) {
			t.Fatalf("list %d = %v after sort, want %v", h, got, want)
		}
	}
	if !g.PackedH().sorted {
		t.Fatal("re-packed side not marked sorted")
	}

	// Decoded sides carry the validation walk's verdict.
	for name, src := range map[string]*Bipartite{"sorted": g, "unsorted": MustBuild(50, lists)} {
		dec, err := DecodeCompressed(AppendCompressed(nil, src))
		if err != nil {
			t.Fatal(err)
		}
		h := dec.PackedH()
		dec.SortAdjacency()
		if (dec.PackedH() == h) != (name == "sorted") {
			t.Fatalf("%s: re-packed = %v", name, dec.PackedH() != h)
		}
		if !structurallyEqual(dec, g) {
			t.Fatalf("%s: decoded and sorted graph differs", name)
		}
	}
}

func TestAdjacencyBytesShrink(t *testing.T) {
	// A sorted local-neighborhood graph is the codec's favorable case: all
	// deltas are small, so packed incidence must beat the plain CSR's 4
	// bytes per entry by a wide margin (the bytes_per_edge bench gate
	// tracks the same ratio).
	hs := make([][]uint32, 2000)
	for i := range hs {
		base := uint32(i)
		hs[i] = []uint32{base, base + 1, base + 2, base + 3}
	}
	g := MustBuild(2100, hs)
	g.SortAdjacency()
	raw := g.StorageBytes() - 8*uint64(g.NumVertices()+g.NumHyperedges())
	if packed := g.AdjacencyBytes(); packed >= raw*3/4 {
		t.Fatalf("packed adjacency %d bytes, want < 75%% of plain CSR %d", packed, raw)
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
		// encode→decode unchanged, and re-encoding the decoded
		// graph must be byte-identical (the payload is copied verbatim).
		if g, err := Build(numV, decodeHyperedges(data)); err == nil {
			blob := AppendCompressed(nil, g)
			dec, err := DecodeCompressed(blob)
			if err != nil {
				t.Fatalf("decoding own encoding: %v", err)
			}
			if !structurallyEqual(g, dec) {
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
		if !structurallyEqual(dec, dec2) {
			t.Fatal("canonicalization changed the hypergraph")
		}
		if enc2 := AppendCompressed(nil, dec2); !bytes.Equal(enc1, enc2) {
			t.Fatal("canonical encoding not a fixed point")
		}
	})
}

// BenchmarkCursorRandomList measures out-of-order List calls, the
// block-seek path chain-ordered compiles take, on lists of mixed length.
func BenchmarkCursorRandomList(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	hs := make([][]uint32, 4096)
	for i := range hs {
		deg := 2 + rng.Intn(8)
		if i%16 == 0 {
			deg = 40 + rng.Intn(80)
		}
		for k := 0; k < deg; k++ {
			hs[i] = append(hs[i], rng.Uint32()%20000)
		}
	}
	g := MustBuild(20000, hs)
	g.SortAdjacency()
	order := rng.Perm(len(hs))
	cur := g.PackedH().NewCursor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range order {
			benchList = cur.List(uint32(h))
		}
	}
}

// benchList keeps BenchmarkCursorRandomList's decodes observable.
var benchList []uint32

// BenchmarkCursorSequentialList measures in-order List calls, the resume
// path index-ordered compiles take.
func BenchmarkCursorSequentialList(b *testing.B) {
	hs := make([][]uint32, 4096)
	for i := range hs {
		for k := uint32(0); k < 12; k++ {
			hs[i] = append(hs[i], uint32(i)+k*3)
		}
	}
	g := MustBuild(4096+40, hs)
	cur := g.PackedH().NewCursor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur.Bind(g.PackedH())
		for h := range hs {
			benchList = cur.List(uint32(h))
		}
	}
}
