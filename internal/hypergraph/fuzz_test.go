package hypergraph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// Fuzz targets for the constructors and the on-disk formats. Shared
// invariants: no panic on any input; every successfully built Bipartite
// passes Validate (CSR offsets monotone, adjacency in range, bipartite
// mirror symmetric); text and binary encodings round-trip losslessly.
//
// Run them with `make fuzz` or e.g.
//
//	go test ./internal/hypergraph/ -fuzz FuzzBuild -fuzztime 30s

// maxFuzzVertices bounds numV so a fuzzed input cannot demand gigabyte
// offset arrays; ids in the data may still exceed it to hit error paths.
const maxFuzzVertices = 1 << 14

// decodeHyperedges interprets data as little-endian uint16 vertex ids with
// 0xFFFF acting as a hyperedge separator.
func decodeHyperedges(data []byte) [][]uint32 {
	hs := [][]uint32{nil}
	for i := 0; i+1 < len(data); i += 2 {
		v := binary.LittleEndian.Uint16(data[i:])
		if v == 0xFFFF {
			hs = append(hs, nil)
			continue
		}
		hs[len(hs)-1] = append(hs[len(hs)-1], uint32(v))
	}
	return hs
}

// structurallyEqual compares the full CSR state of two hypergraphs: counts,
// direction, offsets and every decoded list.
func structurallyEqual(a, b *Bipartite) bool {
	return a.numV == b.numV && a.numH == b.numH && a.directed == b.directed &&
		reflect.DeepEqual(a.hOff, b.hOff) && reflect.DeepEqual(a.h.Unpack().adj, b.h.Unpack().adj) &&
		reflect.DeepEqual(a.vOff, b.vOff) && reflect.DeepEqual(a.v.Unpack().adj, b.v.Unpack().adj)
}

func checkValid(t *testing.T, g *Bipartite) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("built hypergraph fails validation: %v", err)
	}
}

func FuzzBuild(f *testing.F) {
	f.Add(uint32(4), []byte{0, 0, 1, 0, 0xFF, 0xFF, 2, 0, 3, 0})
	f.Add(uint32(1), []byte{})
	f.Add(uint32(300), []byte{44, 1, 44, 1, 0xFF, 0xFF})     // duplicate vertex
	f.Add(uint32(2), []byte{9, 0})                           // out of range
	f.Add(uint32(100), []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 0}) // empty hyperedges
	f.Fuzz(func(t *testing.T, numV uint32, data []byte) {
		if numV > maxFuzzVertices || len(data) > 1<<12 {
			t.Skip()
		}
		hs := decodeHyperedges(data)
		g, err := Build(numV, hs)
		if err != nil {
			return
		}
		checkValid(t, g)
		if g.NumVertices() != numV || g.NumHyperedges() != uint32(len(hs)) {
			t.Fatalf("built %d/%d from %d/%d", g.NumVertices(), g.NumHyperedges(), numV, len(hs))
		}
		// Degree sums on both sides must equal the bipartite edge count.
		var hsum, vsum uint64
		for h := uint32(0); h < g.NumHyperedges(); h++ {
			hsum += uint64(g.HyperedgeDegree(h))
		}
		for v := uint32(0); v < g.NumVertices(); v++ {
			vsum += uint64(g.VertexDegree(v))
		}
		if hsum != g.NumBipartiteEdges() || vsum != g.NumBipartiteEdges() {
			t.Fatalf("degree sums %d/%d != %d bipartite edges", hsum, vsum, g.NumBipartiteEdges())
		}
		// Text and binary encodings must round-trip the exact structure.
		var txt bytes.Buffer
		if err := WriteText(&txt, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadText(&txt)
		if err != nil {
			t.Fatalf("reparsing own text output: %v", err)
		}
		if !structurallyEqual(g, g2) {
			t.Fatal("text round trip changed the hypergraph")
		}
		var bin bytes.Buffer
		if err := WriteBinary(&bin, g); err != nil {
			t.Fatal(err)
		}
		g3, err := ReadBinary(&bin)
		if err != nil {
			t.Fatalf("reparsing own binary output: %v", err)
		}
		if !structurallyEqual(g, g3) {
			t.Fatal("binary round trip changed the hypergraph")
		}
	})
}

func FuzzBuildDirected(f *testing.F) {
	f.Add(uint32(4), []byte{0, 0, 0xFF, 0xFF, 1, 0}, []byte{2, 0, 0xFF, 0xFF, 3, 0})
	f.Add(uint32(8), []byte{1, 0, 1, 0}, []byte{1, 0})
	f.Add(uint32(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, numV uint32, srcData, dstData []byte) {
		if numV > maxFuzzVertices || len(srcData)+len(dstData) > 1<<12 {
			t.Skip()
		}
		srcs, dsts := decodeHyperedges(srcData), decodeHyperedges(dstData)
		g, err := BuildDirected(numV, srcs, dsts)
		if len(srcs) != len(dsts) {
			// Only reachable when decode lengths differ; must be rejected.
			if err == nil {
				t.Fatal("accepted mismatched source/destination set counts")
			}
			return
		}
		if err != nil {
			return
		}
		checkValid(t, g)
		if !g.Directed() {
			t.Fatal("BuildDirected produced an undirected hypergraph")
		}
		// Vertex side must index exactly the deduped source sets.
		var wantV uint64
		for _, s := range srcs {
			seen := map[uint32]struct{}{}
			for _, v := range s {
				seen[v] = struct{}{}
			}
			wantV += uint64(len(seen))
		}
		var gotV uint64
		for v := uint32(0); v < g.NumVertices(); v++ {
			gotV += uint64(len(g.SourceHyperedges(v)))
		}
		if gotV != wantV {
			t.Fatalf("source incidence count %d, want %d", gotV, wantV)
		}
	})
}

func FuzzFromGraphEdges(f *testing.F) {
	f.Add(uint32(4), []byte{0, 0, 1, 0, 2, 0, 3, 0})
	f.Add(uint32(4), []byte{1, 0, 1, 0}) // self loop
	f.Add(uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, numV uint32, data []byte) {
		if numV > maxFuzzVertices || len(data) > 1<<12 {
			t.Skip()
		}
		var edges [][2]uint32
		for i := 0; i+3 < len(data); i += 4 {
			edges = append(edges, [2]uint32{
				uint32(binary.LittleEndian.Uint16(data[i:])),
				uint32(binary.LittleEndian.Uint16(data[i+2:])),
			})
		}
		g, err := FromGraphEdges(numV, edges)
		if err != nil {
			return
		}
		checkValid(t, g)
		selfLoops := 0
		for _, e := range edges {
			if e[0] == e[1] {
				selfLoops++
			}
		}
		if int(g.NumHyperedges()) != len(edges)-selfLoops {
			t.Fatalf("%d hyperedges from %d edges (%d self loops)", g.NumHyperedges(), len(edges), selfLoops)
		}
		// The graph embedding makes every hyperedge a 2-vertex set.
		for h := uint32(0); h < g.NumHyperedges(); h++ {
			if d := g.HyperedgeDegree(h); d != 2 {
				t.Fatalf("hyperedge %d has degree %d, want 2", h, d)
			}
		}
	})
}

func FuzzReadText(f *testing.F) {
	f.Add([]byte("2 1\n0 1\n"))
	f.Add([]byte("3 2\n0 1 2\n\n"))
	f.Add([]byte("1 0\n"))
	f.Add([]byte("4 2\n# comment\n0 1\n2 3\n"))
	f.Add([]byte("bogus"))
	f.Add([]byte("99999999999 1\n0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip()
		}
		// A huge-but-parseable header makes Build allocate numV-sized
		// arrays; keep the harness within fuzzing memory limits.
		var hdrV, hdrH uint64
		if n, _ := fmt.Sscanf(string(data), "%d %d", &hdrV, &hdrH); n == 2 && (hdrV > 1<<18 || hdrH > 1<<18) {
			t.Skip()
		}
		g, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkValid(t, g)
		var out bytes.Buffer
		if err := WriteText(&out, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadText(&out)
		if err != nil {
			t.Fatalf("reparsing canonical text: %v", err)
		}
		if !structurallyEqual(g, g2) {
			t.Fatal("text canonicalization not a fixed point")
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBinary(&seed, MustBuild(3, [][]uint32{{0, 1}, {1, 2}})); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("CHG1"))
	f.Add([]byte("CHG1\x02\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00"))
	f.Add([]byte("XXXX"))
	f.Add(CHG1Fixture) // the retired format: must be rejected
	f.Add([]byte("CHG2"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip()
		}
		// Same memory guard as FuzzReadText: the header's numV/numH drive
		// allocation sizes.
		if len(data) >= 12 {
			numV := binary.LittleEndian.Uint32(data[4:8])
			numH := binary.LittleEndian.Uint32(data[8:12])
			if numV > 1<<18 || numH > 1<<18 {
				t.Skip()
			}
		}
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, codecMagic) {
			t.Fatalf("input with magic %q accepted", data[:min(4, len(data))])
		}
		checkValid(t, g)
		var out bytes.Buffer
		if err := WriteBinary(&out, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("reparsing own binary: %v", err)
		}
		if !structurallyEqual(g, g2) {
			t.Fatal("binary round trip not a fixed point")
		}
	})
}
