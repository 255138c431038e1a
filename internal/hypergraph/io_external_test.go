package hypergraph_test

import (
	"bytes"
	"strings"
	"testing"

	"chgraph"
	"chgraph/internal/hypergraph"
)

// TestReadHypergraphLegacyCHG1: the public reader no longer sniffs CHG1. A
// CHG1 file is not CHG2, so it falls to the text parser, which rejects its
// binary header.
func TestReadHypergraphLegacyCHG1(t *testing.T) {
	if g, err := chgraph.ReadHypergraph(bytes.NewReader(hypergraph.CHG1Fixture)); err == nil {
		t.Fatalf("CHG1 fixture read as a %d-vertex hypergraph", g.NumVertices())
	}
}

// TestReadHypergraphCHG2Payload: sorted CHG2 bytes come back out of
// ReadHypergraph + WriteBinary byte for byte (the payload is kept, not
// re-packed), and a body with unsorted lists comes back sorted, as
// NewHypergraph would build it.
func TestReadHypergraphCHG2Payload(t *testing.T) {
	lists := [][]uint32{{4, 0, 3}, {2}, {}, {1, 4}}
	sorted, err := chgraph.NewHypergraph(5, lists)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sorted.WriteBinary(&want); err != nil {
		t.Fatal(err)
	}
	unsorted := hypergraph.MustBuild(5, lists)
	var body bytes.Buffer
	if err := hypergraph.WriteBinary(&body, unsorted); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(body.Bytes(), want.Bytes()) {
		t.Fatal("fixture lists encode already sorted")
	}
	for name, in := range map[string][]byte{"sorted": want.Bytes(), "unsorted": body.Bytes()} {
		g, err := chgraph.ReadHypergraph(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		if err := g.WriteBinary(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Fatalf("%s body read back as %x, want %x", name, out.Bytes(), want.Bytes())
		}
	}
	// The same lists as text parse to the same graph.
	g, err := chgraph.ReadHypergraph(strings.NewReader("5 4\n4 0 3\n2\n\n1 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := g.WriteBinary(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatal("text body read back differently from the CHG2 body")
	}
}
