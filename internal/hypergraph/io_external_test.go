package hypergraph_test

import (
	"bytes"
	"testing"

	"chgraph"
	"chgraph/internal/hypergraph"
)

// TestReadHypergraphLegacyCHG1: the public reader still sniffs and loads a
// legacy CHG1 file, to the same hypergraph as its CHG2 rewrite.
func TestReadHypergraphLegacyCHG1(t *testing.T) {
	g, err := chgraph.ReadHypergraph(bytes.NewReader(hypergraph.CHG1Fixture))
	if err != nil {
		t.Fatal(err)
	}
	var chg2 bytes.Buffer
	if err := g.WriteBinary(&chg2); err != nil {
		t.Fatal(err)
	}
	g2, err := chgraph.ReadHypergraph(&chg2)
	if err != nil {
		t.Fatal(err)
	}
	// TestReadBinaryLegacyCHG1 pins what ReadBinary decodes the fixture to.
	want, err := hypergraph.ReadBinary(bytes.NewReader(hypergraph.CHG1Fixture))
	if err != nil {
		t.Fatal(err)
	}
	want.SortAdjacency()
	var wantText bytes.Buffer
	if err := hypergraph.WriteText(&wantText, want); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*chgraph.Hypergraph{"CHG1": g, "CHG2 rewrite": g2} {
		var text bytes.Buffer
		if err := h.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if text.String() != wantText.String() {
			t.Fatalf("%s read as\n%s\nwant\n%s", name, text.String(), wantText.String())
		}
	}
}
