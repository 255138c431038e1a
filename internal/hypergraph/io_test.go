package hypergraph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func roundTripEqual(a, b *Bipartite) bool {
	if a.NumVertices() != b.NumVertices() || a.NumHyperedges() != b.NumHyperedges() ||
		a.NumBipartiteEdges() != b.NumBipartiteEdges() {
		return false
	}
	for h := uint32(0); h < a.NumHyperedges(); h++ {
		av, bv := a.IncidentVertices(h), b.IncidentVertices(h)
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	g := fig1()
	var buf bytes.Buffer
	if err := WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !roundTripEqual(g, g2) {
		t.Fatal("text round trip changed the hypergraph")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomHypergraph(seed, 50, 40)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return roundTripEqual(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomHypergraph(seed, 40, 30)
		var buf bytes.Buffer
		if err := WriteText(&buf, g); err != nil {
			return false
		}
		g2, err := ReadText(&buf)
		if err != nil {
			return false
		}
		return roundTripEqual(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"",               // empty
		"abc def\n",      // bad header
		"3 2\n0 1\n",     // fewer hyperedges than declared
		"3 1\n0 99\n",    // vertex out of range
		"2 1\nnotanum\n", // bad id
	}
	for i, c := range cases {
		if _, err := ReadText(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReadTextComments(t *testing.T) {
	g, err := ReadText(strings.NewReader("3 2\n# a comment\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumHyperedges() != 2 {
		t.Fatalf("hyperedges = %d", g.NumHyperedges())
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Corrupt offsets.
	g := fig1()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-4] = 0xff // clobber part of adjacency/offsets
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Skip("corruption landed in a benign byte")
	}
}

// CHG1Fixture is a file in the retired CHG1 format, as its writer
// produced it: 5 vertices and 4 hyperedges, one of them empty, with
// unsorted pins. Readers must reject it cleanly; it is exported for the
// chgraph.ReadHypergraph check in io_external_test.go.
var CHG1Fixture = []byte("CHG1" +
	"\x05\x00\x00\x00\x04\x00\x00\x00\x06\x00\x00\x00" + // numV, numH, numAdj
	"\x00\x00\x00\x00\x03\x00\x00\x00\x04\x00\x00\x00\x04\x00\x00\x00\x06\x00\x00\x00" + // hOff
	"\x00\x00\x00\x00\x03\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x04\x00\x00\x00\x01\x00\x00\x00") // hAdj

// TestReadBinaryLegacyCHG1: the CHG1 reader is gone, so a CHG1 file (and
// every truncation of it) is an error naming the bad magic, not a panic or
// a misparse.
func TestReadBinaryLegacyCHG1(t *testing.T) {
	_, err := ReadBinary(bytes.NewReader(CHG1Fixture))
	if err == nil || !strings.Contains(err.Error(), `bad magic "CHG1"`) {
		t.Fatalf("CHG1 fixture: err = %v, want a bad-magic rejection", err)
	}
	for n := 0; n < len(CHG1Fixture); n++ {
		if _, err := ReadBinary(bytes.NewReader(CHG1Fixture[:n])); err == nil {
			t.Fatalf("CHG1 truncated to %d bytes decoded", n)
		}
	}
}
