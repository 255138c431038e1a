package hypergraph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file provides on-disk formats for hypergraphs so generated datasets
// can be exported, inspected and reloaded:
//
//   - a line-oriented text format ("hgr"): a header line `V H` followed by
//     one line per hyperedge listing its incident vertex ids — the shape of
//     the classic hMETIS/PaToH hypergraph formats;
//   - the binary format, which is the graph codec of compress.go ("CHG2"
//     magic, counts, both packed incidence sides).

// WriteText writes g in the text format.
func WriteText(w io.Writer, g *Bipartite) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.NumVertices(), g.NumHyperedges()); err != nil {
		return err
	}
	for h := uint32(0); h < g.NumHyperedges(); h++ {
		vs := g.IncidentVertices(h)
		for i, v := range vs {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatUint(uint64(v), 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format.
func ReadText(r io.Reader) (*Bipartite, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("hypergraph: empty input")
	}
	var numV, numH uint32
	if _, err := fmt.Sscanf(strings.TrimSpace(sc.Text()), "%d %d", &numV, &numH); err != nil {
		return nil, fmt.Errorf("hypergraph: bad header %q: %w", sc.Text(), err)
	}
	hs := make([][]uint32, 0, numH)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			if line == "" && uint32(len(hs)) < numH {
				hs = append(hs, nil) // empty hyperedge
			}
			continue
		}
		fields := strings.Fields(line)
		he := make([]uint32, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("hypergraph: bad vertex id %q: %w", f, err)
			}
			he = append(he, uint32(v))
		}
		hs = append(hs, he)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if uint32(len(hs)) != numH {
		return nil, fmt.Errorf("hypergraph: header says %d hyperedges, found %d", numH, len(hs))
	}
	return Build(numV, hs)
}

// WriteBinary writes g in the binary format: the graph codec's encoding
// (AppendCompressed).
func WriteBinary(w io.Writer, g *Bipartite) error {
	_, err := w.Write(AppendCompressed(nil, g))
	return err
}

// ReadBinary parses the binary format. The graph holds the decoded payload
// as it is, lists in encoded order; anything else, the retired CHG1 layout
// included, is rejected.
func ReadBinary(r io.Reader) (*Bipartite, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeCompressed(data)
}
