// Command chgraph-trace characterizes the locality of the index-ordered and
// chain-driven schedules on a dataset — the paper's §II-B/§II-D motivation
// study in numeric form (reuse-distance profiles, consecutive-overlap
// statistics, ideal-LRU hit rates).
//
// Example:
//
//	chgraph-trace -dataset WEB
//	chgraph-trace -dataset WEB -side vertices -chunk 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"chgraph/internal/analysis"
	"chgraph/internal/bitset"
	"chgraph/internal/core"
	"chgraph/internal/gen"
	"chgraph/internal/hypergraph"
	"chgraph/internal/oag"
)

func main() {
	var (
		dataset = flag.String("dataset", "WEB", "dataset name")
		scale   = flag.Float64("scale", 1, "scale multiplier")
		side    = flag.String("side", "hyperedges", "schedule side: hyperedges | vertices")
		chunk   = flag.Int("chunk", 0, "which of the 16 chunks to analyze")
		wmin    = flag.Uint("wmin", 3, "OAG overlap threshold")
		dmax    = flag.Int("dmax", 16, "chain depth bound")
	)
	flag.Parse()

	g, err := gen.Load(*dataset, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var oside oag.Side
	var aside analysis.Side
	var n uint32
	switch strings.ToLower(*side) {
	case "hyperedges":
		oside, aside, n = oag.Hyperedges, analysis.Hyperedges, g.NumHyperedges()
	case "vertices":
		oside, aside, n = oag.Vertices, analysis.Vertices, g.NumVertices()
	default:
		fmt.Fprintln(os.Stderr, "side must be hyperedges or vertices")
		os.Exit(2)
	}

	chunks := hypergraph.Chunks(n, 16)
	if *chunk < 0 || *chunk >= len(chunks) {
		fmt.Fprintln(os.Stderr, "chunk out of range")
		os.Exit(2)
	}
	ch := chunks[*chunk]
	o := oag.Build(g, oside, uint32(*wmin), chunks, 1)

	active := bitset.New(n)
	for i := ch.Lo; i < ch.Hi; i++ {
		active.Set(i)
	}
	cs := core.Generate(o, ch.Lo, ch.Hi, active, *dmax, nil)

	fmt.Printf("%s (%s side), chunk %d: %d elements, %d chains (avg length %.2f)\n",
		*dataset, *side, *chunk, ch.Len(), cs.NumChains(),
		float64(len(cs.Queue))/float64(cs.NumChains()))
	fmt.Printf("value-array footprint: %d cache lines\n\n",
		analysis.FootprintLines(g, cs.Queue, aside))
	fmt.Print(analysis.CompareSchedules(g, analysis.IndexSchedule(ch.Lo, ch.Hi), cs.Queue, aside))
}
