package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"

	"chgraph"
	"chgraph/internal/algorithms"
	"chgraph/internal/gen"
	"chgraph/internal/hypergraph"
)

// subSeed derives an independent generator seed for one input from the
// workload seed, so adding an input never shifts the others.
func subSeed(seed int64, parts ...any) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprint(h, "/", p)
	}
	return int64(h.Sum64() >> 1)
}

// input is one generated hypergraph in the forms the benchmark needs: the
// program's handle (decoded from the encoded bytes, as a client would load
// it), an identical internal copy for the oracles and the traced step loops,
// and both on-disk encodings.
type input struct {
	name       string
	g          *chgraph.Hypergraph
	b          *hypergraph.Bipartite
	chg1, text []byte
}

// makeInput generates recipe at scale with a seed derived from seed and
// ingests it through chgraph.ReadHypergraph (the CHG1 path), recording the
// gen and decode spans when traced.
func makeInput(tr *tracer, op int64, recipe string, scale float64, seed int64) (*input, error) {
	cfg, err := gen.Recipe(recipe, scale)
	if err != nil {
		return nil, err
	}
	cfg.Seed = subSeed(seed, recipe, scale)
	sp := tr.begin("gen.generate", noSpan, op)
	raw, err := gen.Generate(cfg)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", recipe, err)
	}
	in := &input{name: fmt.Sprintf("%s@%g", recipe, scale)}
	var bin, txt bytes.Buffer
	if err := hypergraph.WriteBinary(&bin, raw); err != nil {
		return nil, err
	}
	if err := hypergraph.WriteText(&txt, raw); err != nil {
		return nil, err
	}
	in.chg1, in.text = bin.Bytes(), txt.Bytes()
	sp = tr.begin("hypergraph.decode_chg1", noSpan, op)
	in.g, err = chgraph.ReadHypergraph(bytes.NewReader(in.chg1))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("ingest %s: %w", in.name, err)
	}
	// The internal copy is decoded from the same bytes and sorted the way
	// ReadHypergraph sorts, so oracles see exactly the program's graph.
	if in.b, err = hypergraph.ReadBinary(bytes.NewReader(in.chg1)); err != nil {
		return nil, err
	}
	in.b.SortAdjacency()
	return in, nil
}

// decodeText ingests the text encoding, traced as the text decode layer.
func (in *input) decodeText(tr *tracer, op int64) (*chgraph.Hypergraph, error) {
	sp := tr.begin("hypergraph.decode_text", noSpan, op)
	defer tr.end(sp)
	return chgraph.ReadHypergraph(bytes.NewReader(in.text))
}

// largestComponentSource picks a seeded vertex in the largest connected
// component, so a BFS from it reaches most of the graph.
func largestComponentSource(b *hypergraph.Bipartite, rng *rand.Rand) uint32 {
	labels := algorithms.OracleCC(b)
	size := map[float64]int{}
	for v, l := range labels {
		if b.VertexDegree(uint32(v)) > 0 {
			size[l]++
		}
	}
	var best float64
	bestN := -1
	for l, n := range size {
		if n > bestN || (n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	var members []uint32
	for v, l := range labels {
		if l == best && b.VertexDegree(uint32(v)) > 0 {
			members = append(members, uint32(v))
		}
	}
	if len(members) == 0 {
		return 0
	}
	return members[rng.Intn(len(members))]
}

// checkOracle compares a run's vertex values against the sequential
// reference, with the PageRank tolerance the engine tests use.
func checkOracle(b *hypergraph.Bipartite, algo string, src uint32, iters int, got []float64) error {
	var want []float64
	tol := 0.0
	switch algo {
	case "BFS":
		want = algorithms.OracleBFS(b, src)
	case "PR":
		want, tol = algorithms.OraclePR(b, 0.85, iters), 1e-9
	case "CC":
		want = algorithms.OracleCC(b)
	default:
		return fmt.Errorf("no oracle for %s", algo)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, oracle has %d", algo, len(got), len(want))
	}
	for v := range want {
		w, g := want[v], got[v]
		if w == g {
			continue
		}
		if tol == 0 || w == algorithms.Infinity || g-w > tol*(1+w) || w-g > tol*(1+w) {
			return fmt.Errorf("%s: value[%d] = %v, oracle %v", algo, v, g, w)
		}
	}
	return nil
}
