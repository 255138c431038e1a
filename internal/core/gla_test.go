package core

import (
	"math/rand"
	"testing"

	"chgraph/internal/analysis"
	"chgraph/internal/bitset"
	"chgraph/internal/gen"
	"chgraph/internal/hypergraph"
	"chgraph/internal/oag"
)

// TestChainsBeatIndexOrderOnGeneratedData is the paper's central premise
// (§II-D) as an executable property: on every generated dataset, the chain
// schedule must have strictly better consecutive overlap and a better
// ideal-LRU hit rate than index order for the same chunk.
func TestChainsBeatIndexOrderOnGeneratedData(t *testing.T) {
	if testing.Short() {
		t.Skip("generates datasets")
	}
	for _, name := range gen.HypergraphNames {
		g := gen.MustLoad(name, 0.25)
		n := g.NumHyperedges()
		chunks := hypergraph.Chunks(n, 16)
		o := oag.Build(g, oag.Hyperedges, 3, chunks, 1)
		ch := chunks[0]
		active := bitset.New(n)
		for i := ch.Lo; i < ch.Hi; i++ {
			active.Set(i)
		}
		cs := Generate(o, ch.Lo, ch.Hi, active, DefaultDMax, nil)

		idx := analysis.IndexSchedule(ch.Lo, ch.Hi)
		io := analysis.ScheduleOverlap(g, idx, analysis.Hyperedges)
		co := analysis.ScheduleOverlap(g, cs.Queue, analysis.Hyperedges)
		if co.MeanOverlap <= io.MeanOverlap {
			t.Errorf("%s: chain overlap %.2f <= index %.2f", name, co.MeanOverlap, io.MeanOverlap)
		}
		ip := analysis.ValueReuseProfile(g, idx, analysis.Hyperedges, nil)
		cp := analysis.ValueReuseProfile(g, cs.Queue, analysis.Hyperedges, nil)
		if cp.HitFraction(128) <= ip.HitFraction(128) {
			t.Errorf("%s: chain LRU-128 hit %.2f <= index %.2f", name, cp.HitFraction(128), ip.HitFraction(128))
		}
		// The structure must support real chains. The dense datasets
		// (OK/OG) carry most of their reuse on the vertex side, so their
		// hyperedge-side chains are shorter.
		if avg := float64(len(cs.Queue)) / float64(cs.NumChains()); avg < 1.3 {
			t.Errorf("%s: average chain length %.2f too short", name, avg)
		}
	}
}

// TestChainDeterminism: generation is a pure function of its inputs.
func TestChainDeterminism(t *testing.T) {
	g := gen.MustLoad("FS", 0.1)
	n := g.NumHyperedges()
	o := oag.Build(g, oag.Hyperedges, 3, nil, 1)
	mk := func() ChainSet {
		active := bitset.New(n)
		for i := uint32(0); i < n; i++ {
			active.Set(i)
		}
		return Generate(o, 0, n, active, DefaultDMax, nil)
	}
	a, b := mk(), mk()
	if len(a.Queue) != len(b.Queue) {
		t.Fatal("nondeterministic queue length")
	}
	for i := range a.Queue {
		if a.Queue[i] != b.Queue[i] {
			t.Fatal("nondeterministic schedule")
		}
	}
}

// TestPartialFrontier: chains over a sparse random frontier cover exactly
// the active set, in any chunk split.
func TestPartialFrontier(t *testing.T) {
	g := gen.MustLoad("FS", 0.1)
	n := g.NumHyperedges()
	rng := rand.New(rand.NewSource(5))
	for _, cores := range []int{1, 3, 16} {
		chunks := hypergraph.Chunks(n, cores)
		o := oag.Build(g, oag.Hyperedges, 3, chunks, 1)
		active := bitset.New(n)
		var count int
		for i := uint32(0); i < n; i++ {
			if rng.Intn(10) == 0 {
				active.Set(i)
				count++
			}
		}
		var scheduled int
		for _, ch := range chunks {
			cs := Generate(o, ch.Lo, ch.Hi, active.Clone(), DefaultDMax, nil)
			scheduled += len(cs.Queue)
		}
		if scheduled != count {
			t.Fatalf("cores=%d: scheduled %d of %d active", cores, scheduled, count)
		}
	}
}

// TestVisitorSelectsMatchQueue: across a full generation, Select events
// correspond one-to-one with queue entries, in order.
func TestVisitorSelectsMatchQueue(t *testing.T) {
	g := gen.MustLoad("WEB", 0.1)
	n := g.NumHyperedges()
	o := oag.Build(g, oag.Hyperedges, 3, nil, 1)
	var selected []uint32
	rec := &selectRecorder{out: &selected}
	active := bitset.New(n)
	for i := uint32(0); i < n; i++ {
		active.Set(i)
	}
	cs := Generate(o, 0, n, active, DefaultDMax, rec)
	if len(selected) != len(cs.Queue) {
		t.Fatalf("selects %d != queue %d", len(selected), len(cs.Queue))
	}
	for i := range selected {
		if selected[i] != cs.Queue[i] {
			t.Fatalf("select order diverges at %d", i)
		}
	}
	_ = rand.Int // keep math/rand imported
}

type selectRecorder struct{ out *[]uint32 }

func (r *selectRecorder) RootScan(uint32)     {}
func (r *selectRecorder) Select(n uint32)     { *r.out = append(*r.out, n) }
func (r *selectRecorder) Offsets(uint32)      {}
func (r *selectRecorder) Inspect(_, _ uint32) {}
func (r *selectRecorder) ChainEnd()           {}
