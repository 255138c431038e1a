package chgraph

// One testing.B benchmark per table/figure of the paper's evaluation (§VI).
// Each benchmark regenerates its result through the shared experiment
// session; b.N iterations re-run the (cached-dataset) simulation, so ns/op
// reports the cost of reproducing the figure. The default configuration
// uses reduced scale so `go test -bench=.` completes in minutes; run
// cmd/chgraph-bench for full-scale reproduction output.

import (
	"sync"
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/bench"
	"chgraph/internal/bitset"
	"chgraph/internal/core"
	"chgraph/internal/engine"
	"chgraph/internal/gen"
	"chgraph/internal/oag"
)

var (
	benchOnce    sync.Once
	benchSession *bench.Session
)

// benchSessionFor returns a shared reduced-scale session so figure
// benchmarks don't regenerate datasets per run.
func sharedSession() *bench.Session {
	benchOnce.Do(func() {
		benchSession = bench.NewSession(bench.Config{
			Scale:    0.25,
			Datasets: []string{"FS", "WEB"},
			Algos:    []string{"BFS", "PR", "CC"},
		})
	})
	return benchSession
}

func benchFigure(b *testing.B, id string) {
	s := sharedSession()
	r, ok := bench.RunnerByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := r.Run(s)
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkTable1SystemConfig(b *testing.B)    { benchFigure(b, "table1") }
func BenchmarkTable2Datasets(b *testing.B)        { benchFigure(b, "table2") }
func BenchmarkFig2MemAccessesGLA(b *testing.B)    { benchFigure(b, "fig2") }
func BenchmarkFig3RuntimeGLAChGraph(b *testing.B) { benchFigure(b, "fig3") }
func BenchmarkFig5MemStallFraction(b *testing.B)  { benchFigure(b, "fig5") }
func BenchmarkFig7VersusHATSV(b *testing.B)       { benchFigure(b, "fig7") }
func BenchmarkFig8SharableRatios(b *testing.B)    { benchFigure(b, "fig8") }
func BenchmarkFig14Performance(b *testing.B)      { benchFigure(b, "fig14") }
func BenchmarkFig15AccessBreakdown(b *testing.B)  { benchFigure(b, "fig15") }
func BenchmarkFig16HCGCPAblation(b *testing.B)    { benchFigure(b, "fig16") }
func BenchmarkAreaPower(b *testing.B)             { benchFigure(b, "area") }
func BenchmarkFig17DMaxSweep(b *testing.B)        { benchFigure(b, "fig17") }
func BenchmarkFig18WMinSweep(b *testing.B)        { benchFigure(b, "fig18") }
func BenchmarkFig19LLCSweep(b *testing.B)         { benchFigure(b, "fig19") }
func BenchmarkFig20CoreScaling(b *testing.B)      { benchFigure(b, "fig20") }
func BenchmarkFig21Preprocessing(b *testing.B)    { benchFigure(b, "fig21") }
func BenchmarkFig22TotalTime(b *testing.B)        { benchFigure(b, "fig22") }
func BenchmarkFig23VersusPrefetcher(b *testing.B) { benchFigure(b, "fig23") }
func BenchmarkFig24VersusReordering(b *testing.B) { benchFigure(b, "fig24") }
func BenchmarkFig25GraphGenerality(b *testing.B)  { benchFigure(b, "fig25") }

// Component micro-benchmarks.

func BenchmarkOAGBuild(b *testing.B) {
	g := gen.MustLoad("WEB", 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oag.Build(g, oag.Hyperedges, 3, nil, 1)
	}
}

func BenchmarkChainGeneration(b *testing.B) {
	g := gen.MustLoad("WEB", 0.25)
	o := oag.Build(g, oag.Hyperedges, 3, nil, 1)
	n := g.NumHyperedges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		active := bitset.New(n)
		for j := uint32(0); j < n; j++ {
			active.Set(j)
		}
		core.Generate(o, 0, n, active, core.DefaultDMax, nil)
	}
}

func BenchmarkSimulatedPRHygra(b *testing.B) {
	g := gen.MustLoad("FS", 0.25)
	prep := engine.Prepare(g, 16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, algorithms.NewPageRank(3), engine.Options{Kind: engine.Hygra, Prep: prep}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatedPRChGraph(b *testing.B) {
	g := gen.MustLoad("FS", 0.25)
	prep := engine.Prepare(g, 16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(g, algorithms.NewPageRank(3), engine.Options{Kind: engine.ChGraph, Prep: prep}); err != nil {
			b.Fatal(err)
		}
	}
}
