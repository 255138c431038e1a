// Package chgraph is a library-level reproduction of "Hardware-Accelerated
// Hypergraph Processing with Chain-Driven Scheduling" (HPCA 2022): the
// chain-driven Generate-Load-Apply (GLA) execution model for hypergraph
// processing, the per-core ChGraph hardware engine that accelerates it, the
// index-ordered Hygra baseline, and the simulated multicore memory system
// the paper evaluates on.
//
// The package exposes four layers:
//
//   - hypergraphs: loading the paper-shaped synthetic datasets or building
//     your own (NewHypergraph / LoadDataset / LoadGraphDataset);
//   - chains: the paper's core abstraction — overlap-aware abstraction
//     graphs and chain schedules (Hypergraph.Chains);
//   - execution: running any of the six hypergraph algorithms (plus the
//     ordinary-graph workloads) under any execution model on the simulated
//     system, with full architectural metrics (Run);
//   - experiments: regenerating any table or figure from the paper's
//     evaluation (ReproduceFigure / Figures).
package chgraph

import (
	"bufio"
	"context"
	"fmt"
	"io"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/core"
	"chgraph/internal/dist"
	"chgraph/internal/engine"
	"chgraph/internal/gen"
	"chgraph/internal/hwcost"
	"chgraph/internal/hypergraph"
	"chgraph/internal/oag"
	"chgraph/internal/obs"
	"chgraph/internal/shard"
	"chgraph/internal/sim/system"
	"chgraph/internal/trace"
)

// Hypergraph is a bipartite-CSR hypergraph (Figure 4 of the paper), its
// incidence lists held delta/varint-packed.
type Hypergraph struct {
	b *hypergraph.Bipartite
}

// NewHypergraph builds a hypergraph from per-hyperedge incident vertex
// lists. Vertex ids must be below numVertices.
func NewHypergraph(numVertices uint32, hyperedges [][]uint32) (*Hypergraph, error) {
	b, err := hypergraph.Build(numVertices, hyperedges)
	if err != nil {
		return nil, err
	}
	b.SortAdjacency()
	return &Hypergraph{b: b}, nil
}

// NewDirectedHypergraph builds a directed hypergraph (§II-A): each
// hyperedge has a source vertex set (whose values it gathers in hyperedge
// computation) and a destination vertex set (which it updates in vertex
// computation).
func NewDirectedHypergraph(numVertices uint32, sources, destinations [][]uint32) (*Hypergraph, error) {
	b, err := hypergraph.BuildDirected(numVertices, sources, destinations)
	if err != nil {
		return nil, err
	}
	return &Hypergraph{b: b}, nil
}

// NewGraph builds the 2-uniform hypergraph embedding of an ordinary graph
// (§II-A: a graph is a special case of a hypergraph).
func NewGraph(numVertices uint32, edges [][2]uint32) (*Hypergraph, error) {
	b, err := hypergraph.FromGraphEdges(numVertices, edges)
	if err != nil {
		return nil, err
	}
	return &Hypergraph{b: b}, nil
}

// ReadHypergraph parses a hypergraph from r in either on-disk format
// (internal/hypergraph/io.go): the binary format is detected by its "CHG2"
// magic, anything else is parsed as the line-oriented text format (a `V H`
// header, then one line of incident vertex ids per hyperedge). Its
// adjacency is sorted as NewHypergraph would, so a round-trip through
// WriteText/WriteBinary yields an equivalent hypergraph. A binary body whose
// lists are already sorted keeps its packed payload byte for byte.
func ReadHypergraph(r io.Reader) (*Hypergraph, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	var b *hypergraph.Bipartite
	if err == nil && string(magic) == "CHG2" {
		b, err = hypergraph.ReadBinary(br)
	} else {
		b, err = hypergraph.ReadText(br)
	}
	if err != nil {
		return nil, err
	}
	b.SortAdjacency()
	return &Hypergraph{b: b}, nil
}

// WriteText writes g in the line-oriented text format ReadHypergraph accepts.
func (g *Hypergraph) WriteText(w io.Writer) error { return hypergraph.WriteText(w, g.b) }

// WriteBinary writes g in the binary format ReadHypergraph accepts: the
// graph codec's "CHG2" encoding, the bytes a dist /prepare payload carries.
func (g *Hypergraph) WriteBinary(w io.Writer) error { return hypergraph.WriteBinary(w, g.b) }

// Datasets lists the paper's five hypergraph dataset names (Table II).
func Datasets() []string { return append([]string{}, gen.HypergraphNames...) }

// GraphDatasets lists the ordinary-graph dataset names (Figure 25).
func GraphDatasets() []string { return append([]string{}, gen.GraphNames...) }

// LoadDataset generates the named paper-shaped synthetic hypergraph.
// scale <= 0 selects the calibrated default size.
func LoadDataset(name string, scale float64) (*Hypergraph, error) {
	b, err := gen.Load(name, scale)
	if err != nil {
		return nil, err
	}
	return &Hypergraph{b: b}, nil
}

// LoadGraphDataset generates the named ordinary-graph dataset.
func LoadGraphDataset(name string, scale float64) (*Hypergraph, error) {
	b, err := gen.LoadGraph(name, scale)
	if err != nil {
		return nil, err
	}
	return &Hypergraph{b: b}, nil
}

// NumVertices returns |V|.
func (g *Hypergraph) NumVertices() uint32 { return g.b.NumVertices() }

// NumHyperedges returns |H|.
func (g *Hypergraph) NumHyperedges() uint32 { return g.b.NumHyperedges() }

// NumBipartiteEdges returns the incidence count (Table II's #BEdges).
func (g *Hypergraph) NumBipartiteEdges() uint64 { return g.b.NumBipartiteEdges() }

// IncidentVertices returns N(h) as a freshly decoded slice the caller owns.
func (g *Hypergraph) IncidentVertices(h uint32) []uint32 { return g.b.IncidentVertices(h) }

// IncidentHyperedges returns N(v) as a freshly decoded slice the caller
// owns.
func (g *Hypergraph) IncidentHyperedges(v uint32) []uint32 { return g.b.IncidentHyperedges(v) }

// OverlapSize returns |N(a) ∩ N(b)| for hyperedges a and b (§II-A).
func (g *Hypergraph) OverlapSize(a, b uint32) uint32 { return g.b.OverlapSize(a, b) }

// Stats returns Table II-style statistics.
func (g *Hypergraph) Stats() hypergraph.Stats { return hypergraph.ComputeStats(g.b) }

// Footprint reports adjacency storage, both incidence directions: total
// bytes and bytes per bipartite edge. Footprint(true) is what g holds (plain
// offset arrays plus the packed lists); Footprint(false) is the size of the
// plain CSR with the same lists (4-byte offsets and ids), the baseline the
// packing is measured against.
func (g *Hypergraph) Footprint(packed bool) (totalBytes uint64, bytesPerEdge float64) {
	b := g.b
	if packed {
		totalBytes = b.AdjacencyBytes()
	} else {
		// StorageBytes is that plain CSR plus one 8-byte value slot per
		// element.
		totalBytes = b.StorageBytes() - 8*uint64(b.NumVertices()+b.NumHyperedges())
	}
	if e := b.NumBipartiteEdges(); e > 0 {
		bytesPerEdge = float64(totalBytes) / float64(e)
	}
	return totalBytes, bytesPerEdge
}

// Side selects hyperedge chains (scheduling hyperedges, as in vertex
// computation) or vertex chains.
type Side int

// Chain sides.
const (
	HyperedgeChains Side = iota
	VertexChains
)

// Chain is one overlap-inducing chain (Definition 2): a schedule of
// hyperedges (or vertices) in which successive elements overlap.
type Chain []uint32

// Chains decomposes the hypergraph into overlap-inducing chains (§IV): it
// builds the overlap-aware abstraction graph at threshold wMin (0 = the
// paper's default 3) and runs the chain generator with depth bound dMax
// (0 = the paper's default 16) over all elements.
func (g *Hypergraph) Chains(side Side, wMin uint32, dMax int) []Chain {
	if wMin == 0 {
		wMin = oag.DefaultWMin
	}
	if dMax == 0 {
		dMax = core.DefaultDMax
	}
	oside := oag.Hyperedges
	n := g.b.NumHyperedges()
	if side == VertexChains {
		oside = oag.Vertices
		n = g.b.NumVertices()
	}
	o := oag.Build(g.b, oside, wMin, nil, 1)
	active := bitset.New(n)
	for i := uint32(0); i < n; i++ {
		active.Set(i)
	}
	cs := core.Generate(o, 0, n, active, dMax, nil)
	out := make([]Chain, cs.NumChains())
	for j := range out {
		out[j] = append(Chain{}, cs.Chain(j)...)
	}
	return out
}

// Engine selects the execution model.
type Engine = engine.Kind

// Execution models.
const (
	// Hygra is the index-ordered software baseline [41].
	Hygra = engine.Hygra
	// GLA is the chain-driven model executed purely in software.
	GLA = engine.GLA
	// ChGraph is the hardware-accelerated model (HCG + CP, §V).
	ChGraph = engine.ChGraph
	// ChGraphHCG is ChGraph without the chain-driven prefetcher.
	ChGraphHCG = engine.ChGraphHCG
	// HATSV is the modified HATS baseline (§II-C).
	HATSV = engine.HATSV
	// HygraPF is Hygra plus an event-triggered hardware prefetcher.
	HygraPF = engine.HygraPF
)

// Algorithms lists the supported hypergraph algorithm names.
func Algorithms() []string { return append([]string{}, algorithms.HypergraphAlgos...) }

// ParseEngine maps a CLI/API spelling ("hygra", "gla", "chgraph",
// "chgraph-hcg", "hats-v", "hygra-pf"; case-insensitive) to its Engine.
func ParseEngine(s string) (Engine, error) { return engine.ParseKind(s) }

// EngineNames lists the spellings ParseEngine accepts.
func EngineNames() []string { return engine.KindNames() }

// RunConfig tunes a Run; the zero value reproduces the paper's defaults
// (16 cores, scaled Table I system, W_min=3, D_max=16).
type RunConfig struct {
	// Engine is the execution model (default Hygra).
	Engine Engine
	// Cores overrides the simulated core count.
	Cores int
	// DMax and WMin override the chain parameters.
	DMax int
	WMin uint32
	// LLCBytes overrides the total last-level cache capacity.
	LLCBytes uint64
	// IncludePreprocessing charges modelled preprocessing time.
	IncludePreprocessing bool
	// Source sets the source vertex for BFS/BC/SSSP.
	Source uint32
	// Iterations overrides the iteration count for PR/Adsorption.
	Iterations int
	// Workers bounds the host-side parallelism used to build OAGs and
	// compile phase op streams. Simulated results are identical for every
	// value; 0 uses all available CPUs, 1 forces the serial path.
	Workers int
	// Observer, if non-nil, receives per-phase, per-iteration and run
	// snapshots during the run (see NewTimeline / NewLogObserver).
	// Observers are read-only: attaching one leaves the Result
	// bit-identical.
	Observer Observer
	// Shards, when above 1, splits the hypergraph into that many shards and
	// runs one engine per shard with a merge barrier between iterations
	// (internal/shard). Results are deterministic for any shard count;
	// Shards <= 1 runs the single unsharded engine, which sharded runs at
	// K=1 reproduce bit for bit.
	Shards int
	// ShardPolicy selects the partitioner: "range" (contiguous hyperedge
	// ranges, the default) or "greedy" (streaming replication-minimizing
	// assignment).
	ShardPolicy string
	// ShardCapFactor tunes the greedy policy's per-shard size cap
	// (<=0 uses the default headroom).
	ShardCapFactor float64
	// DistWorkers, when non-empty, runs the computation distributed: one
	// shard per address, each executed by a chgraph-worker process
	// (internal/dist), with the frontier merge barrier driven over HTTP.
	// The shard count is len(DistWorkers) — Shards is ignored — and
	// ShardPolicy/ShardCapFactor configure the partitioner as for in-process
	// sharded runs. Crash-free distributed runs are bit-identical to the
	// equivalent in-process sharded run; a run that recovered a worker crash
	// keeps exact algorithm state but not simulated cycle counters
	// (DESIGN.md §16). Prepared is not supported with DistWorkers (each
	// worker preps its own sub-hypergraph).
	DistWorkers []string
	// Prepared supplies prebuilt preprocessing artifacts from Prepare so
	// repeat runs of the same spec skip dataset chunking, OAG construction
	// and (for sharded runs) partitioning entirely. It must have been built
	// from the same hypergraph with a configuration matching this one
	// (cores, W_min, shard count/policy); a mismatch is an error. Prepared
	// artifacts are read-only and safe to share across concurrent runs —
	// the serving layer's cache hands one Prepared to many requests.
	Prepared *Prepared
}

// Prepared is an opaque bundle of reusable preprocessing artifacts: the
// per-core chunking and overlap-aware abstraction graphs for unsharded runs,
// plus the materialized partition and per-shard OAGs for sharded ones.
// Preprocessing is the dominant amortizable cost of a run (§IV-A); building
// it once via Prepare and reusing it through RunConfig.Prepared is what a
// steady-state serving cache amortizes.
type Prepared struct {
	b      *hypergraph.Bipartite
	cores  int
	wMin   uint32
	prep   *engine.Prep    // unsharded artifacts (nil for sharded specs)
	shards int             // >1 when prepared for a sharded spec
	policy shard.Policy    // sharded only
	sh     *shard.Prepared // sharded artifacts

	// generation counts the Apply steps since the from-scratch Prepare that
	// started this artifact's lineage (0 for a fresh Prepare).
	generation uint64
}

// Shards returns the shard count the artifacts were built for (<=1 when
// prepared for an unsharded run).
func (p *Prepared) Shards() int { return p.shards }

// Generation returns how many mutation batches were applied to derive this
// artifact from its original from-scratch Prepare. Serving layers use it to
// tag runs with the artifact version they executed on.
func (p *Prepared) Generation() uint64 { return p.generation }

// Batch is one atomic set of hypergraph mutations: whole hyperedges are
// removed by pre-batch id and new ones appended (compacting the id space —
// survivors keep their relative order, additions take the ids past the last
// survivor). The vertex set is fixed. Stage mutations via AddHyperedges /
// RemoveHyperedges or fill the fields directly.
type Batch = hypergraph.Batch

// Apply derives a new hypergraph version and its prepared artifacts from one
// mutation batch, updating the overlap-aware abstraction graphs
// incrementally (oag.Update) instead of re-running the full counting pass —
// for sharded artifacts the mutated hypergraph is also re-partitioned with
// the original policy, and only shards whose sub-hypergraph changed rebuild
// anything. The result is copy-on-write: p and the hypergraph it was built
// from are untouched and remain fully usable, so in-flight runs on the old
// version finish undisturbed while new runs adopt the returned pair.
//
// The correctness contract (pinned by the differential tests) is that the
// returned artifact is bit-identical — state checksums, simulated cycles —
// to a from-scratch Prepare on the returned hypergraph.
func (p *Prepared) Apply(ctx context.Context, batch Batch) (*Hypergraph, *Prepared, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d, err := p.b.ApplyBatch(batch)
	if err != nil {
		return nil, nil, err
	}
	np := &Prepared{
		b: d.New, cores: p.cores, wMin: p.wMin,
		shards: p.shards, policy: p.policy,
		generation: p.generation + 1,
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if p.sh != nil {
		sh, err := shard.Update(ctx, p.sh, d, 0)
		if err != nil {
			return nil, nil, err
		}
		np.sh = sh
	} else {
		np.prep = engine.UpdatePrep(p.prep, d)
	}
	return &Hypergraph{b: d.New}, np, nil
}

// Prepare builds the reusable preprocessing artifacts for running cfg-shaped
// requests on g: chunks and both OAGs at cfg's core count and W_min, and —
// when cfg.Shards > 1 — the materialized partition with per-shard OAGs. The
// artifacts serve every engine kind. Cancelling ctx aborts between stages
// and inside the parallel build workers.
func Prepare(ctx context.Context, g *Hypergraph, cfg RunConfig) (*Prepared, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	eopt := prepOptions(cfg)
	b := g.b
	p := &Prepared{b: b, cores: eopt.Sys.Cores, wMin: eopt.WMin}
	if cfg.Shards > 1 {
		pol := shard.PolicyRange
		if cfg.ShardPolicy != "" {
			var err error
			if pol, err = shard.ParsePolicy(cfg.ShardPolicy); err != nil {
				return nil, err
			}
		}
		sh, err := shard.Prepare(ctx, b, shard.Options{
			Shards: cfg.Shards, Policy: pol, CapFactor: cfg.ShardCapFactor,
			Engine: eopt,
		})
		if err != nil {
			return nil, err
		}
		p.shards, p.policy, p.sh = cfg.Shards, pol, sh
		return p, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.prep = engine.PrepareParallel(b, eopt.Sys.Cores, eopt.WMin, eopt.Workers)
	return p, nil
}

// prepOptions resolves the engine options a cfg-shaped run executes under
// (shared by Run and Prepare so prepared artifacts always match).
func prepOptions(cfg RunConfig) engine.Options {
	sys := system.ScaledConfig()
	if cfg.Cores > 0 {
		sys.Cores = cfg.Cores
	}
	if cfg.LLCBytes > 0 {
		sys = sys.WithLLCBytes(cfg.LLCBytes)
	}
	return engine.Options{
		Kind: cfg.Engine, Sys: sys, DMax: cfg.DMax, WMin: cfg.WMin,
		ChargePreprocess: cfg.IncludePreprocessing, Workers: cfg.Workers,
		Observer: cfg.Observer,
	}.WithDefaults()
}

// Observability layer (internal/obs re-exported): an Observer taps the
// engine's per-phase telemetry; a Timeline records it for JSON/CSV export;
// a leveled log observer prints it as text.
type (
	// Observer receives PhaseDone/IterationDone/RunDone snapshots.
	Observer = obs.Observer
	// PhaseSnapshot is one computation phase's measurement delta.
	PhaseSnapshot = obs.PhaseSnapshot
	// IterationSnapshot summarizes one synchronous iteration.
	IterationSnapshot = obs.IterationSnapshot
	// RunSnapshot summarizes a completed run.
	RunSnapshot = obs.RunSnapshot
	// Timeline records a run's full trajectory (WriteJSON / WriteCSV).
	Timeline = obs.Timeline
	// LogLevel selects log observer verbosity.
	LogLevel = obs.Level
)

// Log observer verbosity levels.
const (
	LogSilent    = obs.LevelSilent
	LogRun       = obs.LevelRun
	LogIteration = obs.LevelIteration
	LogPhase     = obs.LevelPhase
)

// NewTimeline returns a timeline recorder to pass as RunConfig.Observer.
func NewTimeline() *Timeline { return obs.NewTimeline() }

// NewLogObserver returns an observer printing telemetry lines to w at the
// given verbosity.
func NewLogObserver(w io.Writer, level LogLevel) Observer { return obs.NewLogger(w, level) }

// MultiObserver fans snapshots out to several observers (nils skipped).
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// Result reports a run's outputs and architectural measurements.
type Result struct {
	// VertexValues and HyperedgeValues are the final attribute arrays
	// (distances for BFS/SSSP, ranks for PR, labels for CC, MIS status,
	// remaining degrees for k-core).
	VertexValues, HyperedgeValues []float64
	// Coreness (k-core) and Centrality (BC) are populated when relevant.
	Coreness, Centrality []float64
	// Iterations is the number of synchronous iterations.
	Iterations int
	// Cycles is simulated execution time.
	Cycles uint64
	// MemAccesses is the total number of off-chip line transfers — the
	// paper's headline "number of main memory accesses".
	MemAccesses uint64
	// MemByGroup splits MemAccesses by the Figure 15 array groups:
	// offset, incident, value, OAG, other.
	MemByGroup map[string]uint64
	// MemStallFraction is the fraction of core time stalled on DRAM
	// (Figure 5).
	MemStallFraction float64
	// PreprocessCycles is included in Cycles when preprocessing was
	// charged.
	PreprocessCycles uint64
	// Chains and ChainNodes summarize generated chain schedules.
	Chains, ChainNodes uint64
	// Shards echoes the shard count for sharded runs (0 when unsharded);
	// ReplicatedVertices and ReplicationFactor then measure the partition
	// cut (vertices present on more than one shard, and mean shard copies
	// per vertex).
	Shards             int
	ReplicatedVertices uint64
	ReplicationFactor  float64
	// WorkerRestarts counts distributed worker crashes recovered during the
	// run (always 0 for in-process runs).
	WorkerRestarts uint64
}

// Run executes the named algorithm (see Algorithms, plus "SSSP" and
// "Adsorption" for graphs) on g under cfg.
func Run(g *Hypergraph, algorithm string, cfg RunConfig) (*Result, error) {
	return RunContext(context.Background(), g, algorithm, cfg)
}

// RunContext is Run with cooperative cancellation: once ctx is done the
// engine abandons the run at the next phase boundary (partially compiled
// phases are discarded, never simulated or applied to algorithm state) and
// returns ctx.Err(). Cancellation propagates into the parallel compile
// workers and, for sharded runs, every shard's engine. A nil error
// guarantees a Result bit-identical to an uncancelled Run.
func RunContext(ctx context.Context, g *Hypergraph, algorithm string, cfg RunConfig) (*Result, error) {
	var alg algorithms.Algorithm
	switch algorithm {
	case "BFS":
		alg = algorithms.NewBFS(cfg.Source)
	case "BC":
		alg = algorithms.NewBC(cfg.Source)
	case "SSSP":
		alg = algorithms.NewSSSP(cfg.Source)
	case "PR":
		it := cfg.Iterations
		if it == 0 {
			it = 10
		}
		alg = algorithms.NewPageRank(it)
	case "Adsorption":
		it := cfg.Iterations
		if it == 0 {
			it = 10
		}
		alg = algorithms.NewAdsorption(it)
	default:
		var ok bool
		alg, ok = algorithms.ByName(algorithm)
		if !ok {
			return nil, fmt.Errorf("chgraph: unknown algorithm %q (have %v + %v)", algorithm, algorithms.HypergraphAlgos, algorithms.GraphAlgos)
		}
	}

	eopt := prepOptions(cfg)
	b := g.b
	if len(cfg.DistWorkers) > 0 && cfg.Prepared != nil {
		return nil, fmt.Errorf("chgraph: Prepared artifacts are not supported with DistWorkers (each worker preps its own sub-hypergraph)")
	}
	if p := cfg.Prepared; p != nil {
		if p.b != b {
			return nil, fmt.Errorf("chgraph: Prepared was built for a different hypergraph")
		}
		if p.cores != eopt.Sys.Cores || p.wMin != eopt.WMin {
			return nil, fmt.Errorf("chgraph: Prepared built for cores=%d/wMin=%d, run wants cores=%d/wMin=%d",
				p.cores, p.wMin, eopt.Sys.Cores, eopt.WMin)
		}
		if (cfg.Shards > 1) != (p.shards > 1) {
			return nil, fmt.Errorf("chgraph: Prepared built for %d shards, run wants %d", p.shards, cfg.Shards)
		}
	}
	var (
		res  *engine.Result
		sres *shard.Result
		err  error
	)
	if len(cfg.DistWorkers) > 0 {
		var pol shard.Policy
		if cfg.ShardPolicy != "" {
			if pol, err = shard.ParsePolicy(cfg.ShardPolicy); err != nil {
				return nil, err
			}
		}
		sres, err = dist.RunCtx(ctx, b, alg, dist.Options{
			Workers: cfg.DistWorkers, Policy: pol, CapFactor: cfg.ShardCapFactor,
			Engine: eopt,
		})
		if sres != nil {
			res = sres.Result
		}
	} else if cfg.Shards > 1 {
		pol := shard.PolicyRange
		if cfg.ShardPolicy != "" {
			if pol, err = shard.ParsePolicy(cfg.ShardPolicy); err != nil {
				return nil, err
			}
		}
		sopt := shard.Options{
			Shards: cfg.Shards, Policy: pol, CapFactor: cfg.ShardCapFactor,
			Engine: eopt,
		}
		if cfg.Prepared != nil {
			sopt.Pre = cfg.Prepared.sh
		}
		sres, err = shard.RunCtx(ctx, b, alg, sopt)
		if sres != nil {
			res = sres.Result
		}
	} else {
		if cfg.Prepared != nil {
			eopt.Prep = cfg.Prepared.prep
		}
		res, err = engine.RunCtx(ctx, b, alg, eopt)
	}
	if err != nil {
		return nil, err
	}
	out := &Result{
		VertexValues:     res.State.VertexVal,
		HyperedgeValues:  res.State.HyperedgeVal,
		Iterations:       res.Iterations,
		Cycles:           res.Cycles,
		MemAccesses:      res.MemTotal(),
		MemStallFraction: res.StallFraction(),
		PreprocessCycles: res.PreprocessCycles,
		Chains:           res.ChainCount,
		ChainNodes:       res.ChainNodes,
		MemByGroup:       map[string]uint64{},
	}
	for gname, v := range res.MemByGroup() {
		out.MemByGroup[trace.Group(gname).String()] = v
	}
	if sres != nil {
		out.Shards = sres.Shards
		out.ReplicatedVertices = sres.ReplicatedVertices
		out.ReplicationFactor = sres.ReplicationFactor
		out.WorkerRestarts = sres.WorkerRestarts
	}
	if kc, ok := alg.(*algorithms.KCore); ok {
		out.Coreness = kc.Coreness
	}
	if bc, ok := alg.(*algorithms.BC); ok {
		out.Centrality = bc.Centrality
	}
	return out, nil
}

// EngineCost is the §VI-E area/power estimate for one ChGraph engine.
type EngineCost = hwcost.Report

// EstimateEngineCost returns the 65nm area/power model of the paper's
// ChGraph configuration (0.094mm², 61mW).
func EstimateEngineCost() EngineCost {
	return hwcost.Estimate(hwcost.PaperConfig(), hwcost.Tech65nm())
}
