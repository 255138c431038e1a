// Package engine executes hypergraph algorithms on the simulated system
// under the paper's competing execution models:
//
//   - Hygra:     the index-ordered software baseline (Algorithm 1) [41];
//   - GLA:       the chain-driven model executed purely in software —
//     chain generation runs on the core and serializes with the
//     Load/Apply work (Figure 3);
//   - ChGraph:   the hardware-accelerated GLA of §V — a per-core hardware
//     chain generator (HCG) and chain-driven prefetcher (CP) run
//     ahead of the core, coupled by the chain FIFO and
//     bipartite-edge FIFO;
//   - ChGraphHCG: ChGraph with the prefetcher disabled (Figure 16
//     ablation): the HCG produces the schedule, the core loads;
//   - HATSV:     the modified HATS traversal scheduler of §II-C: bounded
//     DFS over the bipartite structure itself, weight-oblivious,
//     paying two bipartite hops per neighbor probe;
//   - HygraPF:   Hygra plus an event-triggered indirect prefetcher [2]
//     running ahead of the core (Figure 23).
//
// Every engine applies the algorithm functionally while compiling per-agent
// operation streams, which the system simulator replays for timing and
// off-chip-traffic measurement; all engines therefore produce identical
// algorithm outputs (up to floating-point summation order), which the test
// suite verifies against sequential oracles.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/core"
	"chgraph/internal/hypergraph"
	"chgraph/internal/oag"
	"chgraph/internal/obs"
	"chgraph/internal/par"
	"chgraph/internal/sim/system"
	"chgraph/internal/trace"
)

// Kind selects the execution model.
type Kind int

const (
	// Hygra is the index-ordered baseline.
	Hygra Kind = iota
	// GLA is the software chain-driven model.
	GLA
	// ChGraph is the full hardware-accelerated model (HCG + CP).
	ChGraph
	// ChGraphHCG is ChGraph without the chain-driven prefetcher.
	ChGraphHCG
	// HATSV is the modified HATS baseline.
	HATSV
	// HygraPF is Hygra with an event-triggered hardware prefetcher.
	HygraPF
)

// kindSpellings maps the canonical CLI/API spellings to kinds, in display
// order.
var kindSpellings = []struct {
	name string
	kind Kind
}{
	{"hygra", Hygra},
	{"gla", GLA},
	{"chgraph", ChGraph},
	{"chgraph-hcg", ChGraphHCG},
	{"hats-v", HATSV},
	{"hygra-pf", HygraPF},
}

// ParseKind maps a CLI/API spelling (case-insensitive: "hygra", "gla",
// "chgraph", "chgraph-hcg", "hats-v", "hygra-pf") to its Kind. Display names
// (e.g. "Hygra+PF") parse too, so spellings copied from printed results
// round-trip.
func ParseKind(s string) (Kind, error) {
	l := strings.ReplaceAll(strings.ToLower(s), "+", "-")
	for _, ks := range kindSpellings {
		if ks.name == l {
			return ks.kind, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown execution model %q (have %v)", s, KindNames())
}

// KindNames lists the spellings ParseKind accepts, in display order.
func KindNames() []string {
	out := make([]string, len(kindSpellings))
	for i, ks := range kindSpellings {
		out[i] = ks.name
	}
	return out
}

func (k Kind) String() string {
	switch k {
	case Hygra:
		return "Hygra"
	case GLA:
		return "GLA"
	case ChGraph:
		return "ChGraph"
	case ChGraphHCG:
		return "ChGraph-HCG"
	case HATSV:
		return "HATS-V"
	case HygraPF:
		return "Hygra+PF"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Bitmap sides in the simulated address space.
const (
	bmVertex    = 0
	bmHyperedge = 1
)

// Prep holds the preprocessing products shared by chain-driven engines: the
// per-core chunking and the per-chunk OAGs for both sides. Building it once
// and reusing it across algorithms mirrors the paper's amortization argument
// (§IV-A) and keeps experiment sweeps fast.
type Prep struct {
	Cores   int
	WMin    uint32
	VChunks []hypergraph.Chunk
	HChunks []hypergraph.Chunk
	// VOAG drives chains over vertices (hyperedge-computation phases);
	// HOAG drives chains over hyperedges (vertex-computation phases).
	VOAG, HOAG *oag.OAG

	// borrowed counts the reuse arenas instances on this Prep hold (see
	// ScratchOutstanding); the arenas themselves live in one process-wide
	// pool.
	borrowed atomic.Int64
}

// Prepare builds chunks and per-chunk OAGs for g at the default host
// parallelism (PrepareParallel with par.DefaultWorkers()); the result is
// identical to the serial build.
func Prepare(g *hypergraph.Bipartite, cores int, wMin uint32) *Prep {
	return PrepareParallel(g, cores, wMin, par.DefaultWorkers())
}

// PrepareParallel builds chunks and per-chunk OAGs for g using at most
// workers goroutines: the two sides build concurrently, and each side fans
// its per-chunk OAG construction out across a worker pool (chunks are
// independent by construction). Any workers value produces a byte-identical
// Prep.
func PrepareParallel(g *hypergraph.Bipartite, cores int, wMin uint32, workers int) *Prep {
	p := &Prep{
		Cores:   cores,
		WMin:    wMin,
		VChunks: hypergraph.Chunks(g.NumVertices(), cores),
		HChunks: hypergraph.Chunks(g.NumHyperedges(), cores),
	}
	sideWorkers := (workers + 1) / 2
	par.For(workers, 2, func(i int) {
		if i == 0 {
			p.VOAG = oag.Build(g, oag.Vertices, wMin, p.VChunks, sideWorkers)
		} else {
			p.HOAG = oag.Build(g, oag.Hyperedges, wMin, p.HChunks, sideWorkers)
		}
	})
	return p
}

// OAGStorageBytes returns the extra storage the OAGs add (Figure 21(b)).
func (p *Prep) OAGStorageBytes() uint64 {
	return p.VOAG.StorageBytes() + p.HOAG.StorageBytes()
}

// OAGBuildOps returns the total OAG construction work units.
func (p *Prep) OAGBuildOps() uint64 { return p.VOAG.BuildOps() + p.HOAG.BuildOps() }

// Options configures a run. The engine's model constants — the instruction
// costs, the ChGraph FIFO capacities (internal/chgraph), the HygraPF
// prefetch distance and the preprocessing cost model (costs.go) — are not
// options: the paper fixes them.
type Options struct {
	Kind Kind
	// Sys is the simulated system; defaults to system.ScaledConfig().
	Sys system.Config
	// DMax bounds chain length (default core.DefaultDMax).
	DMax int
	// WMin is the OAG threshold used if Prep must be built (default
	// oag.DefaultWMin).
	WMin uint32
	// Prep supplies prebuilt chunks/OAGs; nil builds them on demand.
	Prep *Prep
	// ChargePreprocess adds the modelled preprocessing time (CSR build,
	// plus OAG build for chain engines) to the cycle count (Figure 22).
	ChargePreprocess bool
	// Workers bounds host-side parallelism for phase compilation and for
	// on-demand Prep construction. The simulated results are identical for
	// every value: parallel work is restricted to independent per-chunk
	// compilation, and all algorithm state mutation stays sequential in
	// core order. 0 selects runtime.GOMAXPROCS(0); 1 is the fully serial
	// path.
	Workers int
	// Observer, if non-nil, receives per-phase, per-iteration and run
	// snapshots (internal/obs). Observers are read-only taps: attaching
	// one leaves every Result field bit-identical.
	Observer obs.Observer
}

// WithDefaults returns o with every unset field resolved to its default —
// exactly the options an Instance created from o runs under. Callers that
// build artifacts for later reuse (internal/shard, internal/serve) resolve
// through this so their cache keys match what the engine will execute.
func (o Options) WithDefaults() Options {
	if o.Sys.Cores == 0 {
		o.Sys = system.ScaledConfig()
	}
	if o.DMax == 0 {
		o.DMax = core.DefaultDMax
	}
	if o.WMin == 0 {
		o.WMin = oag.DefaultWMin
	}
	if o.Workers == 0 {
		o.Workers = par.DefaultWorkers()
	}
	return o
}

// Result reports a run's outputs and measurements.
type Result struct {
	// Kind echoes the engine.
	Kind Kind
	// State holds the final vertex/hyperedge values.
	State *algorithms.State
	// Iterations is the number of synchronous iterations executed.
	Iterations int
	// Cycles is the simulated execution time (including preprocessing if
	// charged).
	Cycles uint64
	// PreprocessCycles is the modelled preprocessing time included in
	// Cycles when Options.ChargePreprocess is set.
	PreprocessCycles uint64
	// MemReads/MemWrites count off-chip line transfers per array; their
	// sum is the paper's "number of main memory accesses".
	MemReads, MemWrites [trace.NumArrays]uint64
	// CoreCycles and MemStallCycles drive the Figure 5 stall fraction.
	CoreCycles, MemStallCycles, FifoStallCycles uint64
	// Cache hit/miss aggregates.
	L1Hits, L1Misses, L2Hits, L2Misses, L3Hits, L3Misses uint64
	// EdgesProcessed counts HF/VF applications.
	EdgesProcessed uint64
	// MemByPhase splits off-chip accesses between the hyperedge-
	// computation phases (index 0) and vertex-computation phases (1).
	MemByPhase [2][trace.NumArrays]uint64
	// ChainCount and ChainNodes summarize the chain schedules *executed*:
	// every phase that runs a schedule contributes, whether the schedule
	// was freshly generated or replayed from the §VI-B memoization cache.
	// This keeps them consistent with EdgesProcessed across multi-iteration
	// all-active runs (PageRank replays the same schedule every iteration).
	ChainCount, ChainNodes uint64
	// ChainGenCount and ChainGenNodes count only freshly *generated*
	// schedules (replays excluded); an all-active run generates once per
	// side and replays thereafter, so these stay near one phase's worth.
	ChainGenCount, ChainGenNodes uint64
}

// MemTotal returns total off-chip accesses.
func (r *Result) MemTotal() uint64 {
	var n uint64
	for a := trace.Array(0); a < trace.NumArrays; a++ {
		n += r.MemReads[a] + r.MemWrites[a]
	}
	return n
}

// MemByGroup returns off-chip accesses per Figure 15 group.
func (r *Result) MemByGroup() [trace.NumGroups]uint64 {
	var out [trace.NumGroups]uint64
	for a := trace.Array(0); a < trace.NumArrays; a++ {
		out[trace.GroupOf(a)] += r.MemReads[a] + r.MemWrites[a]
	}
	return out
}

// StallFraction returns the fraction of core time stalled on main memory.
func (r *Result) StallFraction() float64 {
	if r.CoreCycles == 0 {
		return 0
	}
	return float64(r.MemStallCycles) / float64(r.CoreCycles)
}

// Run executes alg on g under the given options: open an Instance, loop the
// two computation phases per iteration — compiling each phase, draining its
// HF/VF applications sequentially in stream order, committing it to the
// simulator — until the frontier empties or the algorithm converges.
func Run(g *hypergraph.Bipartite, alg algorithms.Algorithm, opt Options) (*Result, error) {
	return RunCtx(context.Background(), g, alg, opt)
}

// RunCtx is Run with cooperative cancellation. It opens one Instance on g
// and runs it through Drive, the iteration driver sharded and distributed
// runs share, as a single backend with no id maps. Cancellation is observed
// at phase boundaries (and inside the parallel phase-compile workers, which
// stop dispatching chunks): once ctx is done the run abandons the iteration
// in flight — no partially compiled phase is ever committed to the
// simulator or allowed to mutate algorithm state — and returns ctx.Err(). A
// nil ctx never cancels. A nil error guarantees the Result is the same
// bit-identical output Run produces.
func RunCtx(ctx context.Context, g *hypergraph.Bipartite, alg algorithms.Algorithm, opt Options) (*Result, error) {
	var hostStart time.Time
	if opt.Observer != nil {
		hostStart = time.Now()
	}
	in, err := NewInstanceCtx(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	res, _, err := Drive(ctx, g, alg, []Backend{NewLocalBackend(in, nil, nil)}, opt, hostStart)
	return res, err
}

// phaseSpec describes one computation phase generically: "src" elements in
// the frontier scatter updates to "dst" elements through the bipartite CSR.
type phaseSpec struct {
	// idx is 0 for hyperedge-computation phases, 1 for vertex-computation
	// phases; dense marks an all-active frontier (no bitmap maintenance).
	idx          int
	dense        bool
	srcN, dstN   uint32
	chunks       []hypergraph.Chunk
	og           *oag.OAG
	frontier     bitset.Bitmap
	next         bitset.Bitmap
	srcBm, dstBm int
	offArr       trace.Array
	incArr       trace.Array
	srcValArr    trace.Array
	dstValArr    trace.Array
	offset       func(uint32) uint32
	// adj holds the src side's incidence lists, which the compile passes
	// decode through per-core cursors (coreScratch.adjCur). The simulated
	// address stream comes from the plain offsets: an entry's logical CSR
	// index is offset+position.
	adj *hypergraph.PackedAdj
	// Back direction (dst side CSR), used by HATS-V's 2-hop probing.
	backOffArr trace.Array
	backIncArr trace.Array
	backOffset func(uint32) uint32
	back       *hypergraph.PackedAdj
}

// vertexPhase is the hyperedge-computation phase (src = vertices).
func vertexPhase(g *hypergraph.Bipartite, prep *Prep, frontier, next bitset.Bitmap) *phaseSpec {
	return &phaseSpec{
		srcN: g.NumVertices(), dstN: g.NumHyperedges(),
		chunks: prep.VChunks, og: prep.VOAG,
		frontier: frontier, next: next,
		srcBm: bmVertex, dstBm: bmHyperedge,
		offArr: trace.VertexOffset, incArr: trace.IncidentHyperedge,
		srcValArr: trace.VertexValue, dstValArr: trace.HyperedgeValue,
		offset: g.VertexOffset, adj: g.PackedV(),
		backOffArr: trace.HyperedgeOffset, backIncArr: trace.IncidentVertex,
		backOffset: g.HyperedgeOffset, back: g.PackedH(),
	}
}

// hyperedgePhase is the vertex-computation phase (src = hyperedges).
func hyperedgePhase(g *hypergraph.Bipartite, prep *Prep, frontier, next bitset.Bitmap) *phaseSpec {
	return &phaseSpec{
		srcN: g.NumHyperedges(), dstN: g.NumVertices(),
		chunks: prep.HChunks, og: prep.HOAG,
		frontier: frontier, next: next,
		srcBm: bmHyperedge, dstBm: bmVertex,
		offArr: trace.HyperedgeOffset, incArr: trace.IncidentVertex,
		srcValArr: trace.HyperedgeValue, dstValArr: trace.VertexValue,
		offset: g.HyperedgeOffset, adj: g.PackedH(),
		backOffArr: trace.VertexOffset, backIncArr: trace.IncidentHyperedge,
		backOffset: g.VertexOffset, back: g.PackedV(),
	}
}
