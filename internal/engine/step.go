package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/par"
	"chgraph/internal/pool"
	"chgraph/internal/sim/system"
	"chgraph/internal/trace"
)

// Instance is one engine opened for stepping. Where Run drives a whole
// algorithm to completion, an Instance exposes the per-phase machinery: the
// driver compiles a phase into op streams (BeginHyperedgeComputation /
// BeginVertexComputation), applies the algorithm's HF/VF to the bipartite
// edges the compiler discovered (Step.Mark / Step.Resolve) against whatever
// State it owns, then stitches and simulates (Step.Commit). engine.Run is a
// thin loop over one Instance; the shard coordinator in internal/shard opens
// one Instance per shard and interleaves their apply passes at a
// deterministic merge barrier, which is why the apply pass lives with the
// driver and not inside the engine.
type Instance struct {
	g *hypergraph.Bipartite
	r *runner
}

// NewInstance validates opt against g and opens an instance: defaults
// resolved, prep built (or validated) for the simulated core count, and a
// fresh simulated system at cycle zero. The instance is exactly the state
// engine.Run holds before its first iteration.
func NewInstance(g *hypergraph.Bipartite, opt Options) (*Instance, error) {
	return NewInstanceCtx(context.Background(), g, opt)
}

// NewInstanceCtx is NewInstance bound to a cancellation context: once ctx is
// done, phase compilation stops dispatching work and every subsequently begun
// Step is an inert no-op (NumMarks 0, Commit 0). Drivers own the contract of
// checking ctx after each Begin and abandoning the run — the instance itself
// never commits partially compiled work.
func NewInstanceCtx(ctx context.Context, g *hypergraph.Bipartite, opt Options) (*Instance, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opt = opt.WithDefaults()
	if err := opt.Sys.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	needChains := opt.Kind == GLA || opt.Kind == ChGraph || opt.Kind == ChGraphHCG
	prep := opt.Prep
	if prep == nil {
		if needChains {
			prep = PrepareParallel(g, opt.Sys.Cores, opt.WMin, opt.Workers)
		} else {
			prep = &Prep{
				Cores:   opt.Sys.Cores,
				VChunks: hypergraph.Chunks(g.NumVertices(), opt.Sys.Cores),
				HChunks: hypergraph.Chunks(g.NumHyperedges(), opt.Sys.Cores),
			}
		}
	}
	if needChains && (prep.VOAG == nil || prep.HOAG == nil) {
		return nil, fmt.Errorf("engine: %v requires OAGs in Prep", opt.Kind)
	}
	// Both sides' chunkings must match the simulated core count; a mismatch
	// on either side would otherwise surface as an index panic deep inside
	// phase compilation.
	if len(prep.VChunks) != opt.Sys.Cores {
		return nil, fmt.Errorf("engine: prep vertex chunks built for %d cores, system has %d", len(prep.VChunks), opt.Sys.Cores)
	}
	if len(prep.HChunks) != opt.Sys.Cores {
		return nil, fmt.Errorf("engine: prep hyperedge chunks built for %d cores, system has %d", len(prep.HChunks), opt.Sys.Cores)
	}
	r := &runner{
		g: g, opt: opt, prep: prep, ctx: ctx,
		res: &Result{Kind: opt.Kind},
		obs: opt.Observer,
	}
	// Borrow a reuse arena from the process-wide pool (returned by Finish) and
	// prebuild the two phase specs; Begin* only swaps frontier bitmaps in.
	// The simulated system rides in the arena too: building the hierarchy
	// (caches, directory, NoC, DRAM queues) dominates per-run allocation,
	// and a Reset system replays bit-identically to a fresh one.
	r.scratch = prep.getScratch()
	if s := r.scratch.sys; s != nil && s.Cfg == opt.Sys {
		s.Reset()
		r.sys = s
	} else {
		r.sys = system.New(opt.Sys)
		r.scratch.sys = r.sys
	}
	r.ensureScratch(opt.Sys.Cores)
	r.phs[0] = *vertexPhase(g, prep, nil, nil)
	r.phs[1] = *hyperedgePhase(g, prep, nil, nil)
	return &Instance{g: g, r: r}, nil
}

// Err returns the instance context's cancellation error, nil while live.
func (in *Instance) Err() error { return in.r.ctxErr() }

// Graph returns the hypergraph the instance executes on.
func (in *Instance) Graph() *hypergraph.Bipartite { return in.g }

// Options returns the resolved options the instance runs under.
func (in *Instance) Options() Options { return in.r.opt }

// PreprocessCycles returns the modelled preprocessing time for this
// instance's engine kind (CSR build, plus OAG build for chain engines).
func (in *Instance) PreprocessCycles() uint64 {
	var oagOps uint64
	switch in.r.opt.Kind {
	case GLA, ChGraph, ChGraphHCG:
		oagOps = in.r.prep.OAGBuildOps()
	}
	return PrepCycles(in.g.NumBipartiteEdges(), oagOps)
}

// ChargePreprocess charges the modelled preprocessing time to the simulated
// clock (what Options.ChargePreprocess does inside Run). Call at most once,
// before the first phase.
func (in *Instance) ChargePreprocess() {
	in.r.res.PreprocessCycles = in.PreprocessCycles()
	in.r.sys.AddCycles(in.r.res.PreprocessCycles)
}

// AdvanceIteration marks one synchronous iteration complete; subsequent
// phase snapshots carry the next iteration index.
func (in *Instance) AdvanceIteration() {
	in.r.iter++
	in.r.res.Iterations++
}

// Elapsed returns the simulated clock (including any charged preprocessing).
func (in *Instance) Elapsed() uint64 { return in.r.sys.Elapsed() }

// SimPhases returns the number of phases the simulator has replayed (empty
// frontiers never reach the simulator and don't count).
func (in *Instance) SimPhases() int { return in.r.sys.Phases }

// EdgesProcessed returns the cumulative HF/VF application count.
func (in *Instance) EdgesProcessed() uint64 { return in.r.res.EdgesProcessed }

// BeginHyperedgeComputation compiles a hyperedge-computation phase: active
// vertices in frontierV scatter via HF, activations land in nextE. The
// returned Step holds the compiled streams with the HF applications still
// pending.
func (in *Instance) BeginHyperedgeComputation(frontierV, nextE bitset.Bitmap) *Step {
	ph := &in.r.phs[0]
	ph.frontier, ph.next = frontierV, nextE
	return in.r.beginStep(ph)
}

// BeginVertexComputation compiles a vertex-computation phase: active
// hyperedges in frontierE scatter via VF, activations land in nextV.
func (in *Instance) BeginVertexComputation(frontierE, nextV bitset.Bitmap) *Step {
	ph := &in.r.phs[1]
	ph.frontier, ph.next = frontierE, nextV
	return in.r.beginStep(ph)
}

// Finish reads the final measurements off the simulated system into the
// instance's Result and returns it. State is left nil: the driver owns the
// algorithm state (Run fills it in; the shard coordinator keeps one global
// State for all shards). Finish also retires the instance's reuse arena
// back to the pool — the last Step's marks and agents are invalid
// afterwards, so drivers must not Begin or Commit on a finished instance.
func (in *Instance) Finish() *Result {
	r := in.r
	res := r.res
	res.Cycles = r.sys.Elapsed()
	res.MemReads = r.sys.Hier.Mem().Reads
	res.MemWrites = r.sys.Hier.Mem().Writes
	res.CoreCycles = r.sys.CoreCycles
	res.MemStallCycles = r.sys.MemStallCycles
	res.FifoStallCycles = r.sys.FifoStallCycles
	res.L1Hits, res.L1Misses, res.L2Hits, res.L2Misses, res.L3Hits, res.L3Misses = r.sys.Hier.CacheStats()
	if r.scratch != nil {
		r.prep.putScratch(r.scratch)
		r.scratch = nil
	}
	return res
}

// Step is one compiled-but-not-yet-applied computation phase. The driver
// walks Mark over the HF/VF applications the compiler discovered (in
// compiled stream order: core-major, stream position within a core), applies
// the algorithm, reports each outcome through Resolve, and finally Commit
// stitches the outcome-dependent ops into the streams and replays them on
// the simulated system. A Step whose source frontier was empty is a no-op:
// NumMarks is 0 and Commit returns 0 without touching the simulator,
// matching Run's historical skip of empty phases.
type Step struct {
	r    *runner
	ph   *phaseSpec
	cc   []*compiledCore
	offs []int // per-core mark-count prefix sums; offs[len(cc)] = NumMarks
	outs [][]edgeOutcome
	cur  int // cursor core for locate (drivers walk marks in order)
	skip bool

	timed      bool
	snap       obs.PhaseSnapshot
	before     [trace.NumArrays]uint64
	applyStart time.Time
}

// beginStep compiles ph's op streams (pass 1) and returns the pending Step.
// A cancelled instance context short-circuits to an inert skip Step, before
// or after compilation: partially compiled streams are discarded, never
// exposed through Mark/Resolve or committed to the simulator.
func (r *runner) beginStep(ph *phaseSpec) *Step {
	st := &r.step
	*st = Step{r: r, ph: ph, offs: st.offs, outs: st.outs}
	frontier := ph.frontier.Count()
	if frontier == 0 || r.ctxErr() != nil {
		st.skip = true
		return st
	}
	r.ensureScratch(len(ph.chunks))
	phaseIdx := 0
	if ph.srcBm == bmHyperedge {
		phaseIdx = 1
	}
	if r.obs != nil {
		st.timed = true
		st.snap = r.beginSnapshot(phaseIdx, frontier)
	}
	st.before = r.sys.Hier.Mem().AccessesByArray()
	st.cc = r.compileStreams(ph)
	if r.ctxErr() != nil {
		st.skip, st.cc = true, nil
		return st
	}
	st.offs = pool.Grow(st.offs, len(st.cc)+1)
	st.outs = pool.Grow(st.outs, len(st.cc))
	st.offs[0] = 0
	for i, c := range st.cc {
		st.offs[i+1] = st.offs[i] + len(c.marks)
		sc := &r.scratch.cores[i]
		sc.outs = pool.GrowZeroed(sc.outs, len(c.marks))
		st.outs[i] = sc.outs
	}
	if st.timed {
		st.applyStart = time.Now()
	}
	return st
}

// NumMarks returns the number of HF/VF applications the phase performs.
func (st *Step) NumMarks() int {
	if st.skip {
		return 0
	}
	return st.offs[len(st.offs)-1]
}

// locate maps a flat mark index to (core, in-core index). Sequential access
// hits the cached cursor; random access falls back to binary search.
func (st *Step) locate(i int) (int, int) {
	c := st.cur
	if i < st.offs[c] || i >= st.offs[c+1] {
		c = sort.Search(len(st.offs)-1, func(k int) bool { return st.offs[k+1] > i })
		st.cur = c
	}
	return c, i - st.offs[c]
}

// Mark returns the i-th application's source and destination element ids in
// the instance graph's id space (vertex→hyperedge for hyperedge-computation
// phases, hyperedge→vertex for vertex-computation phases).
func (st *Step) Mark(i int) (src, dst uint32) {
	c, j := st.locate(i)
	m := st.cc[c].marks[j]
	return m.src, m.dst
}

// Resolve records the i-th application's outcome: res is the EdgeResult the
// algorithm returned, first whether this application activated dst for the
// first time this phase in this instance's destination frontier. The driver
// owns the frontier bitmap and its test-and-set discipline (Run and the
// shard coordinator both pass res&Activate != 0 && next.TestAndSet(dst)).
func (st *Step) Resolve(i int, res algorithms.EdgeResult, first bool) {
	c, j := st.locate(i)
	st.outs[c][j] = edgeOutcome{res: res, first: res&algorithms.Activate != 0 && first}
	st.r.res.EdgesProcessed++
}

// stitch is pass 3: insert the outcome-dependent ops into each core's
// stream and return the finished agents, without simulating them.
func (st *Step) stitch() []*system.Agent {
	if st.skip {
		return nil
	}
	r, ph := st.r, st.ph
	if st.timed {
		r.hostApply = time.Since(st.applyStart)
	}
	// The destination frontier needs bitmap maintenance unless it ends the
	// phase all-active: an all-active frontier is consumed by a dense phase
	// that never reads the bitmap (§VI-C), so only then is its update
	// traffic elided. Keying this on the destination side — not on the
	// source frontier's density — means a dense-source phase producing a
	// sparse next frontier still pays for the bitmap writes its successor
	// phase will scan.
	maintainNext := ph.next.Count() != uint64(ph.dstN)

	var t0 time.Time
	if st.timed {
		t0 = time.Now()
	}
	r.curPh, r.curMaintain = ph, maintainNext
	par.For(r.opt.Workers, len(st.cc), r.stitchBody)
	agents := r.scratch.agents[:0]
	for _, c := range st.cc {
		agents = append(agents, c.agents...)
	}
	r.scratch.agents = agents
	if st.timed {
		r.hostStitch = time.Since(t0)
	}
	return agents
}

// Commit stitches the resolved outcomes into the op streams and replays the
// phase on the simulated system, returning the phase's simulated duration
// (its critical path, already added to the instance clock). Every mark must
// have been resolved first.
func (st *Step) Commit() uint64 {
	if st.skip {
		return 0
	}
	agents := st.stitch()
	r, ph := st.r, st.ph
	var t0 time.Time
	if st.timed {
		t0 = time.Now()
	}
	dur := r.sys.RunPhase(agents)
	after := r.sys.Hier.Mem().AccessesByArray()
	for a := range after {
		r.res.MemByPhase[ph.idx][a] += after[a] - st.before[a]
	}
	if st.timed {
		r.endSnapshot(&st.snap, ph, dur, time.Since(t0))
		r.obs.PhaseDone(st.snap)
	}
	return dur
}

// drainStep is the engine's own mark driver (historical pass 2): apply fn to
// every mark in stream order, strictly sequentially, maintaining the phase's
// destination frontier via test-and-set.
func drainStep(st *Step, s *algorithms.State, fn edgeFunc, next bitset.Bitmap) {
	n := st.NumMarks()
	for i := 0; i < n; i++ {
		src, dst := st.Mark(i)
		res := fn(s, src, dst)
		st.Resolve(i, res, res&algorithms.Activate != 0 && next.TestAndSet(dst))
	}
}
