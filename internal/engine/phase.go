package engine

import (
	"context"
	"fmt"
	"time"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	chg "chgraph/internal/chgraph"
	"chgraph/internal/core"
	"chgraph/internal/hats"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/par"
	"chgraph/internal/pool"
	"chgraph/internal/sim/system"
	"chgraph/internal/trace"
)

var lay trace.Layout

// oagAddr maps an OAG element to an address, keeping the two sides' OAGs in
// disjoint halves of the OAG regions.
func oagAddr(arr trace.Array, side int, idx uint32) uint64 {
	const sideStride = uint64(1) << 33
	return lay.Addr(arr, uint64(side)*sideStride+uint64(idx))
}

type runner struct {
	g    *hypergraph.Bipartite
	opt  Options
	prep *Prep
	sys  *system.System
	res  *Result

	// ctx is the instance's cancellation context (Background for
	// uncancellable runs; nil — treated as never-cancelled — for runners
	// constructed directly by op-stream tests). The compile fan-outs poll it
	// so a cancelled run stops dispatching chunk work promptly; beginStep
	// discards anything compiled under a cancelled context.
	ctx context.Context

	// iter is the synchronous iteration the engine is in, advanced by
	// Instance.AdvanceIteration. The engine holds no algorithm state: HF/VF
	// are applied by whoever drives the Instance (Drive, against the one
	// global State of a run).
	iter int

	// scratch is the reuse arena every per-phase buffer lives in,
	// including the §VI-B chain memoization cache. Borrowed from the
	// Prep's pool at instance creation, returned by Instance.Finish;
	// lazily created for runners built without one (op-stream tests).
	scratch *runScratch

	// step is the one live Step the instance hands out; its buffers alias
	// the scratch, so beginStep recycles rather than allocates it.
	step Step

	// phs holds the two prebuilt phase specs (index 0 = hyperedge
	// computation, 1 = vertex computation); Begin* only swaps the frontier
	// bitmaps in, so the spec (and its CSR accessor closures) is built
	// once per instance instead of once per phase.
	phs [2]phaseSpec

	// Fan-out state + prebuilt bodies: the parallel compile passes run
	// fixed closures built once (lazily) per runner, reading their
	// per-phase inputs from these fields. This keeps the steady-state
	// phase path free of closure allocations for every worker count.
	curPh       *phaseSpec
	curCC       []*compiledCore
	curCSS      []core.ChainSet
	curReplayed bool
	curMaintain bool
	genBody     func(int)
	compileBody func(int)
	stitchBody  func(int)

	// Observability (nil obs = zero-overhead fast path). seq numbers
	// observed phases; lastReplayed and the host pass times are scratch
	// written by the compile/apply/stitch passes for the phase snapshot.
	obs          obs.Observer
	seq          int
	lastReplayed bool
	hostCompile  time.Duration
	hostApply    time.Duration
	hostStitch   time.Duration
}

// ctxErr reports the runner's cancellation state; a nil ctx never cancels.
func (r *runner) ctxErr() error {
	if r.ctx == nil {
		return nil
	}
	return r.ctx.Err()
}

type chainCacheEntry struct {
	valid    bool
	frontier bitset.Bitmap
	css      []core.ChainSet // per chunk
}

// chains returns the per-chunk chain schedules for this phase, generating
// them (with visitor instrumentation via the runner's genBody) or replaying
// the cached ones. Generation fans out across Options.Workers goroutines —
// each chunk walks its own recycled frontier copy, so chunks are
// independent. replayed reports whether generation was skipped.
// ChainCount/ChainNodes accumulate on every call (the schedule runs this
// phase whether fresh or replayed, keeping the stats consistent with
// EdgesProcessed); ChainGenCount/ChainGenNodes accumulate only on fresh
// generation. The cache entry and every ChainSet in it are scratch-owned:
// generation truncates and refills them in place.
func (r *runner) chains(ph *phaseSpec) (css []core.ChainSet, replayed bool) {
	cc := &r.scratch.chainCache[ph.idx]
	if cc.valid && bitmapsEqual(cc.frontier, ph.frontier) {
		css, replayed = cc.css, true
	} else {
		cc.valid = false
		cc.css = pool.Grow(cc.css, len(ph.chunks))
		r.curCSS = cc.css
		err := par.ForCtx(r.ctx, r.opt.Workers, len(ph.chunks), r.genBody)
		if err != nil {
			// Cancelled mid-generation: css is partial garbage. Don't count
			// or cache it (cc stays invalid); beginStep discards the whole
			// compile.
			r.lastReplayed = false
			return cc.css, false
		}
		css = cc.css
		for i := range css {
			r.res.ChainGenCount += uint64(css[i].NumChains())
			r.res.ChainGenNodes += uint64(len(css[i].Queue))
		}
		cc.frontier.CopyFrom(ph.frontier)
		cc.valid = true
	}
	for i := range css {
		r.res.ChainCount += uint64(css[i].NumChains())
		r.res.ChainNodes += uint64(len(css[i].Queue))
	}
	r.lastReplayed = replayed
	return css, replayed
}

func bitmapsEqual(a, b bitset.Bitmap) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chainQueueAddr addresses the in-memory chain-queue array used when
// replaying a memoized schedule (stored once, streamed sequentially).
func chainQueueAddr(side int, idx uint64) uint64 {
	const sideStride = uint64(1) << 33
	return lay.Addr(trace.Other, uint64(side)*sideStride+idx)
}

// beginSnapshot captures the cumulative counters a phase snapshot is
// computed against (endSnapshot turns them into deltas).
func (r *runner) beginSnapshot(phaseIdx int, frontier uint64) obs.PhaseSnapshot {
	snap := obs.PhaseSnapshot{
		Seq:             r.seq,
		Iteration:       r.iter,
		Phase:           phaseIdx,
		Engine:          r.opt.Kind.String(),
		Frontier:        frontier,
		CoreCycles:      r.sys.CoreCycles,
		MemStallCycles:  r.sys.MemStallCycles,
		FifoStallCycles: r.sys.FifoStallCycles,
		MemReads:        r.sys.Hier.Mem().Reads,
		MemWrites:       r.sys.Hier.Mem().Writes,
		EdgesProcessed:  r.res.EdgesProcessed,
		ChainCount:      r.res.ChainCount,
		ChainNodes:      r.res.ChainNodes,
		ChainGenCount:   r.res.ChainGenCount,
		ChainGenNodes:   r.res.ChainGenNodes,
	}
	snap.L1Hits, snap.L1Misses, snap.L2Hits, snap.L2Misses, snap.L3Hits, snap.L3Misses = r.sys.Hier.CacheStats()
	r.seq++
	return snap
}

// endSnapshot converts the begin-state counters held in snap into phase
// deltas and fills in the phase's own measurements.
func (r *runner) endSnapshot(snap *obs.PhaseSnapshot, ph *phaseSpec, dur uint64, simWall time.Duration) {
	snap.Dense = ph.dense
	snap.Replayed = r.lastReplayed
	snap.Cycles = dur
	snap.CoreCycles = r.sys.CoreCycles - snap.CoreCycles
	snap.MemStallCycles = r.sys.MemStallCycles - snap.MemStallCycles
	snap.FifoStallCycles = r.sys.FifoStallCycles - snap.FifoStallCycles
	mem := r.sys.Hier.Mem()
	for a := range snap.MemReads {
		snap.MemReads[a] = mem.Reads[a] - snap.MemReads[a]
		snap.MemWrites[a] = mem.Writes[a] - snap.MemWrites[a]
	}
	l1h, l1m, l2h, l2m, l3h, l3m := r.sys.Hier.CacheStats()
	snap.L1Hits = l1h - snap.L1Hits
	snap.L1Misses = l1m - snap.L1Misses
	snap.L2Hits = l2h - snap.L2Hits
	snap.L2Misses = l2m - snap.L2Misses
	snap.L3Hits = l3h - snap.L3Hits
	snap.L3Misses = l3m - snap.L3Misses
	snap.EdgesProcessed = r.res.EdgesProcessed - snap.EdgesProcessed
	snap.ChainCount = r.res.ChainCount - snap.ChainCount
	snap.ChainNodes = r.res.ChainNodes - snap.ChainNodes
	snap.ChainGenCount = r.res.ChainGenCount - snap.ChainGenCount
	snap.ChainGenNodes = r.res.ChainGenNodes - snap.ChainGenNodes
	snap.HostCompile = r.hostCompile
	snap.HostApply = r.hostApply
	snap.HostStitch = r.hostStitch
	snap.HostSim = simWall
}

// edgeMark defers one HF/VF application discovered during compilation: the
// applyEdge ops (destination value write, next-frontier bitmap update) are
// inserted at position pos of the core's op stream once the application's
// outcome is known.
type edgeMark struct {
	pos      int // core ops preceding the application
	src, dst uint32
}

// edgeOutcome records what one deferred application did.
type edgeOutcome struct {
	res   algorithms.EdgeResult
	first bool // first activation of dst this phase
}

// compiledCore is pass 1's output for one core: every agent fully compiled
// except the core agent (always last in agents), whose final Ops are
// assembled in pass 3 from coreOps, marks and the per-edge outcomes.
type compiledCore struct {
	agents  []*system.Agent
	coreOps []trace.Op
	marks   []edgeMark
}

// compileStreams is pass 1 of the phase compiler: every core's chain
// generation and memory-op stream compiles concurrently (bounded by
// Options.Workers). Each chunk works only on per-core buffers — its own op
// slices, edge-mark list, and a scratch clone of the frontier bitmap for
// chain generation — so there is no shared mutable state and the pass is
// race-free. The algorithm's HF/VF work (historical pass 2) is applied by
// the Step's driver against the recorded edge marks, strictly sequentially;
// Step.Commit then stitches the outcome-dependent ops into the streams
// (pass 3). Because the driver preserves the serial application order and
// passes 1 and 3 touch only per-core data, the functional result and the
// compiled op streams are byte-for-byte identical for every Workers setting.
func (r *runner) compileStreams(ph *phaseSpec) []*compiledCore {
	ph.idx = 0
	if ph.srcBm == bmHyperedge {
		ph.idx = 1
	}
	// All-active regime (e.g. PageRank): no source-frontier scanning is
	// needed — §VI-C: "Since all data are always active for PageRank,
	// there is no need to access the bitmap".
	ph.dense = ph.frontier.Count() == uint64(ph.srcN)

	// Host pass timing (observer-only): pass 1 includes chain generation.
	timed := r.obs != nil
	var t0 time.Time
	if timed {
		r.lastReplayed = false
		t0 = time.Now()
	}

	// All fan-outs poll the instance context: a cancelled run stops
	// dispatching chunks and returns whatever partial cc it has, which
	// beginStep then discards wholesale (the error itself is re-derived from
	// r.ctx there). Chain-driven kinds additionally bail between generation
	// and stream compilation.
	n := len(ph.chunks)
	cc := pool.GrowZeroed(r.scratch.ccRefs, n)
	r.scratch.ccRefs = cc
	r.curPh, r.curCC = ph, cc
	switch r.opt.Kind {
	case GLA, ChGraph, ChGraphHCG:
		css, replayed := r.chains(ph)
		if r.ctxErr() != nil {
			return cc
		}
		r.curCSS, r.curReplayed = css, replayed
	}
	_ = par.ForCtx(r.ctx, r.opt.Workers, n, r.compileBody)

	if timed {
		r.hostCompile = time.Since(t0)
	}
	return cc
}

// initBodies builds the runner's fan-out closures once: they capture only
// the runner and read their per-phase inputs from its cur* fields, so the
// per-phase hot path creates no new closures.
func (r *runner) initBodies() {
	switch r.opt.Kind {
	case Hygra:
		r.compileBody = func(i int) { r.curCC[i] = r.compileHygra(r.curPh, i, false) }
	case HygraPF:
		r.compileBody = func(i int) { r.curCC[i] = r.compileHygra(r.curPh, i, true) }
	case GLA:
		r.compileBody = func(i int) { r.curCC[i] = r.compileGLA(r.curPh, i, r.curCSS[i], r.curReplayed) }
	case ChGraph:
		r.compileBody = func(i int) { r.curCC[i] = r.compileChGraph(r.curPh, i, r.curCSS[i], r.curReplayed, true) }
	case ChGraphHCG:
		r.compileBody = func(i int) { r.curCC[i] = r.compileChGraph(r.curPh, i, r.curCSS[i], r.curReplayed, false) }
	case HATSV:
		r.compileBody = func(i int) { r.curCC[i] = r.compileHATSV(r.curPh, i) }
	default:
		panic(fmt.Sprintf("engine: unknown kind %v", r.opt.Kind))
	}
	r.genBody = func(i int) {
		ph := r.curPh
		ch := ph.chunks[i]
		sc := &r.scratch.cores[i]
		var vis core.Visitor
		switch r.opt.Kind {
		case GLA:
			v := &sc.sw
			v.ops, v.side, v.bm = v.ops[:0], ph.srcBm, ph.srcBm
			vis = v
		case ChGraph, ChGraphHCG:
			v := &sc.hw
			v.ops, v.side, v.bm = v.ops[:0], ph.srcBm, ph.srcBm
			vis = v
		}
		sc.frontier.CopyFrom(ph.frontier)
		sc.gen.GenerateInto(&r.curCSS[i], ph.og, ch.Lo, ch.Hi, &sc.frontier, r.opt.DMax, vis)
	}
	r.stitchBody = func(i int) {
		st := &r.step
		c := st.cc[i]
		coreAgent := c.agents[len(c.agents)-1]
		if len(c.marks) == 0 {
			coreAgent.Ops = c.coreOps
			return
		}
		sc := &r.scratch.cores[i]
		sc.stitched = stitchInto(sc.stitched[:0], r.curPh, c.coreOps, c.marks, st.outs[i], r.curMaintain)
		coreAgent.Ops = sc.stitched
	}
}

// ensureScratch attaches (or lazily creates) the runner's scratch arena,
// sizes it for n cores, and builds the fan-out bodies on first use.
func (r *runner) ensureScratch(n int) {
	if r.scratch == nil {
		r.scratch = &runScratch{}
	}
	r.scratch.ensure(n)
	if r.compileBody == nil {
		r.initBodies()
	}
}

// stitchInto inserts each deferred application's ops (value write when the
// algorithm wrote, next-frontier bitmap write on first activation) at its
// recorded position in the core's op stream, appending into out (pass a
// recycled buffer truncated to zero; marks must be non-empty — the caller
// uses ops directly otherwise).
func stitchInto(out []trace.Op, ph *phaseSpec, ops []trace.Op, marks []edgeMark, outs []edgeOutcome, maintainNext bool) []trace.Op {
	mi := 0
	for i := 0; i <= len(ops); i++ {
		for mi < len(marks) && marks[mi].pos == i {
			m, o := marks[mi], outs[mi]
			if o.res&algorithms.Wrote != 0 {
				out = append(out, trace.Op{Addr: lay.Addr(ph.dstValArr, uint64(m.dst)), Arr: ph.dstValArr, Flags: trace.FlagWrite})
			}
			if o.first && maintainNext {
				out = append(out, trace.Op{Addr: lay.BitmapAddr(ph.dstBm, uint64(m.dst)), Arr: trace.Bitmap, Flags: trace.FlagWrite})
			}
			mi++
		}
		if i < len(ops) {
			out = append(out, ops[i])
		}
	}
	return out
}

// emitScan appends dense frontier-bitmap scan ops for chunk [lo, hi).
func emitScan(ops []trace.Op, side int, lo, hi uint32) []trace.Op {
	if hi <= lo {
		return ops
	}
	for w := lo / 64; w <= (hi-1)/64; w++ {
		ops = append(ops, trace.Op{Addr: lay.BitmapAddr(side, uint64(w)*64), Arr: trace.Bitmap, Compute: costScan})
	}
	return ops
}

// compileHygra compiles one core of the index-ordered baseline: a core
// agent per chunk, optionally preceded by an event-triggered indirect
// prefetcher agent (Figure 23) that runs ahead at the L2 and gates the
// core's value loads through a run-ahead FIFO.
func (r *runner) compileHygra(ph *phaseSpec, coreID int, prefetch bool) *compiledCore {
	ch := ph.chunks[coreID]
	sc := &r.scratch.cores[coreID]
	sc.bindCursors(ph)
	out := &sc.cc
	out.agents = out.agents[:0]
	out.marks = out.marks[:0]
	ops := sc.coreBuf[:0]
	if !ph.dense {
		ops = emitScan(ops, ph.srcBm, ch.Lo, ch.Hi)
	}
	pfOps := sc.engA[:0]
	var popFlag trace.OpFlags
	if prefetch {
		popFlag = trace.FlagPopTuple
	}
	ph.frontier.ForEachSet(ch.Lo, ch.Hi, func(e uint32) {
		ops = append(ops,
			trace.Op{Addr: lay.Addr(ph.offArr, uint64(e)), Arr: ph.offArr, Compute: costElement},
			trace.Op{Addr: lay.Addr(ph.srcValArr, uint64(e)), Arr: ph.srcValArr})
		if prefetch {
			pfOps = append(pfOps, trace.Op{Addr: lay.Addr(ph.offArr, uint64(e)), Arr: ph.offArr, Flags: trace.FlagPrefetch | trace.FlagL2})
		}
		base := ph.offset(e)
		for i, d := range sc.adjCur.List(e) {
			if prefetch {
				pfOps = append(pfOps,
					trace.Op{Addr: lay.Addr(ph.incArr, uint64(base)+uint64(i)), Arr: ph.incArr, Flags: trace.FlagPrefetch | trace.FlagL2},
					trace.Op{Addr: lay.Addr(ph.dstValArr, uint64(d)), Arr: ph.dstValArr, Flags: trace.FlagPrefetch | trace.FlagL2 | trace.FlagPushTuple})
			}
			ops = append(ops,
				trace.Op{Addr: lay.Addr(ph.incArr, uint64(base)+uint64(i)), Arr: ph.incArr},
				trace.Op{Addr: lay.Addr(ph.dstValArr, uint64(d)), Arr: ph.dstValArr, Compute: costApply, Flags: popFlag})
			out.marks = append(out.marks, edgeMark{pos: len(ops), src: e, dst: d})
		}
	})
	coreAgent := &sc.agentBuf[0]
	*coreAgent = system.Agent{
		Name: sc.names.core, Core: coreID,
		MLP: r.opt.Sys.CoreMLP, IsCore: true,
	}
	if prefetch {
		fifo, _ := sc.fifos()
		fifo.Reset(sc.names.pf, prefetchDistance)
		pf := &sc.agentBuf[1]
		*pf = system.Agent{
			Name: sc.names.pf, Core: coreID, Ops: pfOps,
			Engine: true, MLP: r.opt.Sys.PrefetchMLP, Out: fifo,
		}
		coreAgent.In = fifo
		out.agents = append(out.agents, pf)
	}
	out.agents = append(out.agents, coreAgent)
	out.coreOps = ops
	sc.coreBuf, sc.engA = ops, pfOps
	return out
}

// swVisitor emits the software GLA chain-generation ops inline into the
// core's stream, charging per-visit instruction overheads (Figure 3).
type swVisitor struct {
	ops  []trace.Op
	side int // OAG side index for address disambiguation
	bm   int
}

func (v *swVisitor) RootScan(word uint32) {
	v.ops = append(v.ops, trace.Op{Addr: lay.BitmapAddr(v.bm, uint64(word)*64), Arr: trace.Bitmap, Compute: costScan})
}
func (v *swVisitor) Select(node uint32) {
	v.ops = append(v.ops, trace.Op{Addr: lay.BitmapAddr(v.bm, uint64(node)), Arr: trace.Bitmap, Flags: trace.FlagWrite, Compute: costSWSelect})
}
func (v *swVisitor) Offsets(node uint32) {
	v.ops = append(v.ops, trace.Op{Addr: oagAddr(trace.OAGOffset, v.side, node), Arr: trace.OAGOffset, Compute: 1})
}
func (v *swVisitor) Inspect(csr, nb uint32) {
	v.ops = append(v.ops,
		trace.Op{Addr: oagAddr(trace.OAGEdge, v.side, csr), Arr: trace.OAGEdge, Compute: costSWInspect},
		trace.Op{Addr: lay.BitmapAddr(v.bm, uint64(nb)), Arr: trace.Bitmap})
}
func (v *swVisitor) ChainEnd() {}

// compileGLA compiles one core of the software chain-driven model: chain
// generation and the chain-ordered load/apply run serially on the core.
func (r *runner) compileGLA(ph *phaseSpec, coreID int, cs core.ChainSet, replayed bool) *compiledCore {
	ch := ph.chunks[coreID]
	sc := &r.scratch.cores[coreID]
	sc.bindCursors(ph)
	out := &sc.cc
	out.agents = out.agents[:0]
	out.marks = out.marks[:0]
	var ops []trace.Op
	if replayed {
		// Stream the memoized chain queue from memory.
		ops = sc.engA[:0]
		for i := range cs.Queue {
			ops = append(ops, trace.Op{Addr: chainQueueAddr(ph.srcBm, uint64(ch.Lo)+uint64(i)), Arr: trace.Other, Compute: 1})
		}
	} else {
		// The software model interleaves generation with the load/apply
		// work, so the core stream extends the visitor's buffer in place.
		ops = sc.sw.ops
	}
	for _, e := range cs.Queue {
		ops = append(ops,
			trace.Op{Addr: lay.Addr(ph.offArr, uint64(e)), Arr: ph.offArr, Compute: costElement},
			trace.Op{Addr: lay.Addr(ph.srcValArr, uint64(e)), Arr: ph.srcValArr})
		base := ph.offset(e)
		for i, d := range sc.adjCur.List(e) {
			ops = append(ops,
				trace.Op{Addr: lay.Addr(ph.incArr, uint64(base)+uint64(i)), Arr: ph.incArr, Compute: costSWLoad},
				trace.Op{Addr: lay.Addr(ph.dstValArr, uint64(d)), Arr: ph.dstValArr, Compute: costApply})
			out.marks = append(out.marks, edgeMark{pos: len(ops), src: e, dst: d})
		}
	}
	coreAgent := &sc.agentBuf[0]
	*coreAgent = system.Agent{
		Name: sc.names.core, Core: coreID,
		MLP: r.opt.Sys.CoreMLP, IsCore: true,
	}
	out.agents = append(out.agents, coreAgent)
	out.coreOps = ops
	if replayed {
		sc.engA = ops
	} else {
		sc.sw.ops = ops
	}
	return out
}

// hwVisitor emits the hardware chain generator's pipeline ops (§V-B): all
// accesses enter at the L2 and every selected node is pushed into the chain
// FIFO.
type hwVisitor struct {
	ops  []trace.Op
	side int
	bm   int
}

func (v *hwVisitor) RootScan(word uint32) {
	v.ops = append(v.ops, trace.Op{Addr: lay.BitmapAddr(v.bm, uint64(word)*64), Arr: trace.Bitmap, Flags: trace.FlagL2, Compute: costHWStage})
}
func (v *hwVisitor) Select(node uint32) {
	v.ops = append(v.ops, trace.Op{Addr: lay.BitmapAddr(v.bm, uint64(node)), Arr: trace.Bitmap,
		Flags: trace.FlagL2 | trace.FlagWrite | trace.FlagPushChain, Compute: costHWStage})
}
func (v *hwVisitor) Offsets(node uint32) {
	v.ops = append(v.ops, trace.Op{Addr: oagAddr(trace.OAGOffset, v.side, node), Arr: trace.OAGOffset, Flags: trace.FlagL2, Compute: costHWStage})
}
func (v *hwVisitor) Inspect(csr, nb uint32) {
	v.ops = append(v.ops,
		trace.Op{Addr: oagAddr(trace.OAGEdge, v.side, csr), Arr: trace.OAGEdge, Flags: trace.FlagL2, Compute: costHWStage},
		trace.Op{Addr: lay.BitmapAddr(v.bm, uint64(nb)), Arr: trace.Bitmap, Flags: trace.FlagL2, Compute: costHWStage})
}
func (v *hwVisitor) ChainEnd() {}

// compileChGraph compiles one core of the hardware-accelerated model: an
// HCG agent generates chains into the chain FIFO; with the prefetcher
// enabled a CP agent streams each element's bipartite edges and value data
// into the bipartite-edge FIFO so the core only applies updates; without it
// (Figure 16 HCG-only ablation) the core pops chain entries and performs
// its own loads.
func (r *runner) compileChGraph(ph *phaseSpec, coreID int, cs core.ChainSet, replayed, withCP bool) *compiledCore {
	ch := ph.chunks[coreID]
	sc := &r.scratch.cores[coreID]
	sc.bindCursors(ph)
	out := &sc.cc
	out.agents = out.agents[:0]
	out.marks = out.marks[:0]
	var hcgOps []trace.Op
	if replayed {
		// Replay the memoized chain queue: the HCG streams it from
		// memory straight into the chain FIFO.
		hcgOps = sc.engA[:0]
		for i := range cs.Queue {
			hcgOps = append(hcgOps, trace.Op{Addr: chainQueueAddr(ph.srcBm, uint64(ch.Lo)+uint64(i)), Arr: trace.Other,
				Flags: trace.FlagL2 | trace.FlagPushChain, Compute: costHWStage})
		}
	} else {
		hcgOps = sc.hw.ops
	}
	hcgOps = append(hcgOps, trace.Op{Flags: trace.FlagNoMem | trace.FlagPushChain}) // the '-1' sentinel
	if replayed {
		sc.engA = hcgOps
	} else {
		sc.hw.ops = hcgOps
	}
	chainFIFO, edgeFIFO := sc.fifos()
	chainFIFO.Reset(sc.names.chain, chg.ChainFIFOEntries)

	hcg := &sc.agentBuf[1]
	*hcg = system.Agent{
		Name: sc.names.hcg, Core: coreID, Ops: hcgOps,
		Engine: true, MLP: r.opt.Sys.EngineMLP, Out: chainFIFO,
	}

	coreOps := sc.coreBuf[:0]
	if withCP {
		cpOps := sc.engB[:0]
		edgeFIFO.Reset(sc.names.bedge, chg.EdgeFIFOEntries)
		for _, e := range cs.Queue {
			cpOps = append(cpOps,
				trace.Op{Flags: trace.FlagNoMem | trace.FlagPopChain, Compute: costHWStage},
				trace.Op{Addr: lay.Addr(ph.offArr, uint64(e)), Arr: ph.offArr, Flags: trace.FlagL2, Compute: costHWStage},
				trace.Op{Addr: lay.Addr(ph.srcValArr, uint64(e)), Arr: ph.srcValArr, Flags: trace.FlagL2, Compute: costHWStage})
			base := ph.offset(e)
			for i, d := range sc.adjCur.List(e) {
				cpOps = append(cpOps,
					trace.Op{Addr: lay.Addr(ph.incArr, uint64(base)+uint64(i)), Arr: ph.incArr, Flags: trace.FlagL2, Compute: costHWStage},
					trace.Op{Addr: lay.Addr(ph.dstValArr, uint64(d)), Arr: ph.dstValArr, Flags: trace.FlagL2 | trace.FlagPushTuple, Compute: costHWStage})
				coreOps = append(coreOps, trace.Op{Flags: trace.FlagNoMem | trace.FlagPopTuple, Compute: costApply})
				out.marks = append(out.marks, edgeMark{pos: len(coreOps), src: e, dst: d})
			}
		}
		// CP pops the HCG sentinel, then emits the fake tuple that
		// suspends the core (§V-B).
		cpOps = append(cpOps,
			trace.Op{Flags: trace.FlagNoMem | trace.FlagPopChain, Compute: costHWStage},
			trace.Op{Flags: trace.FlagNoMem | trace.FlagPushTuple, Compute: costHWStage})
		coreOps = append(coreOps, trace.Op{Flags: trace.FlagNoMem | trace.FlagPopTuple})
		cp := &sc.agentBuf[2]
		*cp = system.Agent{
			Name: sc.names.cp, Core: coreID, Ops: cpOps,
			Engine: true, MLP: r.opt.Sys.PrefetchMLP, In: chainFIFO, Out: edgeFIFO,
		}
		coreAgent := &sc.agentBuf[0]
		*coreAgent = system.Agent{
			Name: sc.names.core, Core: coreID,
			MLP: r.opt.Sys.CoreMLP, IsCore: true, In: edgeFIFO,
		}
		out.agents = append(out.agents, hcg, cp, coreAgent)
		out.coreOps = coreOps
		sc.coreBuf, sc.engB = coreOps, cpOps
		return out
	}

	// HCG-only: the core consumes chain entries and loads data itself.
	for _, e := range cs.Queue {
		coreOps = append(coreOps,
			trace.Op{Flags: trace.FlagNoMem | trace.FlagPopChain, Compute: costElement},
			trace.Op{Addr: lay.Addr(ph.offArr, uint64(e)), Arr: ph.offArr},
			trace.Op{Addr: lay.Addr(ph.srcValArr, uint64(e)), Arr: ph.srcValArr})
		base := ph.offset(e)
		for i, d := range sc.adjCur.List(e) {
			coreOps = append(coreOps,
				trace.Op{Addr: lay.Addr(ph.incArr, uint64(base)+uint64(i)), Arr: ph.incArr},
				trace.Op{Addr: lay.Addr(ph.dstValArr, uint64(d)), Arr: ph.dstValArr, Compute: costApply})
			out.marks = append(out.marks, edgeMark{pos: len(coreOps), src: e, dst: d})
		}
	}
	coreOps = append(coreOps, trace.Op{Flags: trace.FlagNoMem | trace.FlagPopChain})
	coreAgent := &sc.agentBuf[0]
	*coreAgent = system.Agent{
		Name: sc.names.core, Core: coreID,
		MLP: r.opt.Sys.CoreMLP, IsCore: true, In: chainFIFO,
	}
	out.agents = append(out.agents, hcg, coreAgent)
	out.coreOps = coreOps
	sc.coreBuf = coreOps
	return out
}

// compileHATSV compiles one core of the modified-HATS baseline of §II-C: a
// per-core traversal engine runs bounded DFS over the bipartite structure
// itself (two bipartite hops per neighbor probe, no overlap weights) and
// feeds the schedule to the core, which performs its own loads.
func (r *runner) compileHATSV(ph *phaseSpec, coreID int) *compiledCore {
	ch := ph.chunks[coreID]
	sc := &r.scratch.cores[coreID]
	sc.bindCursors(ph)
	out := &sc.cc
	out.agents = out.agents[:0]
	out.marks = out.marks[:0]
	vis := &sc.hv
	vis.ops, vis.ph = vis.ops[:0], ph
	sc.frontier.CopyFrom(ph.frontier)
	sched := hats.GenerateInto(sc.sched, hats.Input{
		Offset: ph.offset, Neighbors: sc.hatsNbrs,
		BackOffset: ph.backOffset, BackNeighbors: sc.hatsBack,
		Lo: ch.Lo, Hi: ch.Hi, Active: sc.frontier, DMax: r.opt.DMax,
	}, vis)
	sc.sched = sched
	hatsOps := append(vis.ops, trace.Op{Flags: trace.FlagNoMem | trace.FlagPushChain})
	vis.ops = hatsOps
	fifo, _ := sc.fifos()
	fifo.Reset(sc.names.hats, chg.ChainFIFOEntries)
	eng := &sc.agentBuf[1]
	*eng = system.Agent{
		Name: sc.names.hats, Core: coreID, Ops: hatsOps,
		Engine: true, MLP: r.opt.Sys.EngineMLP, Out: fifo,
	}
	out.agents = append(out.agents, eng)

	coreOps := sc.coreBuf[:0]
	for _, e := range sched {
		coreOps = append(coreOps,
			trace.Op{Flags: trace.FlagNoMem | trace.FlagPopChain, Compute: costElement},
			trace.Op{Addr: lay.Addr(ph.offArr, uint64(e)), Arr: ph.offArr},
			trace.Op{Addr: lay.Addr(ph.srcValArr, uint64(e)), Arr: ph.srcValArr})
		base := ph.offset(e)
		for i, d := range sc.adjCur.List(e) {
			coreOps = append(coreOps,
				trace.Op{Addr: lay.Addr(ph.incArr, uint64(base)+uint64(i)), Arr: ph.incArr},
				trace.Op{Addr: lay.Addr(ph.dstValArr, uint64(d)), Arr: ph.dstValArr, Compute: costApply})
			out.marks = append(out.marks, edgeMark{pos: len(coreOps), src: e, dst: d})
		}
	}
	coreOps = append(coreOps, trace.Op{Flags: trace.FlagNoMem | trace.FlagPopChain})
	coreAgent := &sc.agentBuf[0]
	*coreAgent = system.Agent{
		Name: sc.names.core, Core: coreID,
		MLP: r.opt.Sys.CoreMLP, IsCore: true, In: fifo,
	}
	out.agents = append(out.agents, coreAgent)
	out.coreOps = coreOps
	sc.coreBuf = coreOps
	return out
}

// hatsVisitor emits the HATS engine's traversal ops: it walks the bipartite
// CSR directly (offset + incident arrays of both sides) instead of an OAG.
type hatsVisitor struct {
	ops []trace.Op
	ph  *phaseSpec
}

func (v *hatsVisitor) RootScan(word uint32) {
	v.ops = append(v.ops, trace.Op{Addr: lay.BitmapAddr(v.ph.srcBm, uint64(word)*64), Arr: trace.Bitmap, Flags: trace.FlagL2, Compute: costHWStage})
}
func (v *hatsVisitor) Select(node uint32) {
	v.ops = append(v.ops, trace.Op{Addr: lay.BitmapAddr(v.ph.srcBm, uint64(node)), Arr: trace.Bitmap,
		Flags: trace.FlagL2 | trace.FlagWrite | trace.FlagPushChain, Compute: costHWStage})
}
func (v *hatsVisitor) SrcOffsets(node uint32) {
	v.ops = append(v.ops, trace.Op{Addr: lay.Addr(v.ph.offArr, uint64(node)), Arr: v.ph.offArr, Flags: trace.FlagL2, Compute: costHWStage})
}
func (v *hatsVisitor) SrcEdge(csr uint32) {
	v.ops = append(v.ops, trace.Op{Addr: lay.Addr(v.ph.incArr, uint64(csr)), Arr: v.ph.incArr, Flags: trace.FlagL2, Compute: costHWStage})
}
func (v *hatsVisitor) MidOffsets(mid uint32) {
	v.ops = append(v.ops, trace.Op{Addr: lay.Addr(v.ph.backOffArr, uint64(mid)), Arr: v.ph.backOffArr, Flags: trace.FlagL2, Compute: costHWStage})
}
func (v *hatsVisitor) MidEdge(csr uint32, nb uint32) {
	v.ops = append(v.ops,
		trace.Op{Addr: lay.Addr(v.ph.backIncArr, uint64(csr)), Arr: v.ph.backIncArr, Flags: trace.FlagL2, Compute: costHWStage},
		trace.Op{Addr: lay.BitmapAddr(v.ph.srcBm, uint64(nb)), Arr: trace.Bitmap, Flags: trace.FlagL2, Compute: costHWStage})
}
