package engine

import (
	"fmt"
	"sync"

	"chgraph/internal/bitset"
	"chgraph/internal/core"
	"chgraph/internal/hypergraph"
	"chgraph/internal/sim/system"
	"chgraph/internal/trace"
)

// runScratch is the per-instance reuse arena behind the allocation-free
// steady state (DESIGN.md §13). Every buffer the per-phase hot paths write —
// chain sets, compiled op streams, visitor streams, stitch output, FIFO
// rings, agent structs, frontier scratch bitmaps, mark outcomes — lives here
// and is recycled by truncation instead of being rebuilt each phase.
//
// Ownership rules:
//
//   - Exactly one runner owns a runScratch at a time. NewInstanceCtx borrows
//     one from the process-wide pool (arenas); Instance.Finish returns it.
//     Runners built without NewInstanceCtx (op-stream tests) lazily create
//     a private one.
//   - Within a run, at most one Step is live per instance: beginStep rewrites
//     the scratch wholesale, so a previous Step's marks, outcomes and agents
//     are invalid the moment the next phase begins. Drive (through its
//     backends), the dist worker and the op-stream tests all satisfy this
//     by construction.
//   - Parallel compile fan-outs touch only cores[i] for chunk i (par.For
//     dispatches every index to exactly one goroutine), so per-core scratch
//     needs no locking.
//   - The chain memoization cache (§VI-B) rides in the scratch but its
//     *validity* never crosses runs: putScratch invalidates both entries, so
//     a fresh run always regenerates chains — replay-vs-generate changes op
//     streams and simulated cycles, and a cache leak across runs would break
//     the bit-identical determinism contract. Only the underlying buffers
//     survive.
type runScratch struct {
	cores []coreScratch

	// sys is the recycled simulated system. NewInstanceCtx resets and
	// reuses it when the borrowed arena's system was built for the same
	// Config; otherwise it builds a fresh one (and the old is dropped).
	sys *system.System

	// chainCache memoizes per-side chain schedules within one run.
	chainCache [2]chainCacheEntry

	// ccRefs is the compiled-core pointer slice compileStreams returns.
	ccRefs []*compiledCore
	// agents is the stitch pass's concatenation buffer.
	agents []*system.Agent
	// offs/outs back the Step's mark bookkeeping.
	offs []int
	outs [][]edgeOutcome
}

// coreScratch is one core's compile-time buffers. Buffer roles:
//
//	engA  — engine stream A: replayed chain-queue streams, the HygraPF
//	        prefetcher stream;
//	engB  — engine stream B: the ChGraph CP stream;
//	coreBuf — the core agent's stream (except GLA, whose core stream
//	        extends the visitor/replay buffer in place, as the software
//	        model interleaves generation with the load/apply work);
//	stitched — pass 3's merged core stream when the phase has marks.
//
// The visitor structs own their op buffers; agentBuf slots are 0 = core,
// 1 = first engine (HCG / prefetcher / HATS), 2 = second engine (CP).
type coreScratch struct {
	cc   compiledCore
	sw   swVisitor
	hw   hwVisitor
	hv   hatsVisitor
	engA []trace.Op
	engB []trace.Op

	coreBuf  []trace.Op
	stitched []trace.Op
	outs     []edgeOutcome
	sched    []uint32
	frontier bitset.Bitmap
	gen      core.Generator

	agentBuf     [3]system.Agent
	fifoA, fifoB *system.FIFO

	// adjCur/backCur decode the phase's incidence lists for the compile
	// passes; hatsNbrs/hatsBack are their List method values, bound once so
	// handing them to hats.GenerateInto costs no per-phase allocation. Two
	// cursors, not one: HATS probing holds a forward list while it walks
	// back lists, and a cursor's List result dies on its next List call.
	// The cursors are pointers because growing the cores slice copies the
	// structs, and the method values must keep pointing at the live ones.
	adjCur, backCur    *hypergraph.AdjCursor
	hatsNbrs, hatsBack func(uint32) []uint32

	names coreNames
}

// coreNames precomputes the agent/FIFO diagnostic names, which depend only
// on the core index and were previously fmt.Sprintf'd every phase.
type coreNames struct {
	core, hcg, cp, pf, hats, chain, bedge string
}

// ensure sizes the scratch for n cores. It must not run while compiled
// agents are live (growing cores moves the structs agentBuf pointers refer
// into); beginStep calls it before each compile, where n is stable for the
// instance's lifetime.
func (s *runScratch) ensure(n int) {
	for len(s.cores) < n {
		i := len(s.cores)
		adj, back := &hypergraph.AdjCursor{}, &hypergraph.AdjCursor{}
		s.cores = append(s.cores, coreScratch{
			adjCur: adj, backCur: back, hatsNbrs: adj.List, hatsBack: back.List,
			names: coreNames{
				core:  fmt.Sprintf("core%d", i),
				hcg:   fmt.Sprintf("hcg%d", i),
				cp:    fmt.Sprintf("cp%d", i),
				pf:    fmt.Sprintf("pf%d", i),
				hats:  fmt.Sprintf("hats%d", i),
				chain: fmt.Sprintf("chain%d", i),
				bedge: fmt.Sprintf("bedge%d", i),
			},
		})
	}
}

// fifos returns the core's two recycled FIFOs, creating them on first use.
func (sc *coreScratch) fifos() (*system.FIFO, *system.FIFO) {
	if sc.fifoA == nil {
		sc.fifoA = &system.FIFO{}
		sc.fifoB = &system.FIFO{}
	}
	return sc.fifoA, sc.fifoB
}

// bindCursors points the core's decode cursors at the phase's incidence
// sides. Every compile function calls it on entry, because consecutive
// phases read opposite directions.
func (sc *coreScratch) bindCursors(ph *phaseSpec) {
	sc.adjCur.Bind(ph.adj)
	sc.backCur.Bind(ph.back)
}

// invalidate drops the chain cache's validity (buffers are kept). Called
// when the scratch changes hands between runs.
func (s *runScratch) invalidate() {
	s.chainCache[0].valid = false
	s.chainCache[1].valid = false
}

// arenas recycles runScratch values across every run in the process, the
// same idiom as oag's scratch pool: an arena carries no graph or core-count
// state between runs (invalidate drops the chain cache's validity, ensure
// grows the per-core slices, and every pass loops over the borrowing
// instance's cores, never over len(cores)), so one pool serves every Prep,
// and a dist worker's fresh Prep per session starts warm. Get may return
// nil; GC empties the pool, so idle arenas never pin memory between runs.
var arenas sync.Pool

// getScratch borrows an arena for an instance on p; putScratch returns it.
// p.borrowed counts the arenas on loan, which pins the "every Instance is
// Finished on every driver path" contract in tests.
func (p *Prep) getScratch() *runScratch {
	p.borrowed.Add(1)
	if s, _ := arenas.Get().(*runScratch); s != nil {
		return s
	}
	return &runScratch{}
}

func (p *Prep) putScratch(s *runScratch) {
	p.borrowed.Add(-1)
	s.invalidate()
	arenas.Put(s)
}

// ScratchOutstanding reports how many reuse arenas instances on this Prep
// currently hold (one per live Instance). Drivers that abandon a run early
// must leave this at zero — a positive steady-state value means an
// Instance was never Finished and its arena leaked. Test hook; not needed
// for normal operation.
func (p *Prep) ScratchOutstanding() int64 { return p.borrowed.Load() }
