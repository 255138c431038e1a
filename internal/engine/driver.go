package engine

import (
	"context"
	"slices"
	"time"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/par"
	"chgraph/internal/trace"
)

// Phase indexes the two computation phases of one synchronous iteration.
type Phase int

const (
	// HyperedgePhase is hyperedge computation: active vertices scatter via HF.
	HyperedgePhase Phase = 0
	// VertexPhase is vertex computation: active hyperedges scatter via VF.
	VertexPhase Phase = 1
)

func (p Phase) String() string {
	if p == HyperedgePhase {
		return "hyperedge"
	}
	return "vertex"
}

// Backend executes one shard's half of the schedule Drive runs, without the
// driver knowing where the shard's engine lives: NewLocalBackend wraps an
// in-process Instance (on the whole graph for RunCtx, on a shard's
// sub-hypergraph for internal/shard), internal/dist implements the same
// contract over HTTP to a worker process. The per-iteration call sequence,
// per backend, is
//
//	Begin(HyperedgePhase, frontierV) → Drain(HF) → Commit →
//	Begin(VertexPhase, nextV)        → Drain(VF) → Commit →
//	AdvanceIteration
//
// with Begin and Commit fanned out across backends concurrently and Drain
// strictly sequential in backend order (the determinism contract). The
// driver owns the two global vertex frontiers; each backend owns its
// hyperedge frontier, which never crosses backends because every hyperedge
// has one owner.
type Backend interface {
	// ChargePreprocess charges the modelled preprocessing time to the
	// backend's simulated clock (at most once, before the first phase) and
	// returns it.
	ChargePreprocess(ctx context.Context) (uint64, error)

	// Begin compiles phase ph. frontierV is a global vertex frontier: for
	// HyperedgePhase the phase's sources, which the backend restricts to
	// its vertices; for VertexPhase the cleared frontier the phase's
	// activations are added to during Drain. A VertexPhase sources from the
	// hyperedge activations of the backend's previous Commit.
	Begin(ctx context.Context, ph Phase, frontierV bitset.Bitmap) error

	// Drain applies fn to every pending mark in compiled stream order,
	// strictly sequentially, in global ids, resolving each outcome into the
	// phase's op streams and destination frontier.
	Drain(fn func(src, dst uint32) algorithms.EdgeResult) error

	// Commit stitches the resolved phase and replays it on the backend's
	// simulated system, returning the phase's simulated duration.
	Commit(ctx context.Context) (uint64, error)

	// AdvanceIteration marks one synchronous iteration complete.
	AdvanceIteration(ctx context.Context) error

	// EdgesProcessed returns the cumulative HF/VF application count.
	EdgesProcessed() uint64
	// SimPhases returns how many phases the backend's simulator replayed.
	SimPhases() int
	// Restarts counts engine restarts the backend recovered from (always 0
	// in process; remote backends count worker rejoins).
	Restarts() uint64

	// Finish retires the backend's engine and returns its measurements
	// (State nil: the driver owns the global algorithm state).
	Finish(ctx context.Context) (*Result, error)
	// Close releases every resource the backend still holds. It is
	// idempotent, safe after Finish, and Drive calls it on every path.
	Close() error
}

// localBackend runs one Instance in process. vertices and hyperedges map
// the instance graph's ids to global ids; an unmapped backend runs on the
// global graph itself, so frontiers are used as given and marks need no
// lookup.
type localBackend struct {
	in    *Instance
	st    *Step
	phase Phase

	mapped               bool
	vertices, hyperedges []uint32

	front bitset.Bitmap // mapped: the global vertex frontier restricted to the shard
	nextE bitset.Bitmap // hyperedge activations (HyperedgePhase → VertexPhase)
	nextV bitset.Bitmap // mapped: the shard's vertex activations
	next  bitset.Bitmap // the live phase's destination frontier (instance ids)
	merge bitset.Bitmap // mapped VertexPhase: the global frontier first activations go to

	finished bool
}

// NewLocalBackend wraps in as a Backend. vertices and hyperedges map in's
// graph ids to global ids (a shard's sub-hypergraph); pass nil for both when
// in runs on the global graph. Closing or finishing the backend finishes in.
func NewLocalBackend(in *Instance, vertices, hyperedges []uint32) Backend {
	b := &localBackend{
		in: in, vertices: vertices, hyperedges: hyperedges,
		mapped: vertices != nil || hyperedges != nil,
		nextE:  bitset.New(in.g.NumHyperedges()),
	}
	if b.mapped {
		b.front = bitset.New(in.g.NumVertices())
		b.nextV = bitset.New(in.g.NumVertices())
	}
	return b
}

func (b *localBackend) ChargePreprocess(context.Context) (uint64, error) {
	b.in.ChargePreprocess()
	return b.in.PreprocessCycles(), nil
}

func (b *localBackend) Begin(_ context.Context, ph Phase, frontierV bitset.Bitmap) error {
	b.phase = ph
	if ph == HyperedgePhase {
		front := frontierV
		if b.mapped {
			front = b.front
			front.Reset()
			for lv, gv := range b.vertices {
				if frontierV.Get(gv) {
					front.Set(uint32(lv))
				}
			}
		}
		b.nextE.Reset()
		b.next, b.merge = b.nextE, nil
		b.st = b.in.BeginHyperedgeComputation(front, b.nextE)
		return nil
	}
	b.next, b.merge = frontierV, nil
	if b.mapped {
		b.nextV.Reset()
		b.next, b.merge = b.nextV, frontierV
	}
	b.st = b.in.BeginVertexComputation(b.nextE, b.next)
	return nil
}

// Drain resolves "first activation" against the backend's own destination
// frontier, as the op streams need; a mapped vertex phase also adds each
// activated vertex to the global frontier.
func (b *localBackend) Drain(fn func(src, dst uint32) algorithms.EdgeResult) error {
	st, next := b.st, b.next
	n := st.NumMarks()
	if !b.mapped {
		for i := 0; i < n; i++ {
			src, dst := st.Mark(i)
			res := fn(src, dst)
			st.Resolve(i, res, res&algorithms.Activate != 0 && next.TestAndSet(dst))
		}
		return nil
	}
	srcs, dsts := b.vertices, b.hyperedges
	if b.phase == VertexPhase {
		srcs, dsts = b.hyperedges, b.vertices
	}
	for i := 0; i < n; i++ {
		src, dst := st.Mark(i)
		res := fn(srcs[src], dsts[dst])
		first := res&algorithms.Activate != 0 && next.TestAndSet(dst)
		st.Resolve(i, res, first)
		if first && b.merge != nil {
			b.merge.Set(dsts[dst])
		}
	}
	return nil
}

func (b *localBackend) Commit(context.Context) (uint64, error) { return b.st.Commit(), nil }

func (b *localBackend) AdvanceIteration(context.Context) error {
	b.in.AdvanceIteration()
	return nil
}

func (b *localBackend) EdgesProcessed() uint64 { return b.in.EdgesProcessed() }
func (b *localBackend) SimPhases() int         { return b.in.SimPhases() }
func (b *localBackend) Restarts() uint64       { return 0 }

func (b *localBackend) Finish(context.Context) (*Result, error) {
	b.finished = true
	return b.in.Finish(), nil
}

func (b *localBackend) Close() error {
	if !b.finished {
		b.finished = true
		b.in.Finish() // returns the reuse arena to the pool
	}
	return nil
}

// Drive runs alg to completion on g over bks, one backend per shard (one
// backend on g itself for an unsharded run): the bulk-synchronous schedule
// of every runtime. Per iteration, every backend compiles the phase
// concurrently; Drive drains all backends' HF/VF applications strictly
// sequentially, in backend order, against one global State in global ids;
// every backend stitches and simulates concurrently, and the phase's merged
// time is the maximum over backends. The vertex phase's activations, merged
// across backends, are the next iteration's frontier.
//
// Cancellation is observed at iteration boundaries and after each phase's
// compile fan-out, before any HF/VF application: a cancelled run never
// commits partial work and returns ctx.Err(). opt supplies Workers (the
// fan-out over backends), ChargePreprocess, and the Observer, which receives
// the merged iteration and run snapshots; phase snapshots are the backends'
// to deliver. hostStart anchors the run snapshot's HostWall.
//
// Drive Closes every backend on every return path, so an abandoned run never
// leaks an engine, its pooled arena or a remote worker session. It returns
// the merged Result and each backend's own.
func Drive(ctx context.Context, g *hypergraph.Bipartite, alg algorithms.Algorithm, bks []Backend, opt Options, hostStart time.Time) (*Result, []*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		for _, bk := range bks {
			bk.Close()
		}
	}()
	workers := opt.Workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}

	var cycles, pre uint64
	if opt.ChargePreprocess {
		for _, bk := range bks {
			c, err := bk.ChargePreprocess(ctx)
			if err != nil {
				return nil, nil, err
			}
			pre = max(pre, c)
		}
		cycles = pre
	}

	s := algorithms.NewState(g)
	frontierV := bitset.New(g.NumVertices())
	alg.Init(s, frontierV)
	nextV := bitset.New(g.NumVertices())

	// Every closure the loop hands out is built here, once per run, so an
	// iteration allocates nothing.
	k := len(bks)
	durs, errs := make([]uint64, k), make([]error, k)
	var ph Phase
	var front bitset.Bitmap
	begin := func(i int) { errs[i] = bks[i].Begin(ctx, ph, front) }
	commit := func(i int) { durs[i], errs[i] = bks[i].Commit(ctx) }
	hf := func(src, dst uint32) algorithms.EdgeResult { return alg.HF(s, src, dst) }
	vf := func(src, dst uint32) algorithms.EdgeResult { return alg.VF(s, src, dst) }
	// firstErr surfaces a fan-out's outcome: cancellation first, then the
	// lowest-indexed backend error.
	firstErr := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	}
	// runPhase is one half-iteration: concurrent Begin, sequential Drain in
	// backend order, concurrent Commit.
	runPhase := func(p Phase, f bitset.Bitmap, apply func(src, dst uint32) algorithms.EdgeResult) error {
		ph, front = p, f
		par.For(workers, k, begin)
		if err := firstErr(); err != nil {
			return err // a compile was aborted; commit nothing
		}
		for _, bk := range bks {
			if err := bk.Drain(apply); err != nil {
				return err
			}
		}
		par.For(workers, k, commit)
		if err := firstErr(); err != nil {
			return err
		}
		cycles += slices.Max(durs)
		return nil
	}

	maxIter := alg.MaxIterations()
	iterations := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if frontierV.Count() == 0 || (maxIter > 0 && s.Iter >= maxIter) {
			break
		}
		// Hyperedge computation: active vertices scatter via HF. A
		// replicated active vertex scatters on every shard that holds it;
		// each of its incident hyperedges is owned by exactly one shard, so
		// the union covers each bipartite edge exactly once.
		alg.BeforeHyperedgePhase(s)
		if err := runPhase(HyperedgePhase, frontierV, hf); err != nil {
			return nil, nil, err
		}
		// Vertex computation: active hyperedges scatter via VF, and every
		// backend's activations land in the one global next frontier.
		alg.BeforeVertexPhase(s)
		nextV.Reset()
		if err := runPhase(VertexPhase, nextV, vf); err != nil {
			return nil, nil, err
		}

		s.Iter++
		iterations++
		for _, bk := range bks {
			if err := bk.AdvanceIteration(ctx); err != nil {
				return nil, nil, err
			}
		}
		done := alg.AfterVertexPhase(s, nextV)
		frontierV, nextV = nextV, frontierV
		if opt.Observer != nil {
			var edges uint64
			for _, bk := range bks {
				edges += bk.EdgesProcessed()
			}
			opt.Observer.IterationDone(obs.IterationSnapshot{
				Iteration:      iterations - 1,
				ActiveVertices: frontierV.Count(),
				Cycles:         cycles,
				EdgesProcessed: edges,
			})
		}
		if done {
			break
		}
	}

	// SimPhases is read before Finish, which hands a local engine's
	// simulator back to the pool; Restarts after, since a remote Finish may
	// rejoin.
	per := make([]*Result, k)
	phases := 0
	var restarts uint64
	for i, bk := range bks {
		phases = max(phases, bk.SimPhases())
		r, err := bk.Finish(ctx)
		if err != nil {
			return nil, nil, err
		}
		per[i] = r
		restarts += bk.Restarts()
	}
	res := mergeResults(per)
	res.State, res.Iterations, res.Cycles, res.PreprocessCycles = s, iterations, cycles, pre
	if opt.Observer != nil {
		opt.Observer.RunDone(obs.RunSnapshot{
			Engine:           res.Kind.String(),
			Algorithm:        alg.Name(),
			Iterations:       res.Iterations,
			Phases:           phases,
			Cycles:           res.Cycles,
			PreprocessCycles: res.PreprocessCycles,
			WorkerReconnects: restarts,
			MemReads:         res.MemReads,
			MemWrites:        res.MemWrites,
			CoreCycles:       res.CoreCycles,
			MemStallCycles:   res.MemStallCycles,
			FifoStallCycles:  res.FifoStallCycles,
			L1Hits:           res.L1Hits,
			L1Misses:         res.L1Misses,
			L2Hits:           res.L2Hits,
			L2Misses:         res.L2Misses,
			L3Hits:           res.L3Hits,
			L3Misses:         res.L3Misses,
			EdgesProcessed:   res.EdgesProcessed,
			ChainCount:       res.ChainCount,
			ChainNodes:       res.ChainNodes,
			ChainGenCount:    res.ChainGenCount,
			ChainGenNodes:    res.ChainGenNodes,
			HostWall:         time.Since(hostStart),
		})
	}
	return res, per, nil
}

// mergeResults sums the backends' measurement counters into one Result.
// Cycles, PreprocessCycles, Iterations and State are set by Drive with
// barrier-aware semantics.
func mergeResults(per []*Result) *Result {
	m := &Result{Kind: per[0].Kind}
	for _, r := range per {
		for a := trace.Array(0); a < trace.NumArrays; a++ {
			m.MemReads[a] += r.MemReads[a]
			m.MemWrites[a] += r.MemWrites[a]
			m.MemByPhase[0][a] += r.MemByPhase[0][a]
			m.MemByPhase[1][a] += r.MemByPhase[1][a]
		}
		m.CoreCycles += r.CoreCycles
		m.MemStallCycles += r.MemStallCycles
		m.FifoStallCycles += r.FifoStallCycles
		m.L1Hits += r.L1Hits
		m.L1Misses += r.L1Misses
		m.L2Hits += r.L2Hits
		m.L2Misses += r.L2Misses
		m.L3Hits += r.L3Hits
		m.L3Misses += r.L3Misses
		m.EdgesProcessed += r.EdgesProcessed
		m.ChainCount += r.ChainCount
		m.ChainNodes += r.ChainNodes
		m.ChainGenCount += r.ChainGenCount
		m.ChainGenNodes += r.ChainGenNodes
	}
	return m
}
