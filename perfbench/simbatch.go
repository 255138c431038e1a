package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"chgraph"
	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/engine"
	"chgraph/internal/sim/system"
)

// sim-batch recipes. WEB overlaps heavily and at this scale its value arrays
// are about twice the modelled 32 KB LLC; OG overlaps little and its value
// arrays fit in it. A change to the modelled design shows on WEB.
var simBatchRecipes = []struct {
	name  string
	scale float64
}{{"WEB", 0.06}, {"OG", 0.02}}

// prIters keeps PageRank short: the first iteration generates the dense
// chain schedule and the second replays it.
const prIters = 2

var simBatchAlgos = []string{"PR", "BFS", "CC"}

type simCell struct {
	rec  int
	kind chgraph.Engine
	algo string
	src  uint32
}

// simBatch is the closed loop with one caller making seed-shuffled
// chgraph.Run calls on artifacts prepared in set-up.
type simBatch struct {
	seed   int64
	refs   *refs
	rng    *rand.Rand
	inputs []*input
	preps  []*chgraph.Prepared
	cells  []simCell
	warm   []*chgraph.Result

	// Traced mode only: the engine-level artifacts the traced step loop runs
	// on, and the counters it accumulates.
	eprep []*engine.Prep
	acc   engineAcc
}

func newSimBatch(seed int64, rf *refs) workload {
	return &simBatch{seed: seed, refs: rf, rng: rand.New(rand.NewSource(subSeed(seed, "sim-batch")))}
}

func (s *simBatch) key(c simCell) string {
	return fmt.Sprintf("%s/%v/%s/src%d", s.inputs[c.rec].name, c.kind, c.algo, c.src)
}

func (s *simBatch) config(c simCell) chgraph.RunConfig {
	return chgraph.RunConfig{Engine: c.kind, Source: c.src, Iterations: prIters, Prepared: s.preps[c.rec]}
}

func (s *simBatch) setup(ctx context.Context, tr *tracer) error {
	for i, r := range simBatchRecipes {
		in, err := makeInput(tr, 0, r.name, r.scale, s.seed)
		if err != nil {
			return err
		}
		sp := tr.begin("engine.prepare", noSpan, 0)
		pre, err := chgraph.Prepare(ctx, in.g, chgraph.RunConfig{})
		tr.end(sp)
		if err != nil {
			return err
		}
		s.inputs = append(s.inputs, in)
		s.preps = append(s.preps, pre)
		src := largestComponentSource(in.b, s.rng)
		for _, name := range chgraph.EngineNames() {
			kind, err := chgraph.ParseEngine(name)
			if err != nil {
				return err
			}
			for _, a := range simBatchAlgos {
				s.cells = append(s.cells, simCell{rec: i, kind: kind, algo: a, src: src})
			}
		}
	}
	// A 37th cell, ChGraph BFS on WEB from a second source, makes a round
	// odd-sized: over whole rounds the 50th-percentile rank then falls in
	// the middle of one cell's samples, not on the step between two.
	s.cells = append(s.cells, simCell{rec: 0, kind: chgraph.ChGraph, algo: "BFS", src: largestComponentSource(s.inputs[0].b, s.rng)})
	// Warm-up: every cell once, so no lazy build lands in op latency.
	for _, c := range s.cells {
		res, err := chgraph.RunContext(ctx, s.inputs[c.rec].g, c.algo, s.config(c))
		if err != nil {
			return fmt.Errorf("%s: %w", s.key(c), err)
		}
		s.warm = append(s.warm, res)
	}
	return nil
}

func resultOutcome(r *chgraph.Result) outcome {
	return outcome{sum: valuesChecksum(r.VertexValues, r.HyperedgeValues), cycles: r.Cycles, mem: r.MemAccesses}
}

// check verifies the warm-up against the oracles (first set-up) or against
// the first set-up's outputs (later ones).
func (s *simBatch) check() error {
	for i, c := range s.cells {
		key, got := s.key(c), resultOutcome(s.warm[i])
		if _, ok := s.refs.m[key]; !ok {
			if err := checkOracle(s.inputs[c.rec].b, c.algo, c.src, prIters, s.warm[i].VertexValues); err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			s.refs.m[key] = got
		}
		if err := s.refs.match(key, got); err != nil {
			return err
		}
	}
	s.warm = nil
	return nil
}

func (s *simBatch) window(ctx context.Context, tr *tracer, d time.Duration, minOps int) []opRecord {
	var ops []opRecord
	var a0 uint64
	if tr != nil {
		if s.eprep == nil {
			// The traced step loop runs on engine-level artifacts, built the
			// way chgraph.Prepare builds them.
			opt := engineOptions(chgraph.Hygra)
			for _, in := range s.inputs {
				s.eprep = append(s.eprep, engine.PrepareParallel(in.b, opt.Sys.Cores, opt.WMin, opt.Workers))
			}
		}
		a0 = heapAllocs()
	}
	start := time.Now()
	// Whole rounds only: each cell runs equally often, so the percentile
	// ranks sit where the cell counts put them.
	for opID := int64(1); time.Since(start) < d || len(ops) < minOps; {
		for _, ci := range s.rng.Perm(len(s.cells)) {
			c := s.cells[ci]
			var got outcome
			var err error
			t0 := time.Now()
			if tr == nil {
				var res *chgraph.Result
				if res, err = chgraph.RunContext(ctx, s.inputs[c.rec].g, c.algo, s.config(c)); err == nil {
					got = resultOutcome(res)
				}
			} else {
				got, err = s.tracedRun(ctx, tr, opID, c)
			}
			lat := time.Since(t0)
			if tr != nil {
				s.acc.opLat += lat
			}
			if err == nil {
				err = s.refs.match(s.key(c), got)
			}
			ops = append(ops, opRecord{class: s.key(c), lat: lat, svc: lat, err: err})
			opID++
		}
	}
	if tr != nil {
		s.acc.allocs += heapAllocs() - a0
	}
	return ops
}

// engineOptions resolves the engine options chgraph.Run uses for a
// default-configured run of kind.
func engineOptions(kind engine.Kind) engine.Options {
	return engine.Options{Kind: kind, Sys: system.ScaledConfig()}.WithDefaults()
}

// newAlgorithm builds the algorithm chgraph.Run builds for the same name.
func newAlgorithm(name string, src uint32, iters int) (algorithms.Algorithm, error) {
	switch name {
	case "BFS":
		return algorithms.NewBFS(src), nil
	case "PR":
		return algorithms.NewPageRank(iters), nil
	}
	if a, ok := algorithms.ByName(name); ok {
		return a, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

// engineAcc accumulates the traced step loop's engine counters.
type engineAcc struct {
	runs, phases                 int
	allocs, edges                uint64
	chains, chainGen, chainNodes uint64
	l1h, l1m, l2h, l2m, l3h, l3m uint64
	stall                        float64
	opLat                        time.Duration // recorded latency of the traced ops
}

// tracedRun drives one cell through the engine's step API the way
// engine.RunCtx does, with a span around each layer call. Its outputs must
// be bit-identical to chgraph.Run's.
func (s *simBatch) tracedRun(ctx context.Context, tr *tracer, op int64, c simCell) (outcome, error) {
	root := tr.begin("sim-batch.op", noSpan, op)
	defer tr.end(root)
	b := s.inputs[c.rec].b
	alg, err := newAlgorithm(c.algo, c.src, prIters)
	if err != nil {
		return outcome{}, err
	}
	opt := engineOptions(c.kind)
	opt.Prep = s.eprep[c.rec]
	sp := tr.begin("engine.open", root, op)
	in, err := engine.NewInstanceCtx(ctx, b, opt)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	st := algorithms.NewState(b)
	frontierV := bitset.New(b.NumVertices())
	alg.Init(st, frontierV)
	frontierE := bitset.New(b.NumHyperedges())
	nextV := bitset.New(b.NumVertices())
	maxIter := alg.MaxIterations()
	phase := func(begin func(f, n bitset.Bitmap) *engine.Step, frontier, next bitset.Bitmap, fn func(*algorithms.State, uint32, uint32) algorithms.EdgeResult) error {
		sp := tr.begin("engine.compile", root, op)
		step := begin(frontier, next)
		tr.end(sp)
		if err := ctx.Err(); err != nil {
			return err
		}
		sp = tr.begin("algorithms.apply", root, op)
		for i, n := 0, step.NumMarks(); i < n; i++ {
			src, dst := step.Mark(i)
			r := fn(st, src, dst)
			step.Resolve(i, r, r&algorithms.Activate != 0 && next.TestAndSet(dst))
		}
		tr.end(sp)
		sp = tr.begin("sim.commit", root, op)
		step.Commit()
		tr.end(sp)
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return outcome{}, err
		}
		if frontierV.Count() == 0 || (maxIter > 0 && st.Iter >= maxIter) {
			break
		}
		alg.BeforeHyperedgePhase(st)
		frontierE.Reset()
		if err := phase(in.BeginHyperedgeComputation, frontierV, frontierE, alg.HF); err != nil {
			return outcome{}, err
		}
		alg.BeforeVertexPhase(st)
		nextV.Reset()
		if err := phase(in.BeginVertexComputation, frontierE, nextV, alg.VF); err != nil {
			return outcome{}, err
		}
		st.Iter++
		in.AdvanceIteration()
		done := alg.AfterVertexPhase(st, nextV)
		frontierV, nextV = nextV, frontierV
		if done {
			break
		}
	}
	phases := in.SimPhases()
	sp = tr.begin("engine.finish", root, op)
	res := in.Finish()
	tr.end(sp)

	a := &s.acc
	a.runs++
	a.phases += phases
	a.edges += res.EdgesProcessed
	a.chains += res.ChainCount
	a.chainGen += res.ChainGenCount
	a.chainNodes += res.ChainNodes
	a.l1h, a.l1m = a.l1h+res.L1Hits, a.l1m+res.L1Misses
	a.l2h, a.l2m = a.l2h+res.L2Hits, a.l2m+res.L2Misses
	a.l3h, a.l3m = a.l3h+res.L3Hits, a.l3m+res.L3Misses
	a.stall += res.StallFraction()
	return outcome{sum: valuesChecksum(st.VertexVal, st.HyperedgeVal), cycles: res.Cycles, mem: res.MemTotal()}, nil
}

func (s *simBatch) verify(context.Context) error { return nil }

// sim averages the deterministic model outputs over the cell set; every
// round of the window repeats the same cells, so this is the per-op mean.
func (s *simBatch) sim() (cycles, dram float64) {
	for _, c := range s.cells {
		o := s.refs.m[s.key(c)]
		cycles += float64(o.cycles)
		dram += float64(o.mem)
	}
	n := float64(len(s.cells))
	return cycles / n, dram / n
}

func (s *simBatch) layerMetrics(m metricSet, layers map[string]layerTime) error {
	a := &s.acc
	if a.runs == 0 {
		return fmt.Errorf("sim-batch: no traced ops")
	}
	n := float64(a.runs)
	per := func(span string) float64 { return ms(layers[span].self) / n }
	m.set("engine.open_ms", per("engine.open"), "ms")
	m.set("engine.compile_ms", per("engine.compile"), "ms")
	m.set("engine.finish_ms", per("engine.finish"), "ms")
	m.set("algorithms.apply_ms", per("algorithms.apply"), "ms")
	m.set("sim.commit_ms", per("sim.commit"), "ms")
	m.set("engine.allocs_per_op", float64(a.allocs)/n, "count")
	m.set("engine.edges_per_op", float64(a.edges)/n, "count")
	m.set("engine.phases_per_op", float64(a.phases)/n, "count")
	m.set("core.chains_per_op", float64(a.chains)/n, "count")
	m.set("core.replay_ratio", 1-ratio(float64(a.chainGen), float64(a.chains)), "ratio")
	m.set("core.avg_chain_len", ratio(float64(a.chainNodes), float64(a.chains)), "count")
	m.set("sim.host_ns_per_edge", ratio(float64(layers["sim.commit"].self), float64(a.edges)), "ns")
	m.set("sim.l1_hit_ratio", ratio(float64(a.l1h), float64(a.l1h+a.l1m)), "ratio")
	m.set("sim.l2_hit_ratio", ratio(float64(a.l2h), float64(a.l2h+a.l2m)), "ratio")
	m.set("sim.l3_hit_ratio", ratio(float64(a.l3h), float64(a.l3h+a.l3m)), "ratio")
	m.set("sim.mem_stall_frac", a.stall/n, "ratio")

	var oag, bpe float64
	for i, in := range s.inputs {
		oag += float64(s.eprep[i].OAGStorageBytes()) / 1024
		_, b := in.g.Footprint(false)
		bpe += b
	}
	m.set("oag.storage_kb", oag/float64(len(s.inputs)), "KB")
	m.set("hypergraph.bytes_per_edge", bpe/float64(len(s.inputs)), "B")

	// The op spans must cover the op latencies the loop recorded, so no
	// part of a timed op runs outside the traced layers and loop self time.
	opSpan := layers["sim-batch.op"]
	if gap := ratio(float64(opSpan.total-a.opLat), float64(a.opLat)); gap > 0.01 || gap < -0.01 {
		return fmt.Errorf("sim-batch: op spans sum to %v, recorded op latencies to %v", opSpan.total, a.opLat)
	}
	m.set("sim-batch.loop_self_ms", per("sim-batch.op"), "ms")
	return nil
}

func (s *simBatch) close() {}
