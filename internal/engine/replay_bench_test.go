package engine

import (
	"fmt"
	"sync"
	"testing"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/gen"
	"chgraph/internal/hypergraph"
	"chgraph/internal/sim/system"
)

// recordedPhase is one committed phase, copied out of the engine's reuse
// arena: agents wired to their own FIFOs, and the simulated duration the
// engine's run measured for it.
type recordedPhase struct {
	agents []*system.Agent
	fifos  []*system.FIFO
	dur    uint64
}

// recordPhases drives one run of alg under opt through the Instance API,
// as Run does, and copies every phase's stitched agents before committing
// it. The recorded durations sum to the run's simulated cycles.
func recordPhases(g *hypergraph.Bipartite, alg algorithms.Algorithm, opt Options) ([]recordedPhase, error) {
	in, err := NewInstance(g, opt)
	if err != nil {
		return nil, err
	}
	var phases []recordedPhase
	commit := func(st *Step) {
		agents := st.stitch()
		if len(agents) == 0 {
			return
		}
		rec := recordedPhase{}
		fifoOf := map[*system.FIFO]*system.FIFO{}
		copyFIFO := func(f *system.FIFO) *system.FIFO {
			if f == nil {
				return nil
			}
			c, ok := fifoOf[f]
			if !ok {
				c = system.NewFIFO(f.Name, f.Cap)
				fifoOf[f] = c
				rec.fifos = append(rec.fifos, c)
			}
			return c
		}
		for _, a := range agents {
			rec.agents = append(rec.agents, &system.Agent{
				Name: a.Name, Core: a.Core, Ops: append(a.Ops[:0:0], a.Ops...),
				Engine: a.Engine, MLP: a.MLP, IsCore: a.IsCore,
				In: copyFIFO(a.In), Out: copyFIFO(a.Out),
			})
		}
		rec.dur = st.Commit()
		phases = append(phases, rec)
	}
	s := algorithms.NewState(g)
	frontierV := bitset.New(g.NumVertices())
	alg.Init(s, frontierV)
	for frontierV.Count() > 0 && (alg.MaxIterations() == 0 || s.Iter < alg.MaxIterations()) {
		alg.BeforeHyperedgePhase(s)
		frontierE := bitset.New(g.NumHyperedges())
		st := in.BeginHyperedgeComputation(frontierV, frontierE)
		drainStep(st, s, alg.HF, frontierE)
		commit(st)

		alg.BeforeVertexPhase(s)
		nextV := bitset.New(g.NumVertices())
		st = in.BeginVertexComputation(frontierE, nextV)
		drainStep(st, s, alg.VF, nextV)
		commit(st)

		s.Iter++
		in.AdvanceIteration()
		if alg.AfterVertexPhase(s, nextV) {
			break
		}
		frontierV = nextV
	}
	res := in.Finish()
	var sum uint64
	for _, p := range phases {
		sum += p.dur
	}
	if sum != res.Cycles {
		return nil, fmt.Errorf("%v: recorded phases sum to %d cycles, run took %d", opt.Kind, sum, res.Cycles)
	}
	return phases, nil
}

// replayRun is one recorded engine run.
type replayRun struct {
	name   string
	phases []recordedPhase
}

// replay runs rec's phases on s from a Reset, in order, and returns the
// first phase whose duration differs from the recorded one (-1 if none)
// with the replayed duration.
func (rec *replayRun) replay(s *system.System) (int, uint64) {
	s.Reset()
	for i, p := range rec.phases {
		for _, f := range p.fifos {
			f.Reset(f.Name, f.Cap)
		}
		for _, a := range p.agents {
			a.ComputeCycles, a.MemStallCycles, a.FifoStallCycles = 0, 0, 0
		}
		if d := s.RunPhase(p.agents); d != p.dur {
			return i, d
		}
	}
	return -1, 0
}

// replayCorpus records, once per process, the phases of one WEB run per
// engine kind and algorithm (PageRank for two iterations, BFS, CC) on the
// scaled 16-core system: the simulator's input mix of a sim-batch round.
var replayCorpus = sync.OnceValues(func() ([]replayRun, error) {
	g, err := gen.Load("WEB", 0.06)
	if err != nil {
		return nil, err
	}
	opt := Options{Sys: system.ScaledConfig()}.WithDefaults()
	prep := PrepareParallel(g, opt.Sys.Cores, opt.WMin, opt.Workers)
	algs := []struct {
		name string
		mk   func() algorithms.Algorithm
	}{
		{"PR", func() algorithms.Algorithm { return algorithms.NewPageRank(2) }},
		{"BFS", func() algorithms.Algorithm { return algorithms.NewBFS(0) }},
		{"CC", func() algorithms.Algorithm { return algorithms.NewCC() }},
	}
	var runs []replayRun
	for _, ks := range kindSpellings {
		for _, a := range algs {
			o := opt
			o.Kind, o.Prep = ks.kind, prep
			phases, err := recordPhases(g, a.mk(), o)
			if err != nil {
				return nil, err
			}
			runs = append(runs, replayRun{name: ks.name + "/" + a.name, phases: phases})
		}
	}
	return runs, nil
})

// BenchmarkReplayPhases replays the recorded phases of real engine runs
// (all six engine kinds x PR/BFS/CC on WEB) on one Reset system per run,
// isolating the timing simulator's host cost from phase compilation. It
// fails if any phase's simulated duration differs from the one recorded
// when the engine ran it, and reports host ns per simulated op.
func BenchmarkReplayPhases(b *testing.B) {
	runs, err := replayCorpus()
	if err != nil {
		b.Fatal(err)
	}
	ops := 0
	for _, r := range runs {
		for _, p := range r.phases {
			for _, a := range p.agents {
				ops += len(a.Ops)
			}
		}
	}
	s := system.New(system.ScaledConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			if ph, d := r.replay(s); ph >= 0 {
				b.Fatalf("%s phase %d: replayed duration %d, recorded %d", r.name, ph, d, r.phases[ph].dur)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/sim-op")
}
