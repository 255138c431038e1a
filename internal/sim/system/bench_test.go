package system

import (
	"testing"

	"chgraph/internal/trace"
)

// chgraphPhase builds a fixed ChGraph-shaped phase on every core of cfg:
// an HCG engine agent pushing chain entries into a chain FIFO, a CP engine
// agent popping them and prefetching each element's offset, value and
// bipartite edges into an edge FIFO, and the core popping one tuple per
// edge and writing the destination value. Destinations are drawn from a
// range shared by all cores, so the stream exercises private hits, L3 and
// DRAM misses and coherence. It returns the agents and the FIFOs, which the
// caller resets before each RunPhase.
func chgraphPhase(cfg Config, elems int) ([]*Agent, []*FIFO) {
	const vertices = 4096
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func(n uint64) uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	var agents []*Agent
	var fifos []*FIFO
	edge := uint64(0)
	for c := 0; c < cfg.Cores; c++ {
		chain, tuples := NewFIFO("chain", 32), NewFIFO("bedge", 32)
		var hcg, cp, core []trace.Op
		for i := 0; i < elems; i++ {
			e := uint64(c*elems + i)
			hcg = append(hcg, trace.Op{Addr: lay.BitmapAddr(0, e), Arr: trace.Bitmap,
				Flags: trace.FlagL2 | trace.FlagPushChain, Compute: 1})
			cp = append(cp,
				trace.Op{Flags: trace.FlagNoMem | trace.FlagPopChain, Compute: 1},
				trace.Op{Addr: lay.Addr(trace.HyperedgeOffset, e), Arr: trace.HyperedgeOffset, Flags: trace.FlagL2, Compute: 1},
				trace.Op{Addr: lay.Addr(trace.HyperedgeValue, e), Arr: trace.HyperedgeValue, Flags: trace.FlagL2, Compute: 1})
			for d := 1 + rnd(8); d > 0; d-- {
				dst := rnd(vertices)
				cp = append(cp,
					trace.Op{Addr: lay.Addr(trace.IncidentVertex, edge), Arr: trace.IncidentVertex, Flags: trace.FlagL2, Compute: 1},
					trace.Op{Addr: lay.Addr(trace.VertexValue, dst), Arr: trace.VertexValue, Flags: trace.FlagL2 | trace.FlagPushTuple, Compute: 1})
				core = append(core, trace.Op{Addr: lay.Addr(trace.VertexValue, dst), Arr: trace.VertexValue,
					Flags: trace.FlagWrite | trace.FlagPopTuple, Compute: 4})
				edge++
			}
		}
		hcg = append(hcg, trace.Op{Flags: trace.FlagNoMem | trace.FlagPushChain})
		cp = append(cp,
			trace.Op{Flags: trace.FlagNoMem | trace.FlagPopChain, Compute: 1},
			trace.Op{Flags: trace.FlagNoMem | trace.FlagPushTuple, Compute: 1})
		core = append(core, trace.Op{Flags: trace.FlagNoMem | trace.FlagPopTuple})
		agents = append(agents,
			&Agent{Name: "hcg", Core: c, Ops: hcg, Engine: true, MLP: cfg.EngineMLP, Out: chain},
			&Agent{Name: "cp", Core: c, Ops: cp, Engine: true, MLP: cfg.PrefetchMLP, In: chain, Out: tuples},
			&Agent{Name: "core", Core: c, Ops: core, MLP: cfg.CoreMLP, IsCore: true, In: tuples})
		fifos = append(fifos, chain, tuples)
	}
	return agents, fifos
}

func runChGraphPhase(s *System, agents []*Agent, fifos []*FIFO) {
	for _, f := range fifos {
		f.Reset(f.Name, f.Cap)
	}
	s.RunPhase(agents)
}

// warmPhase runs enough phases for the directory to reach its steady-state
// size, after which a phase allocates nothing.
func warmPhase(s *System, agents []*Agent, fifos []*FIFO) {
	for i := 0; i < 10; i++ {
		runChGraphPhase(s, agents, fifos)
	}
}

// TestRunPhaseSteadyStateAllocs pins RunPhase — run queue, FIFOs, caches
// and directory — at zero allocations per phase once a system is warm.
func TestRunPhaseSteadyStateAllocs(t *testing.T) {
	cfg := ScaledConfig()
	s := New(cfg)
	agents, fifos := chgraphPhase(cfg, 256)
	warmPhase(s, agents, fifos)
	if n := testing.AllocsPerRun(20, func() { runChGraphPhase(s, agents, fifos) }); n != 0 {
		t.Fatalf("RunPhase allocates %.1f objects per phase at steady state, want 0", n)
	}
}

// BenchmarkRunPhase times the simulator's hot loop on a 16-core x 3-agent
// ChGraph-shaped phase; b.N phases replay on one warm system.
func BenchmarkRunPhase(b *testing.B) {
	cfg := ScaledConfig()
	s := New(cfg)
	agents, fifos := chgraphPhase(cfg, 256)
	ops := 0
	for _, a := range agents {
		ops += len(a.Ops)
	}
	warmPhase(s, agents, fifos)
	if n := testing.AllocsPerRun(5, func() { runChGraphPhase(s, agents, fifos) }); n != 0 {
		b.Fatalf("RunPhase allocates %.1f objects per phase at steady state, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runChGraphPhase(s, agents, fifos)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/agent-op")
}
