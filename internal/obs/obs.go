// Package obs is the run observability layer: engines publish structured
// snapshots of every computation phase, iteration and completed run to an
// Observer, turning a simulation from an end-of-run aggregate into a full
// per-phase trajectory (the granularity of the paper's Figure 5/15/21
// breakdowns).
//
// Observers are strictly read-only taps: the engine computes a snapshot
// from counters it maintains anyway and hands it over by value, so the
// simulated Result is bit-identical whether zero, one or many observers are
// attached (the engine test suite asserts this). The package ships three
// concrete observers:
//
//   - Logger: a leveled text logger (run / iteration / phase granularity);
//   - Timeline: a recorder holding the full trajectory, exportable as JSON
//     or CSV;
//   - Null: a no-op observer used to bound observation overhead.
//
// SessionMetrics aggregates many runs (e.g. one per bench cell) under
// string keys for session-level export.
package obs

import (
	"time"

	"chgraph/internal/trace"
)

// PhaseSnapshot describes one computation phase (one half-iteration): the
// simulated work it performed and the host-side wall time spent compiling
// and executing it. All simulated counters are deltas over the phase, not
// cumulative run totals, so summing a run's snapshots reproduces its final
// aggregates exactly.
type PhaseSnapshot struct {
	// Seq numbers observed phases from 0 within the run.
	Seq int `json:"seq"`
	// Iteration is the synchronous iteration the phase belongs to.
	Iteration int `json:"iteration"`
	// Phase is 0 for hyperedge computation (vertices scatter via HF) and
	// 1 for vertex computation (hyperedges scatter via VF).
	Phase int `json:"phase"`
	// Engine is the execution model name (engine.Kind.String()).
	Engine string `json:"engine"`
	// Shard is the shard the phase executed on (0 for unsharded runs; the
	// shard coordinator tags each shard's snapshots with its index). Seq
	// numbers phases within the shard's own engine, so sharded runs carry
	// one Seq sequence per shard.
	Shard int `json:"shard"`
	// Frontier is the number of active source elements entering the phase.
	Frontier uint64 `json:"frontier"`
	// Dense marks an all-active frontier (no bitmap scanning, §VI-C).
	Dense bool `json:"dense"`
	// Replayed marks a chain schedule replayed from the §VI-B memoization
	// cache instead of freshly generated.
	Replayed bool `json:"replayed"`

	// Cycles is the simulated phase duration (its critical path).
	Cycles uint64 `json:"cycles"`
	// CoreCycles is the busy time summed over core agents; MemStallCycles
	// and FifoStallCycles split their stall time between DRAM-bound
	// accesses and FIFO coupling.
	CoreCycles      uint64 `json:"core_cycles"`
	MemStallCycles  uint64 `json:"mem_stall_cycles"`
	FifoStallCycles uint64 `json:"fifo_stall_cycles"`

	// MemReads and MemWrites count off-chip line transfers per array
	// (indexed by trace.Array; ArrayNames gives the legend).
	MemReads  [trace.NumArrays]uint64 `json:"mem_reads"`
	MemWrites [trace.NumArrays]uint64 `json:"mem_writes"`

	// Cache hit/miss deltas per level.
	L1Hits   uint64 `json:"l1_hits"`
	L1Misses uint64 `json:"l1_misses"`
	L2Hits   uint64 `json:"l2_hits"`
	L2Misses uint64 `json:"l2_misses"`
	L3Hits   uint64 `json:"l3_hits"`
	L3Misses uint64 `json:"l3_misses"`

	// EdgesProcessed counts HF/VF applications in the phase.
	EdgesProcessed uint64 `json:"edges_processed"`
	// ChainCount/ChainNodes cover the schedule executed this phase
	// (generated or replayed); ChainGenCount/ChainGenNodes only fresh
	// generation.
	ChainCount    uint64 `json:"chain_count"`
	ChainNodes    uint64 `json:"chain_nodes"`
	ChainGenCount uint64 `json:"chain_gen_count"`
	ChainGenNodes uint64 `json:"chain_gen_nodes"`

	// Host-side wall time per pass: phase compilation (including chain
	// generation), the sequential HF/VF application pass, op-stream
	// stitching, and the timing simulation itself.
	HostCompile time.Duration `json:"host_compile_ns"`
	HostApply   time.Duration `json:"host_apply_ns"`
	HostStitch  time.Duration `json:"host_stitch_ns"`
	HostSim     time.Duration `json:"host_sim_ns"`
}

// MemTotal returns the phase's total off-chip line transfers.
func (p *PhaseSnapshot) MemTotal() uint64 {
	var n uint64
	for a := 0; a < int(trace.NumArrays); a++ {
		n += p.MemReads[a] + p.MemWrites[a]
	}
	return n
}

// IterationSnapshot describes one completed synchronous iteration.
type IterationSnapshot struct {
	// Iteration is the 0-based index of the completed iteration.
	Iteration int `json:"iteration"`
	// ActiveVertices is the vertex frontier size entering the next
	// iteration (0 on convergence).
	ActiveVertices uint64 `json:"active_vertices"`
	// Cycles is the cumulative simulated time through this iteration.
	Cycles uint64 `json:"cycles"`
	// EdgesProcessed is the cumulative HF/VF application count.
	EdgesProcessed uint64 `json:"edges_processed"`
}

// RunSnapshot summarizes a completed run; its fields mirror engine.Result's
// measurement fields exactly (the engine tests assert equality), plus the
// host wall time of the whole run.
type RunSnapshot struct {
	Engine           string `json:"engine"`
	Algorithm        string `json:"algorithm"`
	Iterations       int    `json:"iterations"`
	Phases           int    `json:"phases"`
	Cycles           uint64 `json:"cycles"`
	PreprocessCycles uint64 `json:"preprocess_cycles"`

	// Shards is the number of shards the run executed on (0 or 1 for
	// unsharded runs). ReplicatedVertices counts vertices materialized on
	// more than one shard and ReplicationFactor is the mean number of shard
	// copies per vertex (1.0 when nothing is replicated); both are 0 for
	// unsharded runs.
	Shards             int     `json:"shards,omitempty"`
	ReplicatedVertices uint64  `json:"replicated_vertices,omitempty"`
	ReplicationFactor  float64 `json:"replication_factor,omitempty"`

	// WorkerReconnects counts distributed shard workers that crashed and
	// rejoined during the run (internal/dist); 0 for in-process runs.
	WorkerReconnects uint64 `json:"worker_reconnects,omitempty"`

	MemReads  [trace.NumArrays]uint64 `json:"mem_reads"`
	MemWrites [trace.NumArrays]uint64 `json:"mem_writes"`

	CoreCycles      uint64 `json:"core_cycles"`
	MemStallCycles  uint64 `json:"mem_stall_cycles"`
	FifoStallCycles uint64 `json:"fifo_stall_cycles"`

	L1Hits   uint64 `json:"l1_hits"`
	L1Misses uint64 `json:"l1_misses"`
	L2Hits   uint64 `json:"l2_hits"`
	L2Misses uint64 `json:"l2_misses"`
	L3Hits   uint64 `json:"l3_hits"`
	L3Misses uint64 `json:"l3_misses"`

	EdgesProcessed uint64 `json:"edges_processed"`
	ChainCount     uint64 `json:"chain_count"`
	ChainNodes     uint64 `json:"chain_nodes"`
	ChainGenCount  uint64 `json:"chain_gen_count"`
	ChainGenNodes  uint64 `json:"chain_gen_nodes"`

	// HostWall is the run's host wall-clock time. Every runtime
	// (engine.RunCtx, shard.RunCtx, dist.RunCtx) starts it on entry to
	// RunCtx, so it includes on-demand Prep builds, partitioning, shard
	// materialization and worker handshakes, and stops it as the run ends.
	HostWall time.Duration `json:"host_wall_ns"`

	// Generation tags the prepared-artifact version the run executed on: 0
	// for a from-scratch artifact, incremented once per applied mutation
	// batch. Serving layers stamp it via TagGeneration so trajectories
	// spanning a mutation are attributable to the exact hypergraph version.
	Generation uint64 `json:"generation,omitempty"`
}

// MemTotal returns the run's total off-chip line transfers.
func (r *RunSnapshot) MemTotal() uint64 {
	var n uint64
	for a := 0; a < int(trace.NumArrays); a++ {
		n += r.MemReads[a] + r.MemWrites[a]
	}
	return n
}

// Observer receives run telemetry. Implementations must treat snapshots as
// read-only values; engines may call an Observer from the goroutine running
// the simulation, so implementations shared across concurrent runs must be
// safe for concurrent use (Timeline and Logger are).
type Observer interface {
	// PhaseDone is called after every simulated computation phase.
	PhaseDone(PhaseSnapshot)
	// IterationDone is called after every completed synchronous iteration.
	IterationDone(IterationSnapshot)
	// RunDone is called once, when the run's Result is final.
	RunDone(RunSnapshot)
}

// Null is the no-op Observer: attaching it exercises the engine's snapshot
// path while discarding every snapshot, bounding observation overhead.
type Null struct{}

// PhaseDone implements Observer.
func (Null) PhaseDone(PhaseSnapshot) {}

// IterationDone implements Observer.
func (Null) IterationDone(IterationSnapshot) {}

// RunDone implements Observer.
func (Null) RunDone(RunSnapshot) {}

// Multi fans snapshots out to several observers in order; nil entries are
// skipped.
func Multi(obs ...Observer) Observer {
	var nz []Observer
	for _, o := range obs {
		if o != nil {
			nz = append(nz, o)
		}
	}
	return multi(nz)
}

type multi []Observer

func (m multi) PhaseDone(s PhaseSnapshot) {
	for _, o := range m {
		o.PhaseDone(s)
	}
}

func (m multi) IterationDone(s IterationSnapshot) {
	for _, o := range m {
		o.IterationDone(s)
	}
}

func (m multi) RunDone(s RunSnapshot) {
	for _, o := range m {
		o.RunDone(s)
	}
}

// TagGeneration wraps o so every RunDone snapshot carries the given
// prepared-artifact generation. Phase and iteration snapshots pass through
// untouched; a nil o yields nil.
func TagGeneration(o Observer, gen uint64) Observer {
	if o == nil {
		return nil
	}
	return genTagger{o: o, gen: gen}
}

type genTagger struct {
	o   Observer
	gen uint64
}

func (g genTagger) PhaseDone(s PhaseSnapshot)         { g.o.PhaseDone(s) }
func (g genTagger) IterationDone(s IterationSnapshot) { g.o.IterationDone(s) }
func (g genTagger) RunDone(s RunSnapshot) {
	s.Generation = g.gen
	g.o.RunDone(s)
}

// ArrayNames returns the trace array legend, indexed like the MemReads and
// MemWrites snapshot fields.
func ArrayNames() []string {
	out := make([]string, trace.NumArrays)
	for a := trace.Array(0); a < trace.NumArrays; a++ {
		out[a] = a.String()
	}
	return out
}
