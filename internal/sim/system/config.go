// Package system assembles the simulated multicore of Table I — per-core
// L1D/L2, a shared banked L3 with a standalone MESI directory beside it (the
// L3 is non-inclusive; see Hierarchy), 4x4 mesh NoC and DDR4 memory
// controllers — and replays per-agent operation streams against it with a
// min-clock discrete-event scheduler. ChGraph's three per-core
// agents (hardware chain generator, chain-driven prefetcher, core) are
// coupled through bounded FIFOs, reproducing the run-ahead/latency-hiding
// behaviour of §V.
package system

import (
	"fmt"

	"chgraph/internal/sim/cache"
	"chgraph/internal/sim/mem"
	"chgraph/internal/sim/noc"
)

// Config describes the simulated system.
type Config struct {
	// Cores is the number of general-purpose cores (16 in Table I).
	Cores int
	// L1 and L2 are per-core private caches; L3Bank describes one of
	// L3Banks shared, hashed L3 banks.
	L1, L2, L3Bank cache.Config
	L3Banks        int
	// Mesh is the global NoC.
	Mesh noc.Config
	// Mem is main memory.
	Mem mem.Config

	// CoreMLP approximates out-of-order overlap of core demand misses:
	// latency beyond the L1 hit time is divided by this factor when
	// advancing a core agent's clock (ZSim's OOO core overlaps misses;
	// our trace replay is sequential, so this amortizes them).
	CoreMLP int
	// EngineMLP is the same factor for the pipelined HCG agent.
	EngineMLP int
	// PrefetchMLP is the factor for the CP agent, which keeps several
	// prefetches outstanding.
	PrefetchMLP int
}

// Bounds Validate enforces on the structures New allocates: a config past
// them could not be built on a host, let alone replayed. The full-scale
// Table I system models ~0.6M cache lines over 16 cores and banks.
const (
	maxUnits      = 1 << 10 // cores, L3 banks, controllers, mesh side
	maxCacheLines = 1 << 22 // summed over every cache instance
)

// Validate reports whether the simulator can run c: at least one core and
// one L3 bank, non-zero associativity at every cache level (set counts
// divide by it), and sizes within the host bounds above. Zero mesh
// dimensions, memory controllers and MLP factors are fine — the components
// treat them as 1.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > maxUnits {
		return fmt.Errorf("system: %d cores outside [1, %d]", c.Cores, maxUnits)
	}
	if c.L3Banks < 1 || c.L3Banks > maxUnits {
		return fmt.Errorf("system: %d L3 banks outside [1, %d]", c.L3Banks, maxUnits)
	}
	if c.Mem.Controllers > maxUnits || c.Mesh.Width > maxUnits || c.Mesh.Height > maxUnits {
		return fmt.Errorf("system: %d memory controllers or %dx%d mesh exceeds %d",
			c.Mem.Controllers, c.Mesh.Width, c.Mesh.Height, maxUnits)
	}
	var lines uint64
	for _, lv := range []struct {
		name string
		cfg  cache.Config
		n    int
	}{{"L1", c.L1, c.Cores}, {"L2", c.L2, c.Cores}, {"L3 bank", c.L3Bank, c.L3Banks}} {
		if lv.cfg.Ways == 0 {
			return fmt.Errorf("system: %s has 0 ways", lv.name)
		}
		per := uint64(lv.cfg.Sets()) * uint64(lv.cfg.Ways)
		if lines += per * uint64(lv.n); per > maxCacheLines || lines > maxCacheLines {
			return fmt.Errorf("system: caches hold more than %d lines", maxCacheLines)
		}
	}
	return nil
}

// DefaultConfig returns the paper's Table I system at full scale.
func DefaultConfig() Config {
	return Config{
		Cores:   16,
		L1:      cache.Config{SizeBytes: 32 << 10, Ways: 8, Latency: 3},
		L2:      cache.Config{SizeBytes: 128 << 10, Ways: 8, Latency: 6},
		L3Bank:  cache.Config{SizeBytes: 2 << 20, Ways: 16, Latency: 24, Hashed: true},
		L3Banks: 16,
		Mesh:    noc.Config{Width: 4, Height: 4, RouterCycles: 1, LinkCycles: 1},
		// DDR4-1600, 12.8 GB/s per controller: one 64 B line every ~11
		// cycles at 2.2 GHz; ~90 ns load-to-use is ~200 cycles.
		Mem:         mem.Config{Controllers: 4, LatencyCycles: 200, ServiceCycles: 11},
		CoreMLP:     4,
		EngineMLP:   8,
		PrefetchMLP: 16,
	}
}

// ScaledConfig returns the mini-scale system used with the ~1/1000-scale
// datasets of internal/gen. Capacities are shrunk so that the working-set :
// cache-capacity ratios of the paper's full-scale runs are preserved (the
// mini datasets' value arrays exceed the scaled LLC severalfold, exactly as
// the real datasets exceed 32 MB), while latencies, associativity, banking,
// NoC and memory bandwidth keep their Table I structure. DESIGN.md §3
// documents this substitution.
func ScaledConfig() Config {
	c := DefaultConfig()
	c.L1.SizeBytes = 2 << 10
	c.L2.SizeBytes = 8 << 10
	c.L3Bank.SizeBytes = 2 << 10 // 32 KB total: 32 MB / 1000, the dataset scale
	return c
}

// WithCores returns a copy of c resized to n cores (Figure 20). The L3
// capacity and memory bandwidth stay fixed, as in the paper's scaling study.
func (c Config) WithCores(n int) Config {
	c.Cores = n
	return c
}

// WithLLCBytes returns a copy of c with the total L3 capacity set to bytes,
// split evenly over the existing banks (Figure 19).
func (c Config) WithLLCBytes(bytes uint64) Config {
	c.L3Bank.SizeBytes = bytes / uint64(c.L3Banks)
	if c.L3Bank.SizeBytes < cache.LineBytes*uint64(c.L3Bank.Ways) {
		c.L3Bank.SizeBytes = cache.LineBytes * uint64(c.L3Bank.Ways)
	}
	return c
}

// TotalLLCBytes returns the aggregate L3 capacity.
func (c Config) TotalLLCBytes() uint64 {
	return c.L3Bank.SizeBytes * uint64(c.L3Banks)
}
