// Package cache implements the set-associative caches of the simulated
// memory hierarchy (Table I): per-core L1D and L2, and the banks of the
// shared L3. Coherence metadata is not kept here: the directory is a
// standalone structure beside the L3 banks (internal/sim/system, DESIGN.md
// §8.3), so the L3 is non-inclusive. Lines are 64 bytes with LRU
// replacement and MESI states. Each line carries the trace.Array tag of the
// data it holds so off-chip traffic can be attributed per array (Figure 15),
// and lines holding read-only arrays (the OAG and CSR structure) are never
// dirty, so they are dropped on eviction without a writeback (§V-A).
package cache

import (
	"fmt"

	"chgraph/internal/trace"
)

// LineBytes is the cache line size used throughout the hierarchy.
const LineBytes = 64

// State is the per-line MESI state as seen by one cache. For the shared L3
// the state distinguishes only clean (Exclusive) from dirty-at-L3
// (Modified); sharing among private caches is tracked by the directory.
type State uint8

const (
	// Invalid marks an empty way.
	Invalid State = iota
	// Shared holds clean data that other caches may also hold.
	Shared
	// Exclusive holds clean data held by no other private cache.
	Exclusive
	// Modified holds dirty data that must be written back on eviction.
	Modified
)

// Config sizes one cache.
type Config struct {
	// SizeBytes is the total capacity; must be a multiple of
	// Ways*LineBytes.
	SizeBytes uint64
	// Ways is the associativity.
	Ways uint32
	// Latency is the access latency in cycles.
	Latency uint64
	// Hashed selects hashed set indexing (used by the L3 per Table I);
	// otherwise the low line-address bits index the set.
	Hashed bool
}

// Sets returns the number of sets implied by the config.
func (c Config) Sets() uint32 {
	s := uint32(c.SizeBytes / uint64(c.Ways) / LineBytes)
	if s == 0 {
		s = 1
	}
	return s
}

// Victim describes a line displaced by a fill.
type Victim struct {
	Line  uint64
	Arr   trace.Array
	Dirty bool
	Valid bool
}

// Cache is one set-associative cache.
type Cache struct {
	cfg  Config
	sets uint32
	// pow2 reports a power-of-two set count, whose set index is a mask;
	// other counts (WithLLCBytes sweeps can produce them) take the modulo.
	pow2 bool

	// tags holds noLine in every Invalid way, so a probe scans the tags
	// alone.
	tags  []uint64
	state []State
	arr   []trace.Array
	lru   []uint64

	tick uint64

	// Hits and Misses count lookups.
	Hits, Misses uint64
}

// noLine is the tag of an Invalid way; no line address reaches it.
const noLine = ^uint64(0)

// New builds a cache.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	n := sets * cfg.Ways
	c := &Cache{
		cfg:   cfg,
		sets:  sets,
		tags:  make([]uint64, n),
		state: make([]State, n),
		arr:   make([]trace.Array, n),
		lru:   make([]uint64, n),
		pow2:  sets&(sets-1) == 0,
	}
	c.Reset()
	return c
}

// Reset returns the cache to its post-New state — every way Invalid, LRU
// clock and hit/miss counters zeroed — without reallocating the tag arrays,
// so a recycled simulated system replays a run bit-identically to a fresh
// one.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = noLine
		c.state[i] = Invalid
		c.arr[i] = 0
		c.lru[i] = 0
	}
	c.tick = 0
	c.Hits, c.Misses = 0, 0
}

// Latency returns the configured access latency.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// SizeBytes returns the configured capacity.
func (c *Cache) SizeBytes() uint64 { return c.cfg.SizeBytes }

// base returns the index of the first way of line's set.
func (c *Cache) base(line uint64) int {
	if c.cfg.Hashed {
		line = line * 0x9E3779B97F4A7C15 >> 40
	}
	if c.pow2 {
		line &= uint64(c.sets - 1)
	} else {
		line %= uint64(c.sets)
	}
	return int(line) * int(c.cfg.Ways)
}

// find returns the way index of line within its set, or -1.
func (c *Cache) find(line uint64) int { return c.wayIn(c.base(line), line) }

// wayIn returns the way index of line within the set starting at base, or
// -1.
func (c *Cache) wayIn(base int, line uint64) int {
	for w, t := range c.tags[base : base+int(c.cfg.Ways)] {
		if t == line {
			return base + w
		}
	}
	return -1
}

// Lookup probes for line, updating LRU and hit/miss counters.
func (c *Cache) Lookup(line uint64) bool { return c.LookupWay(line) >= 0 }

// LookupWay is Lookup returning the hit way (for StateAt/SetStateAt), or
// -1 on a miss. The way stays valid until the next Fill or Invalidate of
// this cache.
func (c *Cache) LookupWay(line uint64) int {
	if w := c.find(line); w >= 0 {
		c.tick++
		c.lru[w] = c.tick
		c.Hits++
		return w
	}
	c.Misses++
	return -1
}

// Contains probes for line without updating statistics or LRU.
func (c *Cache) Contains(line uint64) bool { return c.find(line) >= 0 }

// State returns line's state (Invalid if absent).
func (c *Cache) State(line uint64) State {
	w := c.find(line)
	if w < 0 {
		return Invalid
	}
	return c.state[w]
}

// SetState updates line's state; no-op if absent. Read-only arrays are
// clamped to clean states.
func (c *Cache) SetState(line uint64, st State) {
	if w := c.find(line); w >= 0 {
		c.SetStateAt(w, st)
	}
}

// StateAt returns the state of way w, as returned by LookupWay.
func (c *Cache) StateAt(w int) State { return c.state[w] }

// SetStateAt is SetState on way w, as returned by LookupWay.
func (c *Cache) SetStateAt(w int, st State) {
	if st == Modified && c.arr[w].ReadOnly() {
		st = Exclusive
	}
	c.state[w] = st
}

// Fill installs line (tagged arr, with state st), evicting the LRU way if
// the set is full.
func (c *Cache) Fill(line uint64, arr trace.Array, st State) Victim {
	if st == Modified && arr.ReadOnly() {
		st = Exclusive
	}
	base := c.base(line)
	if w := c.wayIn(base, line); w >= 0 {
		if st > c.state[w] {
			c.state[w] = st
		}
		c.arr[w] = arr
		c.tick++
		c.lru[w] = c.tick
		return Victim{}
	}
	state := c.state[base : base+int(c.cfg.Ways)]
	lru := c.lru[base : base+len(state)]
	v := 0
	for w, s := range state {
		if s == Invalid {
			v = w
			break
		}
		if lru[w] < lru[v] {
			v = w
		}
	}
	victim := base + v
	var ev Victim
	if c.state[victim] != Invalid {
		ev = Victim{
			Line:  c.tags[victim],
			Arr:   c.arr[victim],
			Dirty: c.state[victim] == Modified,
			Valid: true,
		}
	}
	c.tags[victim] = line
	c.arr[victim] = arr
	c.state[victim] = st
	c.tick++
	c.lru[victim] = c.tick
	return ev
}

// Invalidate removes line if present, returning whether it was present and
// whether it was dirty (the caller propagates the writeback).
func (c *Cache) Invalidate(line uint64) (present, dirty bool) {
	w := c.find(line)
	if w < 0 {
		return false, false
	}
	dirty = c.state[w] == Modified
	c.tags[w] = noLine
	c.state[w] = Invalid
	return true, dirty
}

// Accesses returns total lookups.
func (c *Cache) Accesses() uint64 { return c.Hits + c.Misses }

// String describes the geometry.
func (c *Cache) String() string {
	return fmt.Sprintf("cache{%dB, %d sets x %d ways, %d cyc}", c.cfg.SizeBytes, c.sets, c.cfg.Ways, c.cfg.Latency)
}
