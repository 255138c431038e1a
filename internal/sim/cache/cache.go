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
	"math/bits"

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
//
// A probe compares one signature byte per way before any tag: each valid
// way carries a byte in 1..255 hashed from its line, packed eight to a word
// in sigs, and a set's words are tested all at once for bytes equal to the
// probed line's signature. A way's byte is 0 exactly when the way is
// Invalid, so the same words also locate a set's first empty way. Only
// candidate ways — a flagged byte whose index is below Ways — get a tag
// compare. The test may flag a byte just above a match (a borrow), even an
// Invalid way's, so Invalid ways hold the tag noLine, which no probe
// matches. Every per-way array is laid out with a stride of ⌈Ways/8⌉*8
// ways per set, so way index w's signature is byte w of sigs; the slots
// past Ways in a set are padding whose bytes stay 0 and whose tags are
// never compared.
type Cache struct {
	cfg  Config
	sets uint32
	// pow2 reports a power-of-two set count, whose set index is a mask;
	// other counts (WithLLCBytes sweeps can produce them) take the modulo.
	pow2   bool
	ways   int // cfg.Ways
	words  int // signature words per set
	stride int // way slots per set: words*8

	sigs  []uint64
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

// Signature-word constants: one bit at the bottom and the top of each byte.
const (
	lowBits  = 0x0101010101010101
	highBits = 0x8080808080808080
)

// sigOf returns line's signature byte, in 1..255, from the top byte of a
// multiplicative hash, which mixes every bit of the line: lines that share
// a set still spread over the signatures.
func sigOf(line uint64) uint64 {
	return (line*0xD6E8FEB86659FD93>>56)*255>>8 + 1
}

// zeroBytes flags the zero bytes of x in their top bits. Every zero byte is
// flagged and the lowest flag is always a zero byte; a flag above it may be
// false (a borrow through a 0x01 byte).
func zeroBytes(x uint64) uint64 { return (x - lowBits) &^ x & highBits }

// New builds a cache.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	words := (int(cfg.Ways) + 7) / 8
	n := int(sets) * words * 8
	c := &Cache{
		cfg:    cfg,
		sets:   sets,
		pow2:   sets&(sets-1) == 0,
		ways:   int(cfg.Ways),
		words:  words,
		stride: words * 8,
		sigs:   make([]uint64, n/8),
		tags:   make([]uint64, n),
		state:  make([]State, n),
		arr:    make([]trace.Array, n),
		lru:    make([]uint64, n),
	}
	c.Reset()
	return c
}

// Reset returns the cache to its post-New state — every way Invalid, LRU
// clock and hit/miss counters cleared — without reallocating the
// way arrays, so a recycled simulated system replays a run bit-identically
// to a fresh one.
func (c *Cache) Reset() {
	clear(c.sigs)
	for base := 0; base < len(c.tags); base += c.stride {
		for w := base; w < base+c.ways; w++ {
			c.tags[w] = noLine
		}
	}
	clear(c.state)
	clear(c.arr)
	clear(c.lru)
	c.tick = 0
	c.Hits, c.Misses = 0, 0
}

// Latency returns the configured access latency.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// SizeBytes returns the configured capacity.
func (c *Cache) SizeBytes() uint64 { return c.cfg.SizeBytes }

// set returns the index of line's set.
func (c *Cache) set(line uint64) int {
	if c.cfg.Hashed {
		line = line * 0x9E3779B97F4A7C15 >> 40
	}
	if c.pow2 {
		line &= uint64(c.sets - 1)
	} else {
		line %= uint64(c.sets)
	}
	return int(line)
}

// find returns the way index of line, or -1.
func (c *Cache) find(line uint64) int { return c.wayIn(c.set(line), line) }

// wayIn returns the way index of line within set, or -1: the set's
// signature words are scanned for line's byte, and only those candidates
// get a tag compare.
func (c *Cache) wayIn(set int, line uint64) int {
	base := set * c.stride
	pat := sigOf(line) * lowBits
	for i, word := range c.sigs[set*c.words : set*c.words+c.words] {
		for m := zeroBytes(word ^ pat); m != 0; m &= m - 1 {
			w := i*8 + bits.TrailingZeros64(m)>>3
			if w < c.ways && c.tags[base+w] == line {
				return base + w
			}
		}
	}
	return -1
}

// victim returns the way a fill of set replaces: its first Invalid way,
// else its least recently used one.
func (c *Cache) victim(set int) int {
	base := set * c.stride
	for i, word := range c.sigs[set*c.words : set*c.words+c.words] {
		if m := zeroBytes(word); m != 0 {
			// The lowest flag is a true zero byte; past Ways it is the
			// last word's padding, and the set has no Invalid way.
			if w := i*8 + bits.TrailingZeros64(m)>>3; w < c.ways {
				return base + w
			}
			break
		}
	}
	lru := c.lru[base : base+c.ways]
	v := 0
	for w, t := range lru {
		if t < lru[v] {
			v = w
		}
	}
	return base + v
}

// setSig writes way w's signature byte.
func (c *Cache) setSig(w int, sig uint64) {
	sh := uint(w&7) * 8
	c.sigs[w>>3] = c.sigs[w>>3]&^(0xFF<<sh) | sig<<sh
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

// Probe returns line's way (for StateAt/SetStateAt) without updating
// statistics or LRU, or -1 if line is absent.
func (c *Cache) Probe(line uint64) int { return c.find(line) }

// State returns line's state (Invalid if absent).
func (c *Cache) State(line uint64) State {
	w := c.find(line)
	if w < 0 {
		return Invalid
	}
	return c.state[w]
}

// SetState updates line's state; no-op if absent. Read-only arrays are
// clamped to clean states. st must be a valid state: Invalidate empties a
// way.
func (c *Cache) SetState(line uint64, st State) {
	if w := c.find(line); w >= 0 {
		c.SetStateAt(w, st)
	}
}

// StateAt returns the state of way w, as returned by LookupWay.
func (c *Cache) StateAt(w int) State { return c.state[w] }

// SetStateAt is SetState on way w, as returned by LookupWay or Probe.
func (c *Cache) SetStateAt(w int, st State) {
	if st == Modified && c.arr[w].ReadOnly() {
		st = Exclusive
	}
	c.state[w] = st
}

// Fill installs line (tagged arr, with state st), evicting the LRU way if
// the set is full. st must be a valid state.
func (c *Cache) Fill(line uint64, arr trace.Array, st State) Victim {
	if st == Modified && arr.ReadOnly() {
		st = Exclusive
	}
	set := c.set(line)
	if w := c.wayIn(set, line); w >= 0 {
		if st > c.state[w] {
			c.state[w] = st
		}
		c.arr[w] = arr
		c.tick++
		c.lru[w] = c.tick
		return Victim{}
	}
	v := c.victim(set)
	var ev Victim
	if c.state[v] != Invalid {
		ev = Victim{
			Line:  c.tags[v],
			Arr:   c.arr[v],
			Dirty: c.state[v] == Modified,
			Valid: true,
		}
	}
	c.tags[v] = line
	c.arr[v] = arr
	c.state[v] = st
	c.setSig(v, sigOf(line))
	c.tick++
	c.lru[v] = c.tick
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
	c.setSig(w, 0)
	return true, dirty
}

// Accesses returns total lookups.
func (c *Cache) Accesses() uint64 { return c.Hits + c.Misses }

// String describes the geometry.
func (c *Cache) String() string {
	return fmt.Sprintf("cache{%dB, %d sets x %d ways, %d cyc}", c.cfg.SizeBytes, c.sets, c.cfg.Ways, c.cfg.Latency)
}
