package cache

import (
	"math/rand"
	"sync"
	"testing"

	"chgraph/internal/trace"
)

// refCache is a linear-scan cache with the replacement and state rules
// Cache must reproduce: a probe compares every valid way's tag, a fill
// takes the set's first Invalid way, else its least recently used one.
type refCache struct {
	cfg          Config
	sets         uint64
	ways         []refWay // set-major, cfg.Ways per set
	tick         uint64
	hits, misses uint64
}

type refWay struct {
	valid bool
	line  uint64
	st    State
	arr   trace.Array
	lru   uint64
}

func newRef(cfg Config) *refCache {
	sets := uint64(cfg.Sets())
	return &refCache{cfg: cfg, sets: sets, ways: make([]refWay, sets*uint64(cfg.Ways))}
}

func (r *refCache) set(line uint64) int {
	if r.cfg.Hashed {
		line = line * 0x9E3779B97F4A7C15 >> 40
	}
	return int(line % r.sets)
}

// find returns line's set and its way within the set (-1 if absent).
func (r *refCache) find(line uint64) (set, way int) {
	set = r.set(line)
	for w, x := range r.setWays(set) {
		if x.valid && x.line == line {
			return set, w
		}
	}
	return set, -1
}

func (r *refCache) setWays(set int) []refWay {
	n := int(r.cfg.Ways)
	return r.ways[set*n : set*n+n]
}

func (r *refCache) lookup(line uint64) (set, way int) {
	set, way = r.find(line)
	if way < 0 {
		r.misses++
		return set, -1
	}
	r.hits++
	r.tick++
	r.setWays(set)[way].lru = r.tick
	return set, way
}

func clampState(arr trace.Array, st State) State {
	if st == Modified && arr.ReadOnly() {
		return Exclusive
	}
	return st
}

func (r *refCache) fill(line uint64, arr trace.Array, st State) (set, way int, ev Victim) {
	st = clampState(arr, st)
	set, way = r.find(line)
	ws := r.setWays(set)
	r.tick++
	if way >= 0 {
		x := &ws[way]
		x.st = max(x.st, st)
		x.arr, x.lru = arr, r.tick
		return set, way, Victim{}
	}
	way = -1
	for w := range ws {
		if !ws[w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = 0
		for w := range ws {
			if ws[w].lru < ws[way].lru {
				way = w
			}
		}
		x := ws[way]
		ev = Victim{Line: x.line, Arr: x.arr, Dirty: x.st == Modified, Valid: true}
	}
	ws[way] = refWay{valid: true, line: line, st: st, arr: arr, lru: r.tick}
	return set, way, ev
}

func (r *refCache) invalidate(line uint64) (present, dirty bool) {
	set, way := r.find(line)
	if way < 0 {
		return false, false
	}
	x := &r.setWays(set)[way]
	dirty = x.st == Modified
	*x = refWay{}
	return true, dirty
}

func (r *refCache) state(line uint64) State {
	set, way := r.find(line)
	if way < 0 {
		return Invalid
	}
	return r.setWays(set)[way].st
}

func (r *refCache) setState(line uint64, st State) {
	if set, way := r.find(line); way >= 0 {
		x := &r.setWays(set)[way]
		x.st = clampState(x.arr, st)
	}
}

// refConfigs spans the associativities the signature words must handle:
// one way, ways that leave unused bytes in a set's last word (3, 12, 20),
// and whole words (8, 16); set counts include non-powers of two and the
// hashed indexing of the L3.
var refConfigs = []Config{
	{SizeBytes: 3 * 1 * LineBytes, Ways: 1},
	{SizeBytes: 2 * 3 * LineBytes, Ways: 3},
	{SizeBytes: 3 * 8 * LineBytes, Ways: 8, Hashed: true},
	{SizeBytes: 4 * 12 * LineBytes, Ways: 12},
	{SizeBytes: 2 * 16 * LineBytes, Ways: 16, Hashed: true},
	{SizeBytes: 3 * 20 * LineBytes, Ways: 20},
}

// linePool returns the lines a harness draws from: per set, lines sharing
// signature 1 (line 0's) and lines sharing one other signature, so probes
// meet false candidates and borrows through the zero-byte test, plus lines
// on any signature. There are more lines per set than ways, so sets evict.
func linePool(c *Cache) []uint64 {
	per := max(int(c.cfg.Ways)/2+1, 2) // lines per shared signature per set
	var pool []uint64
	for set := 0; set < int(c.sets); set++ {
		sig1, sigK, other := 0, 0, 0
		for line := uint64(0); sig1 < per || sigK < per || other < 2; line++ {
			if c.set(line) != set {
				continue
			}
			switch s := sigOf(line); {
			case s == 1 && sig1 < per:
				sig1++
			case s == 200 && sigK < per:
				sigK++
			case s != 1 && s != 200 && other < 2:
				other++
			default:
				continue
			}
			pool = append(pool, line)
		}
	}
	return pool
}

// cacheHarness drives a Cache and a refCache with the same operations and
// fails on the first difference in any returned way, state, victim or
// hit/miss count.
type cacheHarness struct {
	tb    testing.TB
	cfg   Config
	c     *Cache
	ref   *refCache
	lines []uint64
	n     int
}

// refPools holds linePool for each of refConfigs, built once: a fuzz input
// should spend its time on operations, not on the search for shared
// signatures.
var refPools = sync.OnceValue(func() [][]uint64 {
	pools := make([][]uint64, len(refConfigs))
	for i, cfg := range refConfigs {
		pools[i] = linePool(New(cfg))
	}
	return pools
})

// newHarness starts a harness on refConfigs[i].
func newHarness(tb testing.TB, i int) *cacheHarness {
	cfg := refConfigs[i]
	return &cacheHarness{tb: tb, cfg: cfg, c: New(cfg), ref: newRef(cfg), lines: refPools()[i]}
}

// wayOf maps a reference (set, way) to the Cache's way index.
func (h *cacheHarness) wayOf(set, way int) int {
	if way < 0 {
		return -1
	}
	return set*h.c.stride + way
}

func (h *cacheHarness) fail(format string, args ...any) {
	h.tb.Helper()
	args = append([]any{h.cfg.Ways, h.c.sets, h.n}, args...)
	h.tb.Fatalf("%d-way x %d sets, op %d: "+format, args...)
}

// step applies one operation, decoded from three bytes: the operation, the
// line's index in the pool, and a state/array selector.
func (h *cacheHarness) step(op, li, x byte) {
	h.tb.Helper()
	h.n++
	c, ref := h.c, h.ref
	line := h.lines[int(li)%len(h.lines)]
	arr := trace.VertexValue
	if x&4 != 0 {
		arr = trace.OAGEdge // read-only: Modified clamps to Exclusive
	}
	st := Shared + State(x%3)
	switch op % 6 {
	case 0, 1: // an access: LookupWay, and a Fill of the line on a miss
		set, want := ref.lookup(line)
		if got := c.LookupWay(line); got != h.wayOf(set, want) {
			h.fail("LookupWay(%d) = %d, want %d", line, got, h.wayOf(set, want))
		}
		if want < 0 && op%6 == 0 {
			h.fill(line, arr, st)
		}
	case 2:
		h.fill(line, arr, st)
	case 3:
		gp, gd := c.Invalidate(line)
		wp, wd := ref.invalidate(line)
		if gp != wp || gd != wd {
			h.fail("Invalidate(%d) = (%v, %v), want (%v, %v)", line, gp, gd, wp, wd)
		}
	case 4:
		set, want := ref.find(line)
		if got := c.Probe(line); got != h.wayOf(set, want) {
			h.fail("Probe(%d) = %d, want %d", line, got, h.wayOf(set, want))
		}
		if x&8 != 0 {
			c.SetState(line, st)
		} else if want >= 0 {
			c.SetStateAt(h.wayOf(set, want), st)
		}
		ref.setState(line, st)
	case 5:
		for _, l := range h.lines {
			if got, want := c.State(l), ref.state(l); got != want {
				h.fail("State(%d) = %v, want %v", l, got, want)
			}
		}
	}
	if got, want := c.State(line), ref.state(line); got != want {
		h.fail("State(%d) = %v, want %v", line, got, want)
	}
	if c.Hits != ref.hits || c.Misses != ref.misses {
		h.fail("hits/misses = %d/%d, want %d/%d", c.Hits, c.Misses, ref.hits, ref.misses)
	}
}

func (h *cacheHarness) fill(line uint64, arr trace.Array, st State) {
	h.tb.Helper()
	set, way, want := h.ref.fill(line, arr, st)
	if got := h.c.Fill(line, arr, st); got != want {
		h.fail("Fill(%d) victim = %+v, want %+v", line, got, want)
	}
	if got := h.c.Probe(line); got != h.wayOf(set, way) {
		h.fail("Fill(%d) placed the line in way %d, want %d", line, got, h.wayOf(set, way))
	}
}

// TestCacheMatchesReference drives random operation sequences through
// every reference config, with a Reset half way that must leave the cache
// as empty as the fresh reference it is then compared against.
func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k, cfg := range refConfigs {
		h := newHarness(t, k)
		for i := 0; i < 40000; i++ {
			if i == 20000 {
				h.c.Reset()
				h.ref = newRef(cfg)
			}
			h.step(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
	}
}

// TestLinePoolSharesSignatures checks the pool really puts several lines
// of one signature in every set, the case the zero-byte test can get wrong.
func TestLinePoolSharesSignatures(t *testing.T) {
	for _, cfg := range refConfigs {
		c := New(cfg)
		n := map[[2]uint64]int{}
		for _, l := range linePool(c) {
			n[[2]uint64{uint64(c.set(l)), sigOf(l)}]++
		}
		for set := uint64(0); set < uint64(c.sets); set++ {
			if n[[2]uint64{set, 1}] < 2 || n[[2]uint64{set, 200}] < 2 {
				t.Fatalf("%d-way: set %d has %d lines of signature 1 and %d of 200, want >= 2 each",
					cfg.Ways, set, n[[2]uint64{set, 1}], n[[2]uint64{set, 200}])
			}
		}
	}
}

// FuzzCacheOps runs fuzzer-chosen operation sequences through the
// reference harness: the first byte picks the config, then every three
// bytes are one operation.
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 2, 3, 0, 3, 4, 3, 0, 1, 5, 0, 0})
	f.Add([]byte{3, 0, 0, 0, 0, 13, 1, 0, 26, 2, 1, 0, 3, 3, 7, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		h := newHarness(t, int(data[0])%len(refConfigs))
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			h.step(ops[0], ops[1], ops[2])
		}
	})
}
