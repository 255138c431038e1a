package system

import (
	"testing"

	"chgraph/internal/trace"
)

var lay trace.Layout

func testConfig() Config {
	c := ScaledConfig()
	c.Cores = 4
	return c
}

func TestReuseHitsAfterFirstTouch(t *testing.T) {
	h := NewHierarchy(testConfig())
	addr := lay.Addr(trace.VertexValue, 100)
	_, d := h.Access(0, addr, trace.VertexValue, false, false, 0)
	if d != DepthMem {
		t.Fatalf("first touch depth = %v, want DepthMem", d)
	}
	_, d = h.Access(0, addr, trace.VertexValue, false, false, 1000)
	if d != DepthL1 {
		t.Fatalf("second touch depth = %v, want DepthL1", d)
	}
	if h.Mem().TotalAccesses() != 1 {
		t.Fatalf("mem accesses = %d", h.Mem().TotalAccesses())
	}
}

func TestWriteInvalidatesOtherSharers(t *testing.T) {
	h := NewHierarchy(testConfig())
	addr := lay.Addr(trace.VertexValue, 8)
	h.Access(0, addr, trace.VertexValue, false, false, 0)
	h.Access(1, addr, trace.VertexValue, false, false, 100)
	// Core 1 writes: core 0's copy must be invalidated.
	h.Access(1, addr, trace.VertexValue, true, false, 200)
	_, d := h.Access(0, addr, trace.VertexValue, false, false, 300)
	if d == DepthL1 || d == DepthL2 {
		t.Fatalf("core 0 still hit privately after remote write (depth %v)", d)
	}
	if h.InvalidationsSent == 0 {
		t.Fatal("no invalidations were sent")
	}
}

func TestDirtyDataForwardedNotRefetched(t *testing.T) {
	h := NewHierarchy(testConfig())
	addr := lay.Addr(trace.VertexValue, 16)
	h.Access(0, addr, trace.VertexValue, true, false, 0) // core 0 dirty
	before := h.Mem().TotalAccesses()
	_, d := h.Access(1, addr, trace.VertexValue, false, false, 100)
	if d == DepthMem {
		t.Fatal("dirty line refetched from memory instead of forwarded")
	}
	// Only the original fill (and possibly a writeback) may hit DRAM; the
	// read itself must not add a DRAM read.
	if h.Mem().Reads[trace.VertexValue] != before {
		t.Fatalf("extra DRAM reads: %d", h.Mem().Reads[trace.VertexValue]-before)
	}
}

func TestEngineAccessBypassesL1(t *testing.T) {
	h := NewHierarchy(testConfig())
	addr := lay.Addr(trace.OAGEdge, 5)
	h.Access(0, addr, trace.OAGEdge, false, true, 0)
	// A core (L1) access next: must miss L1 (engine filled only L2),
	// then hit L2.
	_, d := h.Access(0, addr, trace.OAGEdge, false, false, 100)
	if d != DepthL2 {
		t.Fatalf("depth = %v, want DepthL2", d)
	}
}

func TestOAGLinesNeverWrittenBack(t *testing.T) {
	cfg := testConfig()
	h := NewHierarchy(cfg)
	// Stream enough OAG lines through a tiny hierarchy to force
	// evictions everywhere; no DRAM writes may appear.
	for i := uint64(0); i < 5000; i++ {
		h.Access(0, lay.Addr(trace.OAGEdge, i*16), trace.OAGEdge, false, true, i*10)
	}
	if h.Mem().Writes[trace.OAGEdge] != 0 {
		t.Fatalf("OAG writebacks = %d, want 0 (drop-on-evict, §V-A)", h.Mem().Writes[trace.OAGEdge])
	}
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	h := NewHierarchy(testConfig())
	// Dirty many distinct value lines; evictions must eventually write
	// some back.
	for i := uint64(0); i < 5000; i++ {
		addr := lay.Addr(trace.VertexValue, i*8)
		h.Access(0, addr, trace.VertexValue, false, false, i*100)
		h.Access(0, addr, trace.VertexValue, true, false, i*100+50)
	}
	if h.Mem().Writes[trace.VertexValue] == 0 {
		t.Fatal("no writebacks despite dirty evictions")
	}
}

func TestRunPhaseSingleAgent(t *testing.T) {
	sys := New(testConfig())
	ops := []trace.Op{
		{Addr: lay.Addr(trace.VertexValue, 0), Arr: trace.VertexValue, Compute: 5},
		{Addr: lay.Addr(trace.VertexValue, 0), Arr: trace.VertexValue, Compute: 5},
	}
	dur := sys.RunPhase([]*Agent{{Name: "core0", Core: 0, Ops: ops, MLP: 1, IsCore: true}})
	if dur == 0 {
		t.Fatal("phase took zero time")
	}
	// First access misses to DRAM (>=200 cycles), second hits L1.
	if dur < 200+10 {
		t.Fatalf("duration %d too small for a DRAM miss", dur)
	}
	if sys.Elapsed() != dur {
		t.Fatal("elapsed mismatch")
	}
	// A second phase continues the clock.
	dur2 := sys.RunPhase([]*Agent{{Name: "core0", Core: 0, Ops: ops[:1], MLP: 1, IsCore: true}})
	if sys.Elapsed() != dur+dur2 {
		t.Fatal("phases must accumulate")
	}
}

func TestFIFOCoupling(t *testing.T) {
	sys := New(testConfig())
	fifo := NewFIFO("f", 2)
	// Producer pushes 5 tokens; consumer pops 5. Capacity 2 forces
	// blocking both ways.
	var prodOps, consOps []trace.Op
	for i := 0; i < 5; i++ {
		prodOps = append(prodOps, trace.Op{Flags: trace.FlagNoMem | trace.FlagPushChain, Compute: 1})
		consOps = append(consOps, trace.Op{Flags: trace.FlagNoMem | trace.FlagPopChain, Compute: 50})
	}
	prod := &Agent{Name: "prod", Core: 0, Ops: prodOps, MLP: 1, Out: fifo}
	cons := &Agent{Name: "cons", Core: 0, Ops: consOps, MLP: 1, In: fifo, IsCore: true}
	sys.RunPhase([]*Agent{prod, cons})
	if fifo.Len() != 0 {
		t.Fatalf("fifo not drained: %d", fifo.Len())
	}
	if fifo.MaxOccupancy > 2 {
		t.Fatalf("fifo exceeded capacity: %d", fifo.MaxOccupancy)
	}
	// The slow consumer dominates: ~5*50 cycles.
	if cons.Finish < 250 {
		t.Fatalf("consumer finished too early: %d", cons.Finish)
	}
	// Producer must have been throttled by the full FIFO (it cannot
	// finish all pushes before the consumer started popping).
	if prod.FifoStallCycles == 0 {
		t.Fatal("producer never blocked on the full FIFO")
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	sys := New(testConfig())
	fifo := NewFIFO("f", 1)
	// Consumer pops but no producer pushes.
	cons := &Agent{Name: "cons", Core: 0, Ops: []trace.Op{{Flags: trace.FlagNoMem | trace.FlagPopChain}}, MLP: 1, In: fifo}
	sys.RunPhase([]*Agent{cons})
}

func TestPrefetchOpsDontBlockAgent(t *testing.T) {
	sys := New(testConfig())
	var ops []trace.Op
	for i := uint64(0); i < 100; i++ {
		ops = append(ops, trace.Op{Addr: lay.Addr(trace.VertexValue, i*8), Arr: trace.VertexValue,
			Flags: trace.FlagPrefetch | trace.FlagL2, Compute: 1})
	}
	a := &Agent{Name: "pf", Core: 0, Ops: ops, Engine: true, MLP: 1}
	dur := sys.RunPhase([]*Agent{a})
	// 100 prefetches at ~2 cycles each, not 100 x 200-cycle misses.
	if dur > 2000 {
		t.Fatalf("prefetches blocked the agent: %d cycles", dur)
	}
	if sys.Hier.Mem().TotalAccesses() == 0 {
		t.Fatal("prefetches did not reach memory")
	}
}

func TestMLPDividesLatency(t *testing.T) {
	run := func(mlp int) uint64 {
		sys := New(testConfig())
		var ops []trace.Op
		for i := uint64(0); i < 64; i++ {
			ops = append(ops, trace.Op{Addr: lay.Addr(trace.VertexValue, i*800), Arr: trace.VertexValue})
		}
		return sys.RunPhase([]*Agent{{Name: "c", Core: 0, Ops: ops, MLP: mlp, IsCore: true}})
	}
	d1, d4 := run(1), run(4)
	if d4 >= d1 {
		t.Fatalf("MLP 4 (%d) not faster than MLP 1 (%d)", d4, d1)
	}
	if d4 > d1/2 {
		t.Fatalf("MLP 4 should roughly quarter the miss time: %d vs %d", d4, d1)
	}
	// One cold miss: the latency past the L1 hit time divides exactly by
	// the MLP, for power-of-two and other MLPs.
	one := func(mlp int) uint64 {
		op := trace.Op{Addr: lay.Addr(trace.VertexValue, 0), Arr: trace.VertexValue}
		return New(testConfig()).RunPhase([]*Agent{{Name: "c", Core: 0, Ops: []trace.Op{op}, MLP: mlp, IsCore: true}})
	}
	hit, lat := testConfig().L1.Latency, one(1)
	for _, mlp := range []int{2, 3, 4, 5, 8} {
		if got, want := one(mlp), hit+(lat-hit)/uint64(mlp); got != want {
			t.Fatalf("MLP %d: miss took %d cycles, want %d", mlp, got, want)
		}
	}
}

func TestStallAccounting(t *testing.T) {
	sys := New(testConfig())
	var ops []trace.Op
	for i := uint64(0); i < 64; i++ {
		ops = append(ops, trace.Op{Addr: lay.Addr(trace.VertexValue, i*800), Arr: trace.VertexValue, Compute: 1})
	}
	a := &Agent{Name: "c", Core: 0, Ops: ops, MLP: 4, IsCore: true}
	sys.RunPhase([]*Agent{a})
	if a.MemStallCycles == 0 {
		t.Fatal("no memory stalls recorded for a miss-heavy stream")
	}
	if sys.MemStallCycles != a.MemStallCycles {
		t.Fatal("system stall aggregation mismatch")
	}
	if a.MemStallCycles >= a.Finish {
		t.Fatal("stalls exceed total time")
	}
}

func TestConfigSweepHelpers(t *testing.T) {
	c := DefaultConfig()
	if c.TotalLLCBytes() != 32<<20 {
		t.Fatalf("default LLC = %d", c.TotalLLCBytes())
	}
	c2 := c.WithLLCBytes(8 << 20)
	if c2.TotalLLCBytes() != 8<<20 {
		t.Fatalf("LLC sweep = %d", c2.TotalLLCBytes())
	}
	if c.TotalLLCBytes() != 32<<20 {
		t.Fatal("WithLLCBytes mutated the receiver")
	}
	if c.WithCores(4).Cores != 4 {
		t.Fatal("WithCores failed")
	}
}

// TestDirectory checks the standalone directory beside the L3: sharer
// masks and the owner follow reads, E-grants and writes, and an entry is
// dropped once no private cache and no L3 bank holds its line.
func TestDirectory(t *testing.T) {
	h := NewHierarchy(testConfig())
	addr := lay.Addr(trace.VertexValue, 7*8)
	line := addr / 64
	h.Access(0, addr, trace.VertexValue, false, false, 0)
	if e := h.dir.get(line); e == nil || e.sharers != 1<<0 || e.owner != 0 {
		t.Fatalf("after sole read: entry %+v, want sharers {0}, owner 0 (E-grant)", e)
	}
	// Core 0's E copy may be dirty, so a read by core 3 recalls it as the
	// owner: core 0 is invalidated and core 3 is E-granted in turn.
	h.Access(3, addr, trace.VertexValue, false, false, 100)
	if e := h.dir.get(line); e.sharers != 1<<3 || e.owner != 3 {
		t.Fatalf("after second read: entry %+v, want sharers {3}, owner 3", e)
	}
	if h.PeerTransfers != 1 || h.InvalidationsSent != 1 {
		t.Fatalf("peer transfers %d, invalidations %d, want 1 and 1", h.PeerTransfers, h.InvalidationsSent)
	}
	h.Access(2, addr, trace.VertexValue, true, false, 200)
	if e := h.dir.get(line); e.sharers != 1<<2 || e.owner != 2 {
		t.Fatalf("after write: entry %+v, want sharers {2}, owner 2", e)
	}

	// Stream other lines through core 2 until line leaves its private
	// caches and the L3; the directory must then forget it.
	for i := uint64(1); i < 5000 && h.dir.get(line) != nil; i++ {
		a := lay.Addr(trace.VertexValue, (7+i)*8)
		h.Access(2, a, trace.VertexValue, false, false, 300+i*10)
	}
	if e := h.dir.get(line); e != nil {
		t.Fatalf("entry %+v outlived every cached copy", e)
	}
	for i, e := range h.dir.vals {
		if l := h.dir.keys[i]; e != nil && e.sharers == 0 && e.owner < 0 && h.l3[h.bankOf(l)].Probe(l) < 0 {
			t.Fatalf("line %d: unreferenced entry kept", l)
		}
	}
}

// TestConfigValidate: the paper's systems and their sweeps validate; every
// config the hierarchy constructor cannot build (or would divide by zero
// on) is an error.
func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{DefaultConfig(), ScaledConfig(), ScaledConfig().WithCores(1), ScaledConfig().WithLLCBytes(48 << 10)} {
		if err := c.Validate(); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	}
	bad := map[string]func(*Config){
		"no cores":        func(c *Config) { c.Cores = 0 },
		"negative cores":  func(c *Config) { c.Cores = -2 },
		"too many cores":  func(c *Config) { c.Cores = maxUnits + 1 },
		"no L3 banks":     func(c *Config) { c.L3Banks = 0 },
		"zero L1 ways":    func(c *Config) { c.L1.Ways = 0 },
		"zero L2 ways":    func(c *Config) { c.L2.Ways = 0 },
		"zero L3 ways":    func(c *Config) { c.L3Bank.Ways = 0 },
		"huge L3 bank":    func(c *Config) { c.L3Bank.SizeBytes = 1 << 40 },
		"huge L1 ways":    func(c *Config) { c.L1.Ways = 1 << 31 },
		"huge mesh":       func(c *Config) { c.Mesh.Width = 1 << 40 },
		"huge controller": func(c *Config) { c.Mem.Controllers = 1 << 20 },
	}
	for name, edit := range bad {
		c := ScaledConfig()
		edit(&c)
		if c.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
