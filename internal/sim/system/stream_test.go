package system

import (
	"hash/fnv"
	"testing"

	"chgraph/internal/trace"
)

// streamDigest drives h with a seeded random access stream — every core,
// lines over a range small enough to force evictions at every level and
// constant coherence traffic, mixed read/write and core/engine accesses over
// writable and read-only arrays — and digests every (done, depth) result plus
// the hierarchy's final counters. Any change to the model's behaviour changes
// the digest.
func streamDigest(h *Hierarchy, n int, lines uint64) uint64 {
	arrs := [...]trace.Array{trace.VertexValue, trace.HyperedgeValue, trace.OAGEdge, trace.IncidentVertex, trace.Bitmap}
	d := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		d.Write(buf[:])
	}
	x := uint64(0x243F6A8885A308D3)
	next := func() uint64 { // splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	type ref struct {
		arr  trace.Array
		line uint64
	}
	last := make([]ref, h.cfg.Cores)
	now := uint64(0)
	for i := 0; i < n; i++ {
		r := next()
		core := int(r % uint64(h.cfg.Cores))
		arr := arrs[(r>>8)%uint64(len(arrs))]
		line := (r >> 16) % lines
		switch (r >> 40) % 8 {
		case 0, 1: // reuse the core's previous line: private hits, upgrades
			arr, line = last[core].arr, last[core].line
		case 2: // a hot set every core shares: coherence traffic
			arr, line = trace.VertexValue, line%16
		}
		last[core] = ref{arr, line}
		write := (r>>48)%4 == 0
		engine := (r>>52)%3 == 0
		now += (r >> 56) % 8
		addr := lay.Addr(arr, 0) + line*64 + (r>>32)%64
		done, depth := h.Access(core, addr, arr, write, engine, now)
		put(done)
		put(uint64(depth))
	}
	l1h, l1m, l2h, l2m, l3h, l3m := h.CacheStats()
	for _, v := range []uint64{l1h, l1m, l2h, l2m, l3h, l3m, h.InvalidationsSent, h.PeerTransfers} {
		put(v)
	}
	m := h.Mem()
	for a := range m.Reads {
		put(m.Reads[a])
		put(m.Writes[a])
	}
	return d.Sum64()
}

// TestAccessStreamGolden pins the hierarchy's behaviour on a fixed random
// stream for the scaled, full-scale and a non-power-of-two-set L3 config,
// and for an uneven config: 12 L3 banks, a 12-way L2 (its signature words
// leave unused bytes) and a 5x3 mesh that 16 cores wrap around. The
// digests were recorded before the cache/run-queue fast paths, the
// signature probe and the per-tile mesh coordinates went in; a
// host-only optimisation must leave them unchanged. Each stream is then
// replayed on the Reset hierarchy, which must reproduce it exactly.
func TestAccessStreamGolden(t *testing.T) {
	odd := ScaledConfig().WithLLCBytes(48 << 10) // 3 sets per L3 bank
	if s := odd.L3Bank.Sets(); s&(s-1) == 0 {
		t.Fatalf("odd config has %d L3 sets, want a non-power of two", s)
	}
	uneven := ScaledConfig()
	uneven.L3Banks = 12
	uneven.L2.Ways, uneven.L2.SizeBytes = 12, 12<<10 // 16 sets
	uneven.Mesh.Width, uneven.Mesh.Height = 5, 3
	cases := []struct {
		name  string
		cfg   Config
		lines uint64
		want  uint64
	}{
		{"scaled", ScaledConfig(), 4096, 0xa6cc21982167da39},
		{"default", DefaultConfig(), 16384, 0x1aeafea90e8b4c7a},
		{"llc48k", odd, 4096, 0x121d591fe284d5a7},
		{"uneven", uneven, 4096, 0xc425ac0f43961c4c},
	}
	for _, c := range cases {
		h := NewHierarchy(c.cfg)
		got := streamDigest(h, 200000, c.lines)
		if got != c.want {
			t.Errorf("%s: access-stream digest = %#x, want %#x", c.name, got, c.want)
		}
		// A reset hierarchy must replay the stream exactly.
		h.Reset()
		if again := streamDigest(h, 200000, c.lines); again != got {
			t.Errorf("%s: digest after Reset = %#x, want %#x", c.name, again, got)
		}
	}
}
