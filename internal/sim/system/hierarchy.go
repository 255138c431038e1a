package system

import (
	"chgraph/internal/sim/cache"
	"chgraph/internal/sim/mem"
	"chgraph/internal/sim/noc"
	"chgraph/internal/trace"
)

// Depth reports how far an access travelled.
type Depth uint8

const (
	// DepthL1 is an L1 hit.
	DepthL1 Depth = iota
	// DepthL2 is an L2 hit.
	DepthL2
	// DepthL3 was served on chip beyond the L2 (L3 bank or a peer
	// cache-to-cache transfer).
	DepthL3
	// DepthMem reached main memory.
	DepthMem
)

// Hierarchy is the full memory system: private L1/L2 per core, a shared
// banked L3, a directory co-located with the L3 banks, mesh NoC, and DRAM
// controllers.
//
// Coherence is MESI with a standalone (non-inclusive) directory. Table I
// specifies an inclusive L3 with an in-cache directory, which is harmless at
// full scale (the 32 MB L3 dwarfs the 2 MB of private caches); at our scaled
// capacities (DESIGN.md §3) a strictly inclusive L3 would be smaller than
// the private caches combined and its evictions would constantly
// back-invalidate them — an artifact of scaling, not of the paper's design.
// The directory therefore lives beside the L3: L3 evictions drop data
// without disturbing private copies, and requests missing the L3 can still
// be served by a peer cache.
type Hierarchy struct {
	cfg  Config
	l1   []*cache.Cache
	l2   []*cache.Cache
	l3   []*cache.Cache
	dir  directory
	mesh *noc.Mesh
	mem  *mem.Memory

	// InvalidationsSent counts coherence invalidations delivered to
	// private caches; PeerTransfers counts cache-to-cache data transfers.
	InvalidationsSent uint64
	PeerTransfers     uint64
}

// NewHierarchy builds the memory system for cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	h := &Hierarchy{
		cfg:  cfg,
		mesh: noc.New(cfg.Mesh),
		mem:  mem.New(cfg.Mem),
	}
	h.dir.resize(dirInitialSlots)
	for c := 0; c < cfg.Cores; c++ {
		h.l1 = append(h.l1, cache.New(cfg.L1))
		h.l2 = append(h.l2, cache.New(cfg.L2))
	}
	for b := 0; b < cfg.L3Banks; b++ {
		h.l3 = append(h.l3, cache.New(cfg.L3Bank))
	}
	return h
}

// Mem exposes the DRAM model (for traffic counters).
func (h *Hierarchy) Mem() *mem.Memory { return h.mem }

// CacheStats aggregates hit/miss counters across each level.
func (h *Hierarchy) CacheStats() (l1h, l1m, l2h, l2m, l3h, l3m uint64) {
	for _, c := range h.l1 {
		l1h += c.Hits
		l1m += c.Misses
	}
	for _, c := range h.l2 {
		l2h += c.Hits
		l2m += c.Misses
	}
	for _, c := range h.l3 {
		l3h += c.Hits
		l3m += c.Misses
	}
	return
}

func (h *Hierarchy) bankOf(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15 >> 17) % uint64(len(h.l3)))
}

// dropUnreferenced garbage-collects the directory entry of a line absent
// from its L3 bank once no private cache references it. Callers know the
// bank's answer: the line was just evicted from it, or a probe already
// missed it.
func (h *Hierarchy) dropUnreferenced(line uint64, e *dirEntry) {
	if e.sharers == 0 && e.owner < 0 {
		h.dir.remove(line)
	}
}

// Reset returns the hierarchy to its post-New state without reallocating:
// caches emptied, the directory cleared (entries recycled through the free
// list, table kept), DRAM queues and every counter zeroed. A reset
// hierarchy replays any op sequence bit-identically to a freshly built one.
func (h *Hierarchy) Reset() {
	for _, c := range h.l1 {
		c.Reset()
	}
	for _, c := range h.l2 {
		c.Reset()
	}
	for _, c := range h.l3 {
		c.Reset()
	}
	h.dir.reset()
	h.mem.Reset()
	h.InvalidationsSent, h.PeerTransfers = 0, 0
}

// invalidatePrivate removes line from core's L1 and L2, returning whether a
// dirty copy was found.
func (h *Hierarchy) invalidatePrivate(core int, line uint64) bool {
	_, d1 := h.l1[core].Invalidate(line)
	_, d2 := h.l2[core].Invalidate(line)
	h.InvalidationsSent++
	return d1 || d2
}

// l3Install places line in its L3 bank, writing a dirty victim home.
func (h *Hierarchy) l3Install(line uint64, arr trace.Array, st cache.State, now uint64) {
	bank := h.l3[h.bankOf(line)]
	v := bank.Fill(line, arr, st)
	if v.Valid {
		if v.Dirty {
			h.mem.Access(v.Line, v.Arr, true, now)
		}
		if e := h.dir.get(v.Line); e != nil {
			h.dropUnreferenced(v.Line, e) // v.Line just left this bank
		}
	}
}

// l2Fill installs line into core's L2, maintaining L1 inclusion within the
// private pair and spilling dirty victims into the L3 (victim caching).
// The directory forgets this core for the victim line (no silent drops).
func (h *Hierarchy) l2Fill(core int, line uint64, arr trace.Array, st cache.State, now uint64) {
	v := h.l2[core].Fill(line, arr, st)
	if !v.Valid {
		return
	}
	_, l1Dirty := h.l1[core].Invalidate(v.Line)
	dirty := v.Dirty || l1Dirty
	if e := h.dir.get(v.Line); e != nil {
		e.sharers &^= 1 << uint(core)
		if int(e.owner) == core {
			e.owner = -1
		}
		bank := h.l3[h.bankOf(v.Line)]
		if w := bank.Probe(v.Line); w >= 0 {
			if dirty {
				bank.SetStateAt(w, cache.Modified)
			}
		} else if dirty {
			st := cache.Exclusive
			if !v.Arr.ReadOnly() {
				st = cache.Modified
			}
			h.l3Install(v.Line, v.Arr, st, now)
		} else {
			h.dropUnreferenced(v.Line, e)
		}
	} else if dirty {
		h.mem.Access(v.Line, v.Arr, true, now)
	}
}

// l1Fill installs line into core's L1; dirty victims merge into the L2 copy
// if present, else spill to the L3.
func (h *Hierarchy) l1Fill(core int, line uint64, arr trace.Array, st cache.State, now uint64) {
	v := h.l1[core].Fill(line, arr, st)
	if v.Valid && v.Dirty {
		if w := h.l2[core].Probe(v.Line); w >= 0 {
			h.l2[core].SetStateAt(w, cache.Modified)
		} else {
			h.l3Install(v.Line, v.Arr, cache.Modified, now)
			if e := h.dir.get(v.Line); e != nil {
				e.sharers &^= 1 << uint(core)
				if int(e.owner) == core {
					e.owner = -1
				}
			}
		}
	}
}

// Access performs one memory operation for core at absolute time now,
// returning the completion time and the depth reached. engine routes the
// access in at the L2 (ChGraph/HATS engines sit beside the L1, §V-A).
func (h *Hierarchy) Access(core int, addr uint64, arr trace.Array, write, engine bool, now uint64) (uint64, Depth) {
	line := addr / cache.LineBytes
	l1, l2 := h.l1[core], h.l2[core]
	lat := uint64(0)

	// L1. A hit way stays valid across upgrade, which only invalidates
	// other cores' private copies.
	if !engine {
		lat += l1.Latency()
		if w := l1.LookupWay(line); w >= 0 {
			if !write {
				return now + lat, DepthL1
			}
			if l1.StateAt(w) == cache.Shared && !arr.ReadOnly() {
				lat += h.upgrade(core, line, now+lat)
			}
			l1.SetStateAt(w, cache.Modified)
			l2.SetState(line, cache.Modified)
			return now + lat, DepthL1
		}
	} else if write {
		// Engine-level writes must not leave a stale copy in the core's
		// L1 (the engine and its core share data via the L2).
		if _, d := l1.Invalidate(line); d {
			l2.SetState(line, cache.Modified)
		}
	}

	// L2.
	lat += l2.Latency()
	if w := l2.LookupWay(line); w >= 0 {
		st := l2.StateAt(w)
		if write {
			if st == cache.Shared && !arr.ReadOnly() {
				lat += h.upgrade(core, line, now+lat)
			}
			st = cache.Modified
			l2.SetStateAt(w, st)
		}
		if !engine {
			h.l1Fill(core, line, arr, st, now+lat)
		}
		return now + lat, DepthL2
	}

	// L3 bank + directory via NoC.
	bankIdx := h.bankOf(line)
	bank := h.l3[bankIdx]
	bankTile := h.mesh.BankTile(bankIdx)
	lat += h.mesh.RoundTrip(h.mesh.CoreTile(core), bankTile) + bank.Latency()
	e := h.dir.entry(line)

	// Resolve a dirty peer copy first.
	if e.owner >= 0 && int(e.owner) != core {
		owner := int(e.owner)
		lat += h.mesh.RoundTrip(bankTile, h.mesh.CoreTile(owner)) + h.l2[owner].Latency()
		if h.invalidatePrivate(owner, line) {
			h.l3Install(line, arr, cache.Modified, now+lat)
		}
		e.sharers &^= 1 << uint(owner)
		e.owner = -1
		h.PeerTransfers++
	}
	if write {
		others := e.sharers &^ (1 << uint(core))
		if others != 0 {
			lat += h.mesh.RoundTrip(bankTile, farthestTile(h.mesh, bankTile, others))
			for c := 0; c < h.cfg.Cores; c++ {
				if others&(1<<uint(c)) != 0 {
					if h.invalidatePrivate(c, line) {
						h.l3Install(line, arr, cache.Modified, now+lat)
					}
				}
			}
			e.sharers &= 1 << uint(core)
		}
	}

	depth := DepthL3
	var done uint64
	switch {
	case bank.Lookup(line):
		done = now + lat
	case e.sharers&^(1<<uint(core)) != 0:
		// Clean peer copy: cache-to-cache transfer.
		peer := firstCore(e.sharers &^ (1 << uint(core)))
		lat += h.mesh.RoundTrip(bankTile, h.mesh.CoreTile(peer)) + h.l2[peer].Latency()
		h.PeerTransfers++
		h.l3Install(line, arr, cache.Exclusive, now+lat)
		done = now + lat
	default:
		ctrl := h.mem.ControllerOf(line)
		lat += h.mesh.RoundTrip(bankTile, h.mesh.ControllerTile(ctrl))
		done = h.mem.Access(line, arr, false, now+lat)
		h.l3Install(line, arr, cache.Exclusive, done)
		depth = DepthMem
	}

	// Grant.
	var st cache.State
	if write {
		st = cache.Modified
		e.sharers = 1 << uint(core)
		e.owner = int16(core)
	} else {
		others := e.sharers &^ (1 << uint(core))
		e.sharers |= 1 << uint(core)
		if others == 0 {
			st = cache.Exclusive
			e.owner = int16(core) // E-grant: silent E->M stays coherent
		} else {
			st = cache.Shared
		}
	}
	h.l2Fill(core, line, arr, st, done)
	if !engine {
		h.l1Fill(core, line, arr, st, done)
	}
	return done, depth
}

// upgrade handles a write hit on a Shared line: a directory round trip that
// invalidates all other sharers.
func (h *Hierarchy) upgrade(core int, line uint64, now uint64) uint64 {
	bankIdx := h.bankOf(line)
	bankTile := h.mesh.BankTile(bankIdx)
	extra := h.mesh.RoundTrip(h.mesh.CoreTile(core), bankTile) + h.l3[bankIdx].Latency()
	e := h.dir.entry(line)
	others := e.sharers &^ (1 << uint(core))
	if others != 0 {
		extra += h.mesh.RoundTrip(bankTile, farthestTile(h.mesh, bankTile, others))
		for c := 0; c < h.cfg.Cores; c++ {
			if others&(1<<uint(c)) != 0 {
				if h.invalidatePrivate(c, line) {
					h.l3Install(line, trace.Other, cache.Modified, now)
				}
			}
		}
	}
	e.sharers = 1 << uint(core)
	e.owner = int16(core)
	return extra
}

// firstCore returns the lowest core index in mask.
func firstCore(mask uint64) int {
	for c := 0; c < 64; c++ {
		if mask&(1<<uint(c)) != 0 {
			return c
		}
	}
	return 0
}

// farthestTile returns the tile of the farthest core in mask from tile
// (invalidations complete when the farthest acknowledgment returns).
func farthestTile(m *noc.Mesh, tile int, mask uint64) int {
	best, bestLat := tile, uint64(0)
	for c := 0; c < 64; c++ {
		if mask&(1<<uint(c)) == 0 {
			continue
		}
		t := m.CoreTile(c)
		if l := m.Latency(tile, t); l > bestLat {
			best, bestLat = t, l
		}
	}
	return best
}
