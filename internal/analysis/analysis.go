// Package analysis provides the locality-characterization tooling behind
// the paper's motivation study (§II-B/§II-D): reuse-distance (LRU stack
// distance) profiles of the value-array access streams induced by a
// schedule, and overlap statistics of schedules. It is the methodology that
// produced Figures 6 and 9 (access patterns under index order vs chain
// order) in analyzable, numeric form, and it is what the dataset recipes in
// internal/gen are calibrated against.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"chgraph/internal/hypergraph"
)

// StackProfile is a reuse-distance histogram over cache lines: Buckets[i]
// counts accesses whose LRU stack distance (number of distinct lines
// touched since the previous access to the same line) is less than
// Bounds[i]; Cold counts first touches.
type StackProfile struct {
	Bounds  []int
	Buckets []uint64
	Cold    uint64
	Total   uint64
}

// DefaultBounds bracket the scaled hierarchy: L1 (32 lines), L2 (128),
// private reach (512), LLC-scale (4096).
var DefaultBounds = []int{16, 64, 256, 1024, 4096}

// HitFraction returns the fraction of accesses with stack distance below
// lines — the hit rate of an ideal LRU cache of that many lines.
func (p *StackProfile) HitFraction(lines int) float64 {
	if p.Total == 0 {
		return 0
	}
	var hits uint64
	for i, b := range p.Bounds {
		if b <= lines {
			hits += p.Buckets[i]
		}
	}
	return float64(hits) / float64(p.Total)
}

// String renders the profile as percentages.
func (p *StackProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%d cold=%.1f%%", p.Total, 100*float64(p.Cold)/float64(max64(p.Total, 1)))
	lo := 0
	for i, bound := range p.Bounds {
		fmt.Fprintf(&b, " [%d,%d):%.1f%%", lo, bound, 100*float64(p.Buckets[i])/float64(max64(p.Total, 1)))
		lo = bound
	}
	return b.String()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// lruStack is an exact LRU stack-distance tracker over line addresses.
type lruStack struct {
	stack []uint64
	limit int
}

// touch returns the stack distance of line (-1 for a first touch) and
// moves it to the top.
func (s *lruStack) touch(line uint64) int {
	pos := -1
	for i := len(s.stack) - 1; i >= 0; i-- {
		if s.stack[i] == line {
			pos = len(s.stack) - 1 - i
			s.stack = append(s.stack[:i], s.stack[i+1:]...)
			break
		}
	}
	s.stack = append(s.stack, line)
	if s.limit > 0 && len(s.stack) > s.limit {
		s.stack = s.stack[len(s.stack)-s.limit:]
	}
	return pos
}

// ValueReuseProfile computes the reuse-distance profile of the
// destination-value accesses induced by processing the given schedule of
// source elements: for each element, one access per incident neighbor's
// 8-byte value (8 values per 64 B line), exactly the vertex_value /
// hyperedge_value streams of Figure 6/9.
func ValueReuseProfile(g *hypergraph.Bipartite, schedule []uint32, side Side, bounds []int) *StackProfile {
	if len(bounds) == 0 {
		bounds = DefaultBounds
	}
	neighbors := sideLists(g, side)
	p := &StackProfile{Bounds: append([]int{}, bounds...), Buckets: make([]uint64, len(bounds))}
	ls := &lruStack{limit: bounds[len(bounds)-1] * 2}
	for _, e := range schedule {
		for _, d := range neighbors(e) {
			p.Total++
			dist := ls.touch(uint64(d) / 8)
			if dist < 0 {
				p.Cold++
				continue
			}
			for i, b := range bounds {
				if dist < b {
					p.Buckets[i]++
					break
				}
			}
		}
	}
	return p
}

// sideLists decodes the incidence side a schedule of side's elements
// reads, once, for a whole-schedule pass.
func sideLists(g *hypergraph.Bipartite, side Side) func(uint32) []uint32 {
	if side == Vertices {
		return g.PackedV().Unpack().List
	}
	return g.PackedH().Unpack().List
}

// Side selects which side the schedule enumerates.
type Side int

// Schedule sides.
const (
	// Hyperedges: the schedule lists hyperedges; accesses go to vertex
	// values (vertex computation).
	Hyperedges Side = iota
	// Vertices: the schedule lists vertices; accesses go to hyperedge
	// values (hyperedge computation).
	Vertices
)

// IndexSchedule returns the index-ordered schedule of [lo, hi).
func IndexSchedule(lo, hi uint32) []uint32 {
	out := make([]uint32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// OverlapStats summarizes consecutive-element overlap in a schedule — the
// quantity chain-driven scheduling maximizes.
type OverlapStats struct {
	// Pairs is the number of consecutive pairs examined.
	Pairs int
	// OverlappedPairs counts pairs sharing at least one neighbor.
	OverlappedPairs int
	// MeanOverlap is the average |N(a) ∩ N(b)| over consecutive pairs.
	MeanOverlap float64
	// ReusableFraction is the fraction of neighbor accesses that repeat
	// the previous element's neighbors (immediately reusable).
	ReusableFraction float64
}

// ScheduleOverlap measures consecutive overlap for a schedule.
func ScheduleOverlap(g *hypergraph.Bipartite, schedule []uint32, side Side) OverlapStats {
	neighbors := sideLists(g, side)
	var st OverlapStats
	var totalAcc, reusable uint64
	prev := map[uint32]struct{}{}
	var sum float64
	for i, e := range schedule {
		ns := neighbors(e)
		totalAcc += uint64(len(ns))
		if i > 0 {
			st.Pairs++
			var shared int
			for _, d := range ns {
				if _, ok := prev[d]; ok {
					shared++
				}
			}
			if shared > 0 {
				st.OverlappedPairs++
			}
			sum += float64(shared)
			reusable += uint64(shared)
		}
		clear(prev)
		for _, d := range ns {
			prev[d] = struct{}{}
		}
	}
	if st.Pairs > 0 {
		st.MeanOverlap = sum / float64(st.Pairs)
	}
	if totalAcc > 0 {
		st.ReusableFraction = float64(reusable) / float64(totalAcc)
	}
	return st
}

// FootprintLines returns the number of distinct value-array cache lines a
// schedule touches (8 values per line) — the compulsory-miss floor.
func FootprintLines(g *hypergraph.Bipartite, schedule []uint32, side Side) int {
	neighbors := sideLists(g, side)
	lines := map[uint64]struct{}{}
	for _, e := range schedule {
		for _, d := range neighbors(e) {
			lines[uint64(d)/8] = struct{}{}
		}
	}
	return len(lines)
}

// CompareSchedules renders an index-vs-chain comparison table for one
// chunk, the §II-D argument in numbers.
func CompareSchedules(g *hypergraph.Bipartite, index, chain []uint32, side Side) string {
	var b strings.Builder
	ip := ValueReuseProfile(g, index, side, nil)
	cp := ValueReuseProfile(g, chain, side, nil)
	io := ScheduleOverlap(g, index, side)
	co := ScheduleOverlap(g, chain, side)
	fmt.Fprintf(&b, "index order: %s\n", ip.String())
	fmt.Fprintf(&b, "chain order: %s\n", cp.String())
	fmt.Fprintf(&b, "consecutive overlap: index mean %.2f (%.0f%% pairs), chain mean %.2f (%.0f%% pairs)\n",
		io.MeanOverlap, 100*float64(io.OverlappedPairs)/float64(maxInt(io.Pairs, 1)),
		co.MeanOverlap, 100*float64(co.OverlappedPairs)/float64(maxInt(co.Pairs, 1)))
	fmt.Fprintf(&b, "immediately reusable accesses: index %.1f%%, chain %.1f%%\n",
		100*io.ReusableFraction, 100*co.ReusableFraction)
	fmt.Fprintf(&b, "ideal-LRU hit rate at 128 lines: index %.1f%%, chain %.1f%%\n",
		100*ip.HitFraction(128), 100*cp.HitFraction(128))
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// DegreePercentiles returns the requested percentiles of a degree
// distribution (used when validating generated datasets against Table II).
func DegreePercentiles(degrees []uint32, ps []float64) []uint32 {
	if len(degrees) == 0 {
		return make([]uint32, len(ps))
	}
	sorted := append([]uint32{}, degrees...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]uint32, len(ps))
	for i, p := range ps {
		idx := int(p * float64(len(sorted)-1))
		out[i] = sorted[idx]
	}
	return out
}
