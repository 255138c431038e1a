// Package core implements the paper's primary contribution: the chain
// abstraction over an OAG and the chain-driven Generate-Load-Apply (GLA)
// execution model (§IV).
//
// A chain is a sequence of connected OAG nodes (Definition 2) discovered by
// a greedy depth-bounded walk over the *active* frontier (Algorithm 3): from
// the minimal-index active root, repeatedly step to the unvisited active
// neighbor with the maximal overlap weight, until no such neighbor exists or
// the exploration depth reaches D_max; then flush and restart from the next
// active root. Because OAG neighbor lists are stored in descending weight
// order, "maximal weight" is simply "first active in storage order" — this
// is exactly what the 4-stage hardware chain generator of §V-B does with its
// 16-deep stack, and what the software GLA baseline pays per-visit
// instruction overheads for.
package core

import "chgraph/internal/oag"

// DefaultDMax is the paper's default maximum exploration depth (§IV-B),
// equal to the hardware stack capacity; chains never exceed DefaultDMax
// nodes. Figure 17 sweeps this parameter.
const DefaultDMax = 16

// ChainSet is the output of one Generate call: a flat queue of node ids and
// the start offset of each chain, mirroring the paper's shared chain queue
// in which NEWCHAIN records the offset of each chain's first element.
type ChainSet struct {
	// Queue holds the selected nodes in schedule order.
	Queue []uint32
	// Starts holds one offset per chain plus a trailing len(Queue); chain
	// j occupies Queue[Starts[j]:Starts[j+1]].
	Starts []uint32
}

// NumChains returns the number of chains.
func (c *ChainSet) NumChains() int {
	if len(c.Starts) == 0 {
		return 0
	}
	return len(c.Starts) - 1
}

// Chain returns the j-th chain (aliases Queue).
func (c *ChainSet) Chain(j int) []uint32 { return c.Queue[c.Starts[j]:c.Starts[j+1]] }

// Visitor observes the micro-steps of chain generation so engines can
// translate them into memory operations (software loads for the GLA
// baseline; L2-level engine accesses for the hardware chain generator).
// Generate invokes the callbacks in exact execution order.
type Visitor interface {
	// RootScan reports that bitmap word wordIdx was examined while
	// searching for the next active root (root setting stage).
	RootScan(wordIdx uint32)
	// Select reports that node was chosen, marked inactive (bitmap
	// write), and appended to the current chain.
	Select(node uint32)
	// Offsets reports that node's first/last offsets were read from
	// OAG_offset (offsets fetching stage).
	Offsets(node uint32)
	// Inspect reports that the OAG_edge entry at csrIdx (naming neighbor)
	// was read and the neighbor's active bit checked (active-neighbor
	// fetching + neighbor selection stages).
	Inspect(csrIdx uint32, neighbor uint32)
	// ChainEnd reports that the current chain was flushed (stack popped).
	ChainEnd()
}

// nopVisitor lets Generate run without instrumentation.
type nopVisitor struct{}

func (nopVisitor) RootScan(uint32)        {}
func (nopVisitor) Select(uint32)          {}
func (nopVisitor) Offsets(uint32)         {}
func (nopVisitor) Inspect(uint32, uint32) {}
func (nopVisitor) ChainEnd()              {}

// ActiveSet is the frontier view Generate consumes. Generate clears the bit
// of every node it schedules ("once the data is selected, it will be marked
// as inactive immediately for correctness"), so callers pass a disposable
// copy of the frontier.
type ActiveSet interface {
	Get(i uint32) bool
	Clear(i uint32)
	NextSet(from, limit uint32, scanned func(word uint32)) uint32
}

// Generate runs Algorithm 3 over the nodes in [lo, hi) of the given OAG,
// producing the chain schedule for one chunk. active is consumed (scheduled
// nodes are cleared). dMax bounds chain length; v observes every micro-step
// (pass nil for none).
func Generate(o *oag.OAG, lo, hi uint32, active ActiveSet, dMax int, v Visitor) ChainSet {
	var g Generator
	cs := ChainSet{}
	g.GenerateInto(&cs, o, lo, hi, active, dMax, v)
	return cs
}

// Generator runs Algorithm 3 with reusable scratch: the exploration stack
// (the hardware's 16-deep stack, §V-B) survives across calls, and
// GenerateInto refills a caller-owned ChainSet in place. A Generator is for
// one goroutine at a time; the zero value is ready to use.
type Generator struct {
	stack []level

	// scanV/scanFn cache the bound v.RootScan method value: evaluating it
	// at the NextSet call site would allocate a fresh closure per chain.
	scanV  Visitor
	scanFn func(uint32)
}

// GenerateInto is Generate writing into cs, truncating and reusing its
// Queue and Starts backing arrays. The schedule produced is bit-identical
// to Generate's.
func (g *Generator) GenerateInto(cs *ChainSet, o *oag.OAG, lo, hi uint32, active ActiveSet, dMax int, v Visitor) {
	if v == nil {
		v = nopVisitor{}
	}
	if dMax < 1 {
		dMax = 1
	}
	cs.Queue = cs.Queue[:0]
	cs.Starts = cs.Starts[:0]

	// A chain never holds more nodes than the chunk has, so the stack's
	// capacity is bounded by both.
	if n := min(dMax, int(hi-lo)+1); cap(g.stack) < n {
		g.stack = make([]level, 0, n)
	}
	stack := g.stack[:0]
	if g.scanV != v {
		g.scanV, g.scanFn = v, v.RootScan
	}

	cursor := lo
	for {
		// Root setting: minimal-index active node. Because selected nodes
		// become inactive, the minimal active index is non-decreasing, so
		// a resuming scan is exact.
		root := active.NextSet(cursor, hi, g.scanFn)
		if root >= hi {
			break
		}
		cursor = root

		// Grow one chain by depth-first exploration from root: extend to
		// the strongest unvisited active neighbor of the top of the stack,
		// backtracking when the top is exhausted; flush when the stack
		// fills (hardware capacity) or empties.
		cs.Starts = append(cs.Starts, uint32(len(cs.Queue)))
		active.Clear(root)
		v.Select(root)
		cs.Queue = append(cs.Queue, root)
		v.Offsets(root)
		stack = append(stack[:0], level{node: root})
		for len(stack) > 0 && len(stack) < dMax {
			top := &stack[len(stack)-1]
			next, found := scanNeighbor(o, top, lo, hi, active, v)
			if !found {
				stack = stack[:len(stack)-1] // backtrack
				continue
			}
			active.Clear(next)
			v.Select(next)
			cs.Queue = append(cs.Queue, next)
			v.Offsets(next)
			stack = append(stack, level{node: next})
		}
		// Loop exit with a full stack is the hardware flush ("the stack is
		// full, all vertices will be popped out", §V-B).
		v.ChainEnd()
	}
	if len(cs.Starts) > 0 || len(cs.Queue) > 0 {
		cs.Starts = append(cs.Starts, uint32(len(cs.Queue)))
	}
	g.stack = stack[:0]
}

// level mirrors one entry of the hardware stack (§V-B/§VI-E): the node and
// the resume position within its neighbor list — the stack stores "a vertex
// index, the beginning offset, the end offset, and a cacheline of neighbor
// indices", which is exactly the state needed to continue a node's
// exploration after backtracking.
type level struct {
	node uint32
	next uint32 // scan position within the node's neighbor list
}

// scanNeighbor resumes scanning the level's neighbor list in storage
// (descending weight) order and returns the first active node inside
// [lo, hi), advancing the level's cursor past consumed entries. Each
// inspected entry is reported to the visitor. Per-chunk OAGs have no
// cross-chunk edges, but the bound check also keeps chains chunk-local when
// a caller supplies a global OAG.
func scanNeighbor(o *oag.OAG, l *level, lo, hi uint32, active ActiveSet, v Visitor) (uint32, bool) {
	base := o.Offset(l.node)
	ns := o.Neighbors(l.node)
	for l.next < uint32(len(ns)) {
		nb := ns[l.next]
		v.Inspect(base+l.next, nb)
		l.next++
		if nb >= lo && nb < hi && active.Get(nb) {
			return nb, true
		}
	}
	return 0, false
}
