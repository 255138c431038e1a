package system

import (
	"fmt"

	"chgraph/internal/trace"
)

// FIFO is a bounded queue coupling two agents (the chain FIFO between HCG
// and CP, and the bipartite-edge FIFO between CP and the core, §V-A). Each
// entry carries the simulated time at which it became available.
type FIFO struct {
	// Name labels the FIFO in diagnostics.
	Name string
	// Cap is the entry capacity (32 in the paper).
	Cap int

	ready     []uint64
	head      int
	lastPopAt uint64

	waitPush []*Agent
	waitPop  []*Agent

	// MaxOccupancy tracks the high-water mark (for tests).
	MaxOccupancy int
}

// NewFIFO builds a FIFO with the given capacity.
func NewFIFO(name string, capacity int) *FIFO {
	return &FIFO{Name: name, Cap: capacity}
}

// Len returns the current occupancy.
func (f *FIFO) Len() int { return len(f.ready) - f.head }

// Reset empties the FIFO and re-labels it, keeping the ready ring's backing
// array so a recycled FIFO replays the next phase without allocating.
func (f *FIFO) Reset(name string, capacity int) {
	f.Name = name
	f.Cap = capacity
	f.ready = f.ready[:0]
	f.head = 0
	f.lastPopAt = 0
	f.waitPush = f.waitPush[:0]
	f.waitPop = f.waitPop[:0]
	f.MaxOccupancy = 0
}

func (f *FIFO) push(t uint64) {
	f.ready = append(f.ready, t)
	if n := f.Len(); n > f.MaxOccupancy {
		f.MaxOccupancy = n
	}
}

func (f *FIFO) front() uint64 { return f.ready[f.head] }

func (f *FIFO) pop(now uint64) {
	f.head++
	f.lastPopAt = now
	if f.head > 4096 && f.head*2 > len(f.ready) {
		f.ready = append(f.ready[:0], f.ready[f.head:]...)
		f.head = 0
	}
}

// Agent replays one operation stream against the hierarchy. A ChGraph core
// complex uses three agents (HCG, CP, core) coupled by two FIFOs; Hygra and
// software-GLA use a single core agent.
type Agent struct {
	// Name labels the agent in diagnostics ("core3", "hcg3", ...).
	Name string
	// Core is the core/tile the agent belongs to.
	Core int
	// Ops is the phase's operation stream.
	Ops []trace.Op
	// Engine routes memory accesses in at the L2 (HCG/CP/HATS engines).
	Engine bool
	// MLP divides post-L1 latency when advancing the clock, modelling
	// overlapped outstanding misses (OOO core or pipelined engine).
	MLP int
	// In is popped by ops with a pop flag; Out is pushed by ops with a
	// push flag.
	In, Out *FIFO
	// IsCore marks the agent whose stalls count as core stalls (Fig 5).
	IsCore bool

	pc      int
	clock   uint64
	blocked bool

	// Stats.
	ComputeCycles   uint64
	MemStallCycles  uint64 // cycles waiting beyond the L1 hit latency on DRAM-bound accesses
	FifoStallCycles uint64 // cycles waiting on FIFO push/pop
	Finish          uint64
}

const (
	popMask  = trace.FlagPopChain | trace.FlagPopTuple
	pushMask = trace.FlagPushChain | trace.FlagPushTuple
)

// runQueue is a binary min-heap of runnable agents ordered by clock. Its
// operations repeat container/heap's algorithm step for step — strict < on
// clock, the right child taken only when strictly smaller, pop as
// swap(0, n-1) + down(0, n-1) — so agents with equal clocks leave in exactly
// the order container/heap gave them. That order decides which core reaches
// the shared L3, directory and DRAM queues first, so it is part of the
// model: a different tie order changes simulated cycles.
type runQueue []*Agent

func (q runQueue) init() {
	n := len(q)
	for i := n/2 - 1; i >= 0; i-- {
		q.down(i, n)
	}
}

func (q *runQueue) push(a *Agent) {
	*q = append(*q, a)
	q.up(len(*q) - 1)
}

func (q *runQueue) pop() *Agent {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h.down(0, n)
	a := h[n]
	*q = h[:n]
	return a
}

func (q runQueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || q[j].clock >= q[i].clock {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (q runQueue) down(i, n int) {
	for {
		j := 2*i + 1 // left child
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].clock < q[j].clock {
			j = j2
		}
		if q[j].clock >= q[i].clock {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// System owns a hierarchy and accumulates metrics across phases.
type System struct {
	Cfg  Config
	Hier *Hierarchy

	elapsed uint64

	// Metrics accumulated across all phases run so far.
	Phases          int
	CoreCycles      uint64 // sum over core agents of busy time
	MemStallCycles  uint64 // core-agent cycles stalled on DRAM accesses
	FifoStallCycles uint64

	// runq is the runnable-agent heap, recycled across RunPhase calls so
	// steady-state phases do not grow a fresh heap each time.
	runq runQueue
}

// New builds a simulated system.
func New(cfg Config) *System {
	return &System{Cfg: cfg, Hier: NewHierarchy(cfg)}
}

// Reset returns the system to its post-New state — clock, phase count and
// stall counters zeroed, hierarchy emptied — without reallocating, so a
// recycled system replays a run bit-identically to a freshly built one.
func (s *System) Reset() {
	s.elapsed = 0
	s.Phases = 0
	s.CoreCycles, s.MemStallCycles, s.FifoStallCycles = 0, 0, 0
	s.runq = s.runq[:0]
	s.Hier.Reset()
}

// Elapsed returns the global cycle count (sum of phase critical paths).
func (s *System) Elapsed() uint64 { return s.elapsed }

// AddCycles charges extra serial cycles (e.g. modelled preprocessing).
func (s *System) AddCycles(c uint64) { s.elapsed += c }

// RunPhase replays the agents' op streams to completion, coupled by their
// FIFOs, and returns the phase duration. Agent clocks start at the current
// global time; the phase ends when the slowest agent finishes (synchronous
// barrier per computation phase, as in Hygra and ChGraph).
func (s *System) RunPhase(agents []*Agent) uint64 {
	start := s.elapsed
	s.runq = s.runq[:0]
	for _, a := range agents {
		a.pc = 0
		a.clock = start
		a.blocked = false
		if len(a.Ops) > 0 {
			s.runq = append(s.runq, a)
		} else {
			a.Finish = start
		}
		if a.MLP < 1 {
			a.MLP = 1
		}
	}
	s.runq.init()

	running := len(s.runq)
	for running > 0 {
		if len(s.runq) == 0 {
			panic(fmt.Sprintf("system: deadlock, %d agents blocked (%s)", running, describeBlocked(agents)))
		}
		a := s.runq.pop()
		op := a.Ops[a.pc]

		// Pop precondition.
		if op.Flags&popMask != 0 {
			if a.In.Len() == 0 {
				a.blocked = true
				a.In.waitPop = append(a.In.waitPop, a)
				continue
			}
			if rt := a.In.front(); rt > a.clock {
				a.FifoStallCycles += rt - a.clock
				a.clock = rt
			}
			a.In.pop(a.clock)
			wake(&s.runq, &a.In.waitPush, a.clock)
		}
		// Push precondition.
		if op.Flags&pushMask != 0 && a.Out.Len() >= a.Out.Cap {
			a.blocked = true
			a.Out.waitPush = append(a.Out.waitPush, a)
			// Undo nothing: pops happen before pushes only in ops that
			// have both flags; such ops (CP) must re-check. To keep the
			// replay simple, ops never carry both a pop and a push flag;
			// engines emit separate ops. Enforced here.
			if op.Flags&popMask != 0 {
				panic("system: op carries both pop and push flags")
			}
			continue
		}

		// Execute.
		issue := a.clock + uint64(op.Compute)
		a.ComputeCycles += uint64(op.Compute)
		end := issue
		if op.HasMem() {
			done, depth := s.Hier.Access(a.Core, op.Addr, op.Arr, op.IsWrite(), a.Engine || op.Flags&trace.FlagL2 != 0, issue)
			if op.Flags&trace.FlagPrefetch != 0 {
				end = issue + 1 // issue slot only; nobody waits
			} else {
				lat := done - issue
				hitLat := s.Cfg.L1.Latency
				if lat > hitLat {
					lat = hitLat + (lat-hitLat)/uint64(a.MLP)
				}
				end = issue + lat
				if depth == DepthMem && a.IsCore {
					a.MemStallCycles += lat - hitLat
				}
			}
		}
		a.clock = end

		if op.Flags&pushMask != 0 {
			a.Out.push(a.clock)
			wake(&s.runq, &a.Out.waitPop, a.clock)
		}

		a.pc++
		if a.pc < len(a.Ops) {
			s.runq.push(a)
		} else {
			a.Finish = a.clock
			running--
		}
	}

	maxFinish := start
	for _, a := range agents {
		if a.Finish > maxFinish {
			maxFinish = a.Finish
		}
		if a.IsCore {
			s.CoreCycles += a.Finish - start
			s.MemStallCycles += a.MemStallCycles
		}
		s.FifoStallCycles += a.FifoStallCycles
	}
	s.Phases++
	dur := maxFinish - start
	s.elapsed = maxFinish
	return dur
}

// wake moves blocked agents back into the heap with clocks advanced to at
// least now.
func wake(q *runQueue, list *[]*Agent, now uint64) {
	for _, a := range *list {
		if a.clock < now {
			a.FifoStallCycles += now - a.clock
			a.clock = now
		}
		a.blocked = false
		q.push(a)
	}
	*list = (*list)[:0]
}

func describeBlocked(agents []*Agent) string {
	s := ""
	for _, a := range agents {
		if a.blocked {
			s += fmt.Sprintf("%s@op%d/%d ", a.Name, a.pc, len(a.Ops))
		}
	}
	return s
}
