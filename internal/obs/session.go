package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// SessionMetrics aggregates many runs: a rollup of every finished run, plus
// — for runs observed under a key — the run's full Timeline. A bench session
// attaches one keyed observer per simulated cell; cached cells never re-run,
// so each key appears exactly once per execution (the singleflight test
// relies on this). A server, which only reports the rollup, observes runs
// through ObserveRollup and keeps no per-run state.
type SessionMetrics struct {
	mu         sync.Mutex
	runs       map[string][]*Timeline
	rollup     SessionSummary // run-derived fields only; see Summary
	hostAllocs uint64
	heapInuse  uint64
	adjBytes   uint64
	bipEdges   uint64
}

// NewSessionMetrics builds an empty aggregator.
func NewSessionMetrics() *SessionMetrics {
	return &SessionMetrics{runs: map[string][]*Timeline{}}
}

// Observe registers a fresh Timeline for one run under key and returns an
// observer that records into it and folds the finished run into the
// rollup. Every call records a new run — callers should invoke it once per
// actual engine execution, not per cache hit.
func (m *SessionMetrics) Observe(key string) Observer {
	t := NewTimeline()
	m.mu.Lock()
	m.runs[key] = append(m.runs[key], t)
	m.mu.Unlock()
	return Multi(t, m.ObserveRollup())
}

// ObserveRollup returns an observer that folds one run into the rollup
// when it finishes and keeps nothing else: no key, no Timeline.
func (m *SessionMetrics) ObserveRollup() Observer { return rollupObserver{m: m} }

// rollupObserver adds each finished run to its session's rollup.
type rollupObserver struct {
	Null
	m *SessionMetrics
}

func (r rollupObserver) RunDone(s RunSnapshot) {
	m := r.m
	m.mu.Lock()
	m.rollup.Runs++
	m.rollup.Phases += s.Phases
	m.rollup.SimulatedCycles += s.Cycles
	m.rollup.MemAccesses += s.MemTotal()
	m.rollup.EdgesProcessed += s.EdgesProcessed
	m.rollup.HostWall += s.HostWall
	m.mu.Unlock()
}

// Runs returns the number of recorded runs for key.
func (m *SessionMetrics) Runs(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.runs[key])
}

// Keys returns the recorded run keys, sorted.
func (m *SessionMetrics) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.runs))
	for k := range m.runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Timeline returns the first recorded timeline for key, or nil.
func (m *SessionMetrics) Timeline(key string) *Timeline {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.runs[key]
	if len(ts) == 0 {
		return nil
	}
	return ts[0]
}

// RecordHostAllocs sets the session's host allocation count — the driver
// measures a runtime.MemStats.Mallocs delta over the whole session and
// records it once at the end. Zero means "not measured" and keeps the field
// out of consumers' way (the bench gate skips an absent baseline).
func (m *SessionMetrics) RecordHostAllocs(n uint64) {
	m.mu.Lock()
	m.hostAllocs = n
	m.mu.Unlock()
}

// RecordDatasetFootprint accumulates one dataset's adjacency storage
// footprint into the session totals: adjBytes is the in-memory adjacency
// size (offsets + packed neighbor storage, both incidence directions) and
// bipEdges its bipartite edge count. Callers record each dataset exactly
// once, at load; the summary derives bytes_per_edge from the two sums,
// which is what the bench gate's memory wall ratchets.
func (m *SessionMetrics) RecordDatasetFootprint(adjBytes, bipEdges uint64) {
	m.mu.Lock()
	m.adjBytes += adjBytes
	m.bipEdges += bipEdges
	m.mu.Unlock()
}

// RecordHeapInuse sets the session's end-of-run heap footprint — the driver
// samples runtime.MemStats.HeapInuse once after all cells complete, giving a
// peak-RSS-style signal for the whole session. Zero means "not measured".
func (m *SessionMetrics) RecordHeapInuse(n uint64) {
	m.mu.Lock()
	m.heapInuse = n
	m.mu.Unlock()
}

// SessionSummary is the session-level rollup across all recorded runs.
type SessionSummary struct {
	Runs            int           `json:"runs"`
	Phases          int           `json:"phases"`
	SimulatedCycles uint64        `json:"simulated_cycles"`
	MemAccesses     uint64        `json:"mem_accesses"`
	EdgesProcessed  uint64        `json:"edges_processed"`
	HostWall        time.Duration `json:"host_wall_ns"`
	// HostAllocs is the heap objects allocated on the host over the whole
	// session (a Mallocs delta, see RecordHostAllocs); the allocation gate
	// in scripts/benchgate.sh ratchets it.
	HostAllocs uint64 `json:"host_allocs,omitempty"`
	// AdjacencyBytes and BytesPerEdge measure the adjacency storage of every
	// dataset the session loaded (RecordDatasetFootprint): total bytes and
	// bytes per bipartite edge. The memory wall in scripts/benchgate.sh
	// ratchets bytes_per_edge so codec or layout regressions fail CI.
	AdjacencyBytes uint64  `json:"adjacency_bytes,omitempty"`
	BytesPerEdge   float64 `json:"bytes_per_edge,omitempty"`
	// HeapInuse is the host heap in use after the session finished
	// (RecordHeapInuse) — a peak-RSS-style footprint signal.
	HeapInuse uint64 `json:"host_heap_inuse_bytes,omitempty"`
}

// Summary returns the rollup across every completed run plus the recorded
// session-level measurements.
func (m *SessionMetrics) Summary() SessionSummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.rollup
	s.HostAllocs, s.AdjacencyBytes, s.HeapInuse = m.hostAllocs, m.adjBytes, m.heapInuse
	if m.bipEdges > 0 {
		s.BytesPerEdge = float64(m.adjBytes) / float64(m.bipEdges)
	}
	return s
}

// sessionJSON is the session export schema: the rollup plus one entry per
// run key (sorted) with its run summary and per-phase trajectory.
type sessionJSON struct {
	Arrays  []string         `json:"arrays"`
	Summary SessionSummary   `json:"summary"`
	Runs    []sessionRunJSON `json:"runs"`
}

type sessionRunJSON struct {
	Key        string              `json:"key"`
	Run        RunSnapshot         `json:"run"`
	Iterations []IterationSnapshot `json:"iterations"`
	Phases     []PhaseSnapshot     `json:"phases"`
}

// WriteJSON writes the whole session (summary + every run's timeline) as
// one indented JSON document, runs sorted by key.
func (m *SessionMetrics) WriteJSON(w io.Writer) error {
	doc := sessionJSON{Arrays: ArrayNames(), Summary: m.Summary()}
	for _, key := range m.Keys() {
		m.mu.Lock()
		ts := append([]*Timeline(nil), m.runs[key]...)
		m.mu.Unlock()
		for _, t := range ts {
			run, _ := t.Run()
			doc.Runs = append(doc.Runs, sessionRunJSON{
				Key: key, Run: run,
				Iterations: t.Iterations(),
				Phases:     t.Phases(),
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
