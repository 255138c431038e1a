package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Times are nanoseconds since the tracer started.
type span struct {
	name       string
	start, end int64
	parent     int32 // index of the enclosing span, -1 for a root
	op         int64 // id shared by every span of one benchmark op
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// noSpan is the id a nil tracer hands out; end ignores it.
const noSpan int32 = -1

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

// end closes the span id.
func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds an already-measured span (used where a call's interval is
// taken from a handler or transport wrapper).
func (t *tracer) record(name string, parent int32, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0)), parent: parent, op: op})
}

// layerTime is the total and self time of every span with one name.
type layerTime struct {
	count int
	total time.Duration
	self  time.Duration
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover. Overlapping children (concurrent calls) are
// merged first, so a child's time is never subtracted twice.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		ch := kids[int32(i)]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].start < spans[ch[b]].start })
		var covered, curS, curE int64
		open := false
		for _, c := range ch {
			cs, ce := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if ce <= cs {
				continue
			}
			switch {
			case !open:
				curS, curE, open = cs, ce, true
			case cs <= curE:
				curE = max(curE, ce)
			default:
				covered += curE - curS
				curS, curE = cs, ce
			}
		}
		if open {
			covered += curE - curS
		}
		out[i] = time.Duration(s.end - s.start - covered)
	}
	return out
}

// layers aggregates the recorded spans by name.
func (t *tracer) layers() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		if s.end < s.start {
			continue
		}
		lt := out[s.name]
		lt.count++
		lt.total += time.Duration(s.end - s.start)
		lt.self += self[i]
		out[s.name] = lt
	}
	return out
}
