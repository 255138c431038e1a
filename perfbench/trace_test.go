package main

import (
	"testing"
	"time"
)

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "a.inner", start: 20, end: 30, parent: 1},
		{name: "b", start: 50, end: 90, parent: 0},
		// Concurrent children overlap: their union counts once.
		{name: "c1", start: 55, end: 70, parent: 3},
		{name: "c2", start: 60, end: 80, parent: 3},
		// A child running past its parent is clipped to the parent.
		{name: "late", start: 95, end: 120, parent: 0},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 30 - 40 - 5, 30 - 10, 10, 40 - 25, 15, 20, 25}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestTracerLayers(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", noSpan, 1)
	child := tr.begin("child", root, 1)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	open := tr.begin("open", noSpan, 2) // never ended: ignored
	_ = open
	l := tr.layers()
	if l["op"].count != 1 || l["child"].count != 1 || l["open"].count != 0 {
		t.Fatalf("layer counts %+v", l)
	}
	if l["op"].self+l["child"].self != l["op"].total {
		t.Fatalf("self times %v + %v != op total %v", l["op"].self, l["child"].self, l["op"].total)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", noSpan, 0)) // untraced mode: no-ops
}
