package main

import (
	"runtime"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// With 100 samples p95 is the 95th smallest: five samples lie beyond it.
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if xs[0] != 15 || hundred[0] != 100 {
		t.Error("percentile reordered its input")
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which is
// how run-to-run spreads of the printed results are judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 3, 3}, [3]float64{3, 3, 3}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

var keep [][]byte

// liveHeapMB must not count garbage, including what sync.Pool's victim
// cache holds for one collection, and must count what is still reachable.
func TestLiveHeapAfterTwoGCs(t *testing.T) {
	base := liveHeapMB()
	keep = [][]byte{make([]byte, 32<<20)}
	held := liveHeapMB()
	if held-base < 31 {
		t.Fatalf("live heap grew %.1f MB with 32 MB reachable", held-base)
	}
	keep = nil
	if got := liveHeapMB(); got-base > 1 {
		t.Fatalf("live heap %.1f MB above base after dropping 32 MB", got-base)
	}
	runtime.KeepAlive(keep)
}
