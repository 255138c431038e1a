package main

import (
	"context"
	"testing"
	"time"
)

// Each workload sets up, verifies its warm-up, runs a short window and
// verifies every op, untraced and traced.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			tr := newTracer()
			w, setupS, err := setUp(ctx, workloads[name], 7, newRefs(), 1, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if setupS <= 0 {
				t.Fatalf("setup_s = %v", setupS)
			}
			// The untraced window asks for ten ops, more than a 300 ms
			// serve-mix window schedules, so it must run on past 300 ms.
			for _, tracer := range []*tracer{nil, tr} {
				minOps := 0
				if tracer == nil {
					minOps = 10
				}
				ops := w.window(ctx, tracer, 300*time.Millisecond, minOps)
				if len(ops) < minOps {
					t.Fatalf("window attempted %d ops, want at least %d", len(ops), minOps)
				}
				for _, op := range ops {
					if op.err != nil {
						t.Fatal(op.err)
					}
				}
			}
			if err := w.verify(ctx); err != nil {
				t.Fatal(err)
			}
			if c, d := w.sim(); c <= 0 || d <= 0 {
				t.Fatalf("sim() = %v, %v", c, d)
			}
			m := metricSet{}
			if err := w.layerMetrics(m, tr.layers()); err != nil {
				t.Fatal(err)
			}
			if len(m) == 0 {
				t.Fatal("no per-layer metrics")
			}
		})
	}
}
