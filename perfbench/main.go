// Command perfbench is chgraph's end-to-end benchmark. It runs one named
// workload against the program's public functions for a fixed number of
// seconds, checks every output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on its last line.
// "perfbench compare A B" judges two sets of saved run outputs against the
// bounds in BENCHMARK.json. See README.md in this directory.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run builds its workload from scratch; the
// reported setup_s is the median, and the last build is the one measured.
const setupReps = 3

// minTimedOps is the fewest ops a timed window attempts, so that at least
// ten samples lie beyond op_p95_ms: a window that would end short of it runs
// on. Fewer completed ops means some failed, and a failed op fails the run.
const minTimedOps = 200

// opRecord is one completed or failed benchmark op.
type opRecord struct {
	class string        // op class (cell or request kind), for per-class comparisons
	lat   time.Duration // latency: call wall (closed loop) or from due time (open loop)
	svc   time.Duration // service time: call wall from send to reply
	err   error         // non-nil when the op failed or its output did not verify
}

// workload is one benchmark workload. A fresh value is built for every
// set-up; refs carries the verified reference outputs between them.
type workload interface {
	// setup generates inputs and builds, starts and warms up everything the
	// timed window uses. It is what setup_s measures.
	setup(ctx context.Context, tr *tracer) error
	// check verifies the set-up's warm-up outputs (untimed).
	check() error
	// window runs ops until d has elapsed and at least minOps have been
	// attempted.
	window(ctx context.Context, tr *tracer, d time.Duration, minOps int) []opRecord
	// verify checks outputs that can only be checked after the window
	// (untimed).
	verify(ctx context.Context) error
	// sim returns the mean simulated cycles and DRAM line transfers per op;
	// both are deterministic for a seed.
	sim() (cycles, dram float64)
	// layerMetrics adds the workload's per-layer metrics, computed from its
	// traced windows and the spans recorded so far.
	layerMetrics(m metricSet, layers map[string]layerTime) error
	close()
}

var workloads = map[string]func(seed int64, refs *refs) workload{
	"sim-batch":   newSimBatch,
	"serve-mix":   newServeMix,
	"dist-shards": newDistShards,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// outcome is the bit-identity witness of one simulated run.
type outcome struct {
	sum         string
	cycles, mem uint64
}

// refs holds the verified reference outcome per op key. The first set-up
// fills it after checking against an independent reference; later set-ups
// and every timed op must reproduce it exactly.
type refs struct{ m map[string]outcome }

func newRefs() *refs { return &refs{m: map[string]outcome{}} }

// match compares got against the reference for key.
func (r *refs) match(key string, got outcome) error {
	want, ok := r.m[key]
	if !ok {
		return fmt.Errorf("%s: no verified reference", key)
	}
	if got != want {
		return fmt.Errorf("%s: got cycles=%d mem=%d sum=%.12s, reference cycles=%d mem=%d sum=%.12s",
			key, got.cycles, got.mem, got.sum, want.cycles, want.mem, want.sum)
	}
	return nil
}

// digest hashes every reference outcome in key order.
func (r *refs) digest() string {
	keys := make([]string, 0, len(r.m))
	for k := range r.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		o := r.m[k]
		fmt.Fprintf(h, "%s %d %d %s\n", k, o.cycles, o.mem, o.sum)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain("BENCHMARK.json", os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	traced := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(ctx, *name, *seed, d, stdout)
	} else {
		res, err = runUntraced(ctx, mk, *name, *seed, d, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		if res.Metrics == nil {
			return 1
		}
	}
	out, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(out))
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// setUp builds the workload setupReps times and returns the last build with
// the median set-up time. Every build's warm-up outputs are verified.
func setUp(ctx context.Context, mk func(int64, *refs) workload, seed int64, rf *refs, reps int, tr *tracer) (workload, float64, error) {
	var times []float64
	var w workload
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
		}
		w = mk(seed, rf)
		runtime.GC()
		t0 := time.Now()
		err := w.setup(ctx, tr)
		times = append(times, time.Since(t0).Seconds())
		if err == nil {
			err = w.check()
		}
		if err != nil {
			w.close()
			return nil, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
	}
	return w, median(times), nil
}

// summarize folds a window's op records into the end-to-end metrics.
func summarize(m metricSet, ops []opRecord, wall, cpu time.Duration) (failed int, firstErr error) {
	var lats []float64
	for _, o := range ops {
		if o.err != nil {
			failed++
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		lats = append(lats, ms(o.lat))
	}
	done := len(lats)
	m.set("ops_per_s", float64(done)/wall.Seconds(), "op/s")
	if done > 0 {
		m.set("cpu_ms_per_op", ms(cpu)/float64(done), "ms")
	}
	m.set("op_p50_ms", percentile(lats, 50), "ms")
	m.set("op_p95_ms", percentile(lats, 95), "ms")
	return failed, firstErr
}

func runUntraced(ctx context.Context, mk func(int64, *refs) workload, name string, seed int64, d time.Duration, stdout io.Writer) (result, error) {
	rf := newRefs()
	w, setupS, err := setUp(ctx, mk, seed, rf, setupReps, nil)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	runtime.GC()
	cpu0, t0 := cpuTime(), time.Now()
	ops := w.window(ctx, nil, d, minTimedOps)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	m := metricSet{}
	failed, firstErr := summarize(m, ops, wall, cpu)
	m.set("live_heap_mb", liveHeapMB(), "MB")
	m.set("setup_s", setupS, "s")
	if err := w.verify(ctx); err != nil && firstErr == nil {
		firstErr, failed = err, failed+1
	}
	cycles, dram := w.sim()
	m.set("sim_cycles_per_op", cycles, "cycles")
	m.set("dram_per_op", dram, "lines")
	errRate := float64(failed) / float64(max(len(ops), 1))
	fmt.Fprintf(stdout, "bench: workload=%s seed=%d ops=%d failed=%d error_rate=%g sim_digest=%s\n",
		name, seed, len(ops), failed, errRate, rf.digest())
	printClasses(stdout, ops)
	printMetrics(stdout, m)
	return result{Correct: failed == 0, Attempted: max(len(ops), 1), Failed: failed, Metrics: m}, firstErr
}

// runTraced measures every layer. The named workload runs one untraced and
// one traced half-window on the same set-up, which gives the tracing
// overhead; the other two workloads then run a traced quarter-window each,
// so every per-layer metric is measured in every traced run.
func runTraced(ctx context.Context, name string, seed int64, d time.Duration, stdout io.Writer) (result, error) {
	tr := newTracer()
	m := metricSet{}
	order := []string{name}
	for _, n := range workloadNames() {
		if n != name {
			order = append(order, n)
		}
	}
	attempted, failed := 0, 0
	var firstErr error
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	for i, wn := range order {
		rf := newRefs()
		w, _, err := setUp(ctx, workloads[wn], seed, rf, 1, tr)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", wn, err)
		}
		var untraced []opRecord
		win := d / 4
		if i == 0 {
			win = d / 2
			untraced = w.window(ctx, nil, win, 0)
		}
		traced := w.window(ctx, tr, win, 0)
		for _, o := range append(untraced, traced...) {
			attempted++
			if o.err != nil {
				fail(fmt.Errorf("%s: %w", wn, o.err))
			}
		}
		if err := w.verify(ctx); err != nil {
			fail(fmt.Errorf("%s: %w", wn, err))
		}
		if i == 0 {
			m.set("trace.overhead_pct", tracingOverhead(untraced, traced), "%")
		}
		if err := w.layerMetrics(m, tr.layers()); err != nil {
			fail(fmt.Errorf("%s: %w", wn, err))
		}
		fmt.Fprintf(stdout, "bench: traced workload=%s seed=%d ops=%d sim_digest=%s\n", wn, seed, len(untraced)+len(traced), rf.digest())
		w.close()
	}
	setupLayerMetrics(m, tr.layers())
	printMetrics(stdout, m)
	return result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: m}, firstErr
}

// tracingOverhead compares the mean service time of each op class between
// the traced and untraced windows and averages the per-class ratios, so a
// different class mix in the two windows does not read as overhead.
func tracingOverhead(untraced, traced []opRecord) float64 {
	mean := func(ops []opRecord) map[string]float64 {
		sum, n := map[string]float64{}, map[string]float64{}
		for _, o := range ops {
			if o.err == nil {
				sum[o.class] += ms(o.svc)
				n[o.class]++
			}
		}
		for k := range sum {
			sum[k] /= n[k]
		}
		return sum
	}
	u, t := mean(untraced), mean(traced)
	var sum float64
	var n int
	for k, tv := range t {
		if uv, ok := u[k]; ok && uv > 0 {
			sum += tv / uv
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * (sum/float64(n) - 1)
}

// setupLayerMetrics reports the layers every workload's set-up calls.
func setupLayerMetrics(m metricSet, layers map[string]layerTime) {
	for _, l := range []struct{ span, metric string }{
		{"gen.generate", "gen.generate_ms"},
		{"hypergraph.decode_text", "hypergraph.decode_text_ms"},
		{"hypergraph.decode_chg1", "hypergraph.decode_chg1_ms"},
		{"engine.prepare", "engine.prepare_ms"},
		{"oag.update", "oag.update_ms"},
	} {
		lt := layers[l.span]
		m.set(l.metric, meanMS(lt.total, lt.count), "ms")
	}
}

func meanMS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printMetrics prints one human-readable line per metric.
func printMetrics(w io.Writer, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printClasses prints each op class's count and median latency, which
// shows where the percentile ranks fall in the mix.
func printClasses(w io.Writer, ops []opRecord) {
	byClass := map[string][]float64{}
	for _, o := range ops {
		if o.err == nil {
			byClass[o.class] = append(byClass[o.class], ms(o.lat))
		}
	}
	names := make([]string, 0, len(byClass))
	for n := range byClass {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return median(byClass[names[i]]) < median(byClass[names[j]]) })
	for _, n := range names {
		fmt.Fprintf(w, "  class %-24s n=%-4d p50=%.3g ms\n", n, len(byClass[n]), median(byClass[n]))
	}
}
