// Command chgraph-bench regenerates the tables and figures of the paper's
// evaluation (§VI) on the simulated system.
//
// Usage:
//
//	chgraph-bench -fig fig14              # one figure
//	chgraph-bench -fig fig2,fig3,fig15    # several
//	chgraph-bench -fig all                # the full evaluation
//	chgraph-bench -list                   # available figure ids
//
// The -scale flag trades fidelity for speed (e.g. -scale 0.25 for a quick
// pass); -datasets and -algos restrict the sweeps. -metrics-out writes the
// session's per-cell timelines (one per simulated run, cached cells appear
// once) as a JSON document; -cpuprofile and -trace capture host profiles.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"chgraph/internal/bench"
	"chgraph/internal/obs"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure id(s), comma separated, or 'all'")
		list     = flag.Bool("list", false, "list available figure ids")
		scale    = flag.Float64("scale", 1, "dataset scale multiplier")
		datasets = flag.String("datasets", "", "comma-separated dataset subset (default: all five)")
		algos    = flag.String("algos", "", "comma-separated algorithm subset (default: all six)")
		parallel = flag.Int("parallel", 0, "max concurrently simulated cells (0 = auto)")
		workers  = flag.Int("workers", 1, "host worker threads inside each cell (prep/compile); results are identical for every value")
		verbose  = flag.Bool("v", false, "log every simulated cell")
		logLevel = flag.Int("loglevel", 0, "telemetry log level on stderr: 0 silent, 1 run, 2 +iterations, 3 +phases (implies -v)")

		mutSmoke = flag.Bool("mutate-smoke", false, "measure incremental artifact update vs full rebuild on WEB (~1% hyperedge batch); merged into -metrics-out as \"mutate_smoke\"; fails if the incremental path is not faster")

		metricsOut = flag.String("metrics-out", "", "write session metrics (per-cell timelines + summary) to this JSON file")
		cpuProfile = flag.String("cpuprofile", "", "write a host CPU profile (pprof) to this file")
		traceOut   = flag.String("trace", "", "write a host runtime/trace to this file")
	)
	flag.Parse()

	if *list {
		for _, r := range bench.Runners() {
			fmt.Printf("%-8s %s\n", r.ID, r.Desc)
		}
		return
	}
	if *fig == "" && !*mutSmoke {
		fmt.Fprintln(os.Stderr, "usage: chgraph-bench -fig <id>[,<id>...] | -fig all | -mutate-smoke | -list")
		os.Exit(2)
	}

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() { pprof.StopCPUProfile(); pf.Close() }()
	}
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rtrace.Start(tf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() { rtrace.Stop(); tf.Close() }()
	}

	cfg := bench.Config{Scale: *scale, Parallel: *parallel, Workers: *workers}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *algos != "" {
		cfg.Algos = strings.Split(*algos, ",")
	}
	level := obs.Level(*logLevel)
	if *verbose && level < obs.LevelRun {
		level = obs.LevelRun
	}
	if level > obs.LevelSilent {
		cfg.Log = obs.NewLogger(os.Stderr, level)
	}
	if *metricsOut != "" && *fig != "" {
		cfg.Metrics = obs.NewSessionMetrics()
	}
	session := bench.NewSession(cfg)

	// Host allocation accounting for the session: a Mallocs delta over the
	// figure runs feeds the bench wall's allocation gate.
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	var runners []bench.Runner
	if *fig == "all" {
		runners = bench.Runners()
	} else if *fig != "" {
		for _, id := range strings.Split(*fig, ",") {
			r, ok := bench.RunnerByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown figure %q; known: %v\n", id, bench.RunnerIDs())
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	for _, r := range runners {
		t0 := time.Now()
		table := r.Run(session)
		fmt.Println(table.String())
		fmt.Printf("(%s regenerated in %v)\n\n", r.ID, time.Since(t0).Round(time.Millisecond))
	}

	if cfg.Metrics != nil {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		cfg.Metrics.RecordHostAllocs(memAfter.Mallocs - memBefore.Mallocs)
		cfg.Metrics.RecordHeapInuse(memAfter.HeapInuse)
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = cfg.Metrics.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sum := cfg.Metrics.Summary()
		fmt.Fprintf(os.Stderr, "session metrics written to %s (%d runs, %d phases, %d simulated cycles, %.2f adjacency bytes/edge)\n",
			*metricsOut, sum.Runs, sum.Phases, sum.SimulatedCycles, sum.BytesPerEdge)
	}

	if *mutSmoke {
		res, err := bench.MutateSmoke(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("mutate-smoke: %s scale %g, batch -%d/+%d of %d hyperedges\n",
			res.Dataset, res.Scale, res.BatchRemoved, res.BatchAdded, res.NumHyperedges)
		fmt.Printf("  rebuild: %v  incremental update: %v  speedup: %.2fx\n",
			time.Duration(res.RebuildNS), time.Duration(res.UpdateNS), res.Speedup)
		if res.Speedup < 1.0 {
			fmt.Fprintf(os.Stderr, "mutate-smoke: incremental update (%.2fx) is not faster than a rebuild\n", res.Speedup)
			os.Exit(1)
		}
		if *metricsOut != "" {
			if err := mergeMutateSmoke(*metricsOut, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "mutate-smoke result merged into %s\n", *metricsOut)
		}
	}
}

// mergeMutateSmoke adds the mutate-smoke result to the metrics document
// under "mutate_smoke", preserving the summary-before-runs field order the
// bench gate's first-occurrence parsing relies on. A missing file yields a
// document holding only the smoke result.
func mergeMutateSmoke(path string, res bench.MutateSmokeResult) error {
	var doc struct {
		Arrays      json.RawMessage          `json:"arrays,omitempty"`
		Summary     json.RawMessage          `json:"summary,omitempty"`
		Runs        json.RawMessage          `json:"runs,omitempty"`
		MutateSmoke *bench.MutateSmokeResult `json:"mutate_smoke,omitempty"`
	}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("merging mutate-smoke into %s: %v", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	doc.MutateSmoke = &res
	out, err := json.MarshalIndent(&doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
