// Command chgraph-run executes one hypergraph algorithm on one dataset
// under a chosen execution model and reports the architectural metrics.
//
// Example:
//
//	chgraph-run -dataset WEB -algo PR -engine chgraph
//	chgraph-run -dataset WEB -algo PR -engine hygra
//	chgraph-run -dataset WEB -algo PR -metrics-out run.json -loglevel 2
//	chgraph-run -dataset OK -algo PR -mutate "remove=0,5;add=0-1-2,3-4"
//
// -mutate applies a hyperedge batch (remove ids, add dash-separated pin
// lists) to the prepared artifacts incrementally before running, exercising
// the dynamic-hypergraph path: the run executes on the generation-1 artifact
// derived by oag.Update rather than a from-scratch rebuild.
//
// Observability: -metrics-out writes the run's full per-phase timeline as
// JSON (or CSV when the path ends in .csv); -loglevel 1..3 streams run /
// iteration / phase telemetry to stderr; -cpuprofile and -trace capture
// host-side pprof and runtime/trace profiles of the simulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"
	"syscall"

	chgraph "chgraph"
)

func main() {
	var (
		dataset  = flag.String("dataset", "WEB", "dataset name (FS OK LJ WEB OG, or AZ PK for graphs)")
		algo     = flag.String("algo", "PR", "algorithm (BFS PR MIS BC CC k-core; SSSP Adsorption for graphs)")
		eng      = flag.String("engine", "chgraph", "execution model: hygra gla chgraph chgraph-hcg hats-v hygra-pf")
		scale    = flag.Float64("scale", 1, "dataset scale multiplier")
		cores    = flag.Int("cores", 16, "simulated cores")
		dmax     = flag.Int("dmax", 16, "maximum chain exploration depth (D_max)")
		wmin     = flag.Uint("wmin", 3, "OAG overlap threshold (W_min)")
		prep     = flag.Bool("prep", false, "charge preprocessing time")
		source   = flag.Uint("source", 0, "source vertex for BFS/BC/SSSP")
		workers  = flag.Int("workers", 0, "host worker threads for prep/compile (0 = all CPUs, 1 = serial); results are identical for every value")
		shards   = flag.Int("shards", 1, "shard count: >1 partitions the hypergraph and runs one engine per shard with a merge barrier between iterations")
		shardPol = flag.String("shard-policy", "range", "partition policy: range (contiguous hyperedge ranges) or greedy (streaming replication-minimizing)")
		distWk   = flag.String("dist-workers", "", "comma-separated chgraph-worker addresses: run distributed, one shard per worker process (overrides -shards)")
		mutate   = flag.String("mutate", "", `hyperedge batch to apply incrementally before running, e.g. "remove=0,5;add=0-1-2,3-4"`)

		metricsOut = flag.String("metrics-out", "", "write the per-phase timeline to this file (JSON, or CSV if the path ends in .csv)")
		logLevel   = flag.Int("loglevel", 0, "telemetry log level on stderr: 0 silent, 1 run, 2 +iterations, 3 +phases")
		cpuProfile = flag.String("cpuprofile", "", "write a host CPU profile (pprof) to this file")
		traceOut   = flag.String("trace", "", "write a host runtime/trace to this file")
	)
	flag.Parse()

	kind, err := chgraph.ParseEngine(*eng)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Ctrl-C / SIGTERM abandons the run at the next engine phase boundary
	// instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var g *chgraph.Hypergraph
	isGraph := false
	for _, n := range chgraph.GraphDatasets() {
		if strings.EqualFold(n, *dataset) {
			isGraph = true
		}
	}
	if isGraph {
		g, err = chgraph.LoadGraphDataset(*dataset, *scale)
	} else {
		g, err = chgraph.LoadDataset(*dataset, *scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := g.Stats()
	fmt.Printf("%s: %d vertices, %d hyperedges, %d bipartite edges (%.1f MB)\n",
		*dataset, st.NumVertices, st.NumHyperedges, st.NumBipartiteEdges, float64(st.SizeBytes)/(1<<20))

	// Profiling hooks cover the whole run (prep + compile + simulation).
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

	var timeline *chgraph.Timeline
	var observers []chgraph.Observer
	if *metricsOut != "" {
		timeline = chgraph.NewTimeline()
		observers = append(observers, timeline)
	}
	if *logLevel > 0 {
		observers = append(observers, chgraph.NewLogObserver(os.Stderr, chgraph.LogLevel(*logLevel)))
	}
	var observer chgraph.Observer
	if len(observers) == 1 {
		observer = observers[0]
	} else if len(observers) > 1 {
		observer = chgraph.MultiObserver(observers...)
	}

	cfg := chgraph.RunConfig{
		Engine: kind, Cores: *cores, DMax: *dmax, WMin: uint32(*wmin),
		IncludePreprocessing: *prep, Source: uint32(*source), Workers: *workers,
		Observer: observer, Shards: *shards, ShardPolicy: *shardPol,
	}
	if *distWk != "" {
		for _, a := range strings.Split(*distWk, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.DistWorkers = append(cfg.DistWorkers, a)
			}
		}
	}

	if *mutate != "" {
		batch, err := parseMutation(*mutate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		pre, err := chgraph.Prepare(ctx, g, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		g, pre, err = pre.Apply(ctx, batch)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Prepared = pre
		fmt.Printf("mutated: generation %d, %d hyperedges (+%d/-%d, artifacts updated incrementally)\n",
			pre.Generation(), g.NumHyperedges(), len(batch.Add), len(batch.Remove))
	}

	res, err := chgraph.RunContext(ctx, g, *algo, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if timeline != nil {
		if err := writeTimeline(timeline, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsOut)
	}

	fmt.Printf("\n%s / %s on %s\n", *eng, *algo, *dataset)
	if res.Shards > 1 {
		fmt.Printf("  shards:            %d (%s policy, %d replicated vertices, %.3fx replication)\n",
			res.Shards, *shardPol, res.ReplicatedVertices, res.ReplicationFactor)
	}
	if len(cfg.DistWorkers) > 0 {
		fmt.Printf("  dist workers:      %d (%d restarts recovered)\n", len(cfg.DistWorkers), res.WorkerRestarts)
	}
	fmt.Printf("  state checksum:    %016x\n", stateChecksum(res))
	fmt.Printf("  iterations:        %d\n", res.Iterations)
	fmt.Printf("  simulated cycles:  %d\n", res.Cycles)
	if res.PreprocessCycles > 0 {
		fmt.Printf("  preprocessing:     %d cycles (included)\n", res.PreprocessCycles)
	}
	fmt.Printf("  DRAM accesses:     %d\n", res.MemAccesses)
	for _, grp := range []string{"offset", "incident", "value", "OAG", "other"} {
		fmt.Printf("    %-9s %d\n", grp+":", res.MemByGroup[grp])
	}
	fmt.Printf("  mem-stall:         %.1f%% of core time\n", 100*res.MemStallFraction)
	if res.Chains > 0 {
		fmt.Printf("  chains:            %d (avg length %.2f)\n", res.Chains, float64(res.ChainNodes)/float64(res.Chains))
	}
}

// stateChecksum hashes the run's final algorithm state (FNV-64a over the
// little-endian float64 bit patterns of the vertex then hyperedge values) so
// scripts can compare distributed and in-process runs for bit-identity
// (scripts/distsmoke.sh grep this line).
func stateChecksum(res *chgraph.Result) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(vals []float64) {
		for _, v := range vals {
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				h ^= uint64(byte(bits >> (8 * i)))
				h *= prime
			}
		}
	}
	mix(res.VertexValues)
	mix(res.HyperedgeValues)
	return h
}

// parseMutation decodes the -mutate spec: semicolon-separated clauses of
// "remove=<id>,<id>,..." and "add=<pins>,<pins>,..." where each pin list is
// dash-separated vertex ids.
func parseMutation(spec string) (chgraph.Batch, error) {
	var b chgraph.Batch
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return b, fmt.Errorf("-mutate: clause %q is not key=value", clause)
		}
		switch key {
		case "remove":
			for _, tok := range strings.Split(val, ",") {
				id, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 32)
				if err != nil {
					return b, fmt.Errorf("-mutate: bad hyperedge id %q: %v", tok, err)
				}
				b.RemoveHyperedges(uint32(id))
			}
		case "add":
			for _, tok := range strings.Split(val, ",") {
				var pins []uint32
				for _, p := range strings.Split(strings.TrimSpace(tok), "-") {
					v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
					if err != nil {
						return b, fmt.Errorf("-mutate: bad pin %q in %q: %v", p, tok, err)
					}
					pins = append(pins, uint32(v))
				}
				b.AddHyperedges(pins)
			}
		default:
			return b, fmt.Errorf("-mutate: unknown clause %q (want remove= or add=)", key)
		}
	}
	if b.Empty() {
		return b, fmt.Errorf("-mutate: spec %q stages no mutations", spec)
	}
	return b, nil
}

// writeTimeline exports the recorded timeline, choosing CSV for .csv paths
// and JSON otherwise.
func writeTimeline(t *chgraph.Timeline, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		err = t.WriteCSV(f)
	} else {
		err = t.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
