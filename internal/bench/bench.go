// Package bench reproduces every table and figure of the paper's evaluation
// (§VI): each runner regenerates one result as a printable table, using the
// synthetic datasets of internal/gen on the scaled simulated system.
// Datasets, OAG preprocessing and engine runs are cached and shared across
// figures, and independent cells run concurrently.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"chgraph/internal/algorithms"
	"chgraph/internal/engine"
	"chgraph/internal/flight"
	"chgraph/internal/gen"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/shard"
	"chgraph/internal/sim/system"
)

// Config parameterizes a reproduction session.
type Config struct {
	// Scale multiplies each dataset's calibrated base size (1 = default).
	Scale float64
	// Cores is the simulated core count (16 = Table I).
	Cores int
	// Sys overrides the system config (zero value = scaled default).
	Sys system.Config
	// Parallel bounds concurrently simulated cells (0 = NumCPU, max 8).
	Parallel int
	// Workers bounds the host-side parallelism inside each cell (OAG
	// construction, phase compilation). Results are identical for every
	// value. 0 defaults to 1: sessions already parallelize across cells,
	// so intra-cell workers would oversubscribe the host.
	Workers int
	// Datasets restricts the dataset list (nil = all five).
	Datasets []string
	// Algos restricts the algorithm list (nil = all six).
	Algos []string
	// Log receives progress lines and (at higher levels) per-run
	// telemetry; nil is silent. It replaces the old Logf callback.
	Log *obs.Logger
	// Metrics, if non-nil, aggregates every simulated cell's timeline
	// under its run key for session-level export (chgraph-bench
	// -metrics-out). Cached cells never re-run, so each key is recorded
	// exactly once per execution.
	Metrics *obs.SessionMetrics
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Cores <= 0 {
		c.Cores = 16
	}
	if c.Sys.Cores == 0 {
		c.Sys = system.ScaledConfig()
	}
	c.Sys.Cores = c.Cores
	if c.Parallel <= 0 {
		c.Parallel = runtime.NumCPU()
	}
	if c.Parallel > 8 {
		c.Parallel = 8
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if len(c.Datasets) == 0 {
		c.Datasets = gen.HypergraphNames
	}
	if len(c.Algos) == 0 {
		c.Algos = algorithms.HypergraphAlgos
	}
	return c
}

// Session caches datasets, preprocessing and runs across figure runners.
type Session struct {
	cfg Config

	mu        sync.Mutex
	data      map[string]*hypergraph.Bipartite
	preps     map[string]*engine.Prep
	runs      map[string]*engine.Result
	shardRuns map[string]*shard.Result
	// inflight and shardInflight coalesce concurrent duplicate cells: the
	// first caller of a key simulates it, duplicates wait and share the
	// result (internal/flight grew out of this cache's original coalescer).
	inflight      *flight.Group[*engine.Result]
	shardInflight *flight.Group[*shard.Result]
	sem           chan struct{}
}

// NewSession builds a session.
func NewSession(cfg Config) *Session {
	cfg = cfg.withDefaults()
	return &Session{
		cfg:           cfg,
		data:          map[string]*hypergraph.Bipartite{},
		preps:         map[string]*engine.Prep{},
		runs:          map[string]*engine.Result{},
		shardRuns:     map[string]*shard.Result{},
		inflight:      flight.NewGroup[*engine.Result](),
		shardInflight: flight.NewGroup[*shard.Result](),
		sem:           make(chan struct{}, cfg.Parallel),
	}
}

// Metrics returns the session's aggregator (nil when not configured).
func (s *Session) Metrics() *obs.SessionMetrics { return s.cfg.Metrics }

// Cfg returns the session configuration (with defaults applied).
func (s *Session) Cfg() Config { return s.cfg }

// Dataset loads (and caches) a named dataset at the session scale. Graph
// datasets (AZ, PK) are recognized by name.
func (s *Session) Dataset(name string) *hypergraph.Bipartite {
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.data[name]; ok {
		return g
	}
	var g *hypergraph.Bipartite
	if isGraph(name) {
		g = gen.MustLoadGraph(name, s.cfg.Scale)
	} else {
		g = gen.MustLoad(name, s.cfg.Scale)
	}
	s.data[name] = g
	if s.cfg.Metrics != nil {
		// Each dataset feeds the session footprint exactly once, on first
		// load (the cache above makes later calls hits).
		s.cfg.Metrics.RecordDatasetFootprint(g.AdjacencyBytes(), g.NumBipartiteEdges())
	}
	return g
}

func isGraph(name string) bool {
	for _, n := range gen.GraphNames {
		if strings.EqualFold(n, name) {
			return true
		}
	}
	return false
}

// Prep returns the cached chunking+OAG preprocessing for a dataset under the
// given wMin at the session core count.
func (s *Session) Prep(name string, wMin uint32) *engine.Prep {
	return s.prepCores(name, wMin, s.cfg.Cores)
}

func (s *Session) prepCores(name string, wMin uint32, cores int) *engine.Prep {
	g := s.Dataset(name)
	key := fmt.Sprintf("%s/w%d/c%d", name, wMin, cores)
	s.mu.Lock()
	if p, ok := s.preps[key]; ok {
		s.mu.Unlock()
		return p
	}
	s.mu.Unlock()
	p := engine.PrepareParallel(g, cores, wMin, s.cfg.Workers)
	s.mu.Lock()
	s.preps[key] = p
	s.mu.Unlock()
	return p
}

// RunSpec identifies one simulated cell.
type RunSpec struct {
	Dataset string
	Algo    string
	Kind    engine.Kind
	// Opt tweaks beyond session defaults; fields left zero use defaults.
	DMax       int
	WMin       uint32
	Sys        *system.Config
	Charge     bool // include preprocessing time
	NoPrepOAGs bool // skip OAG prep (non-chain engines)
	Reordered  bool // run on the reordered dataset (Figure 24)
	// Shards > 1 runs the cell sharded (internal/shard) under ShardPolicy
	// (empty = range); each shard preps its own sub-hypergraph, so the
	// session prep cache is bypassed.
	Shards      int
	ShardPolicy shard.Policy
}

func (rs RunSpec) key() string {
	sys := ""
	if rs.Sys != nil {
		sys = fmt.Sprintf("/llc%d/cores%d/l1-%d/l2-%d", rs.Sys.TotalLLCBytes(), rs.Sys.Cores, rs.Sys.L1.SizeBytes, rs.Sys.L2.SizeBytes)
	}
	shards := ""
	if rs.Shards > 1 {
		pol := rs.ShardPolicy
		if pol == "" {
			pol = shard.PolicyRange
		}
		shards = fmt.Sprintf("/k%d/%s", rs.Shards, pol)
	}
	return fmt.Sprintf("%s/%s/%v/d%d/w%d/ch%v/re%v%s%s", rs.Dataset, rs.Algo, rs.Kind, rs.DMax, rs.WMin, rs.Charge, rs.Reordered, sys, shards)
}

// Run simulates one cell (cached). Concurrent callers with the same key
// coalesce into a single simulation: exactly one engine.Run executes per
// key, duplicates block until it completes and share its Result.
func (s *Session) Run(rs RunSpec) *engine.Result {
	if rs.Shards > 1 {
		return s.RunSharded(rs).Result
	}
	key := rs.key()
	s.mu.Lock()
	if r, ok := s.runs[key]; ok {
		s.mu.Unlock()
		return r
	}
	s.mu.Unlock()

	res, err, _ := s.inflight.Do(context.Background(), key, func(ctx context.Context) (*engine.Result, error) {
		// Re-check: a caller that missed the cache just before an earlier
		// flight for key published and ended starts a new flight here.
		s.mu.Lock()
		r, ok := s.runs[key]
		s.mu.Unlock()
		if ok {
			return r, nil
		}
		s.sem <- struct{}{}
		defer func() { <-s.sem }()

		g := s.Dataset(rs.Dataset)
		wMin := rs.WMin
		if wMin == 0 {
			wMin = 3
		}
		sys := s.cfg.Sys
		if rs.Sys != nil {
			sys = *rs.Sys
		}
		var prep *engine.Prep
		if rs.Reordered {
			g = s.reordered(rs.Dataset)
			prep = s.prepFor("reordered/"+rs.Dataset, g, wMin, sys.Cores)
		} else if needsChains(rs.Kind) {
			prep = s.prepCores(rs.Dataset, wMin, sys.Cores)
		}
		alg, ok := algorithms.ByName(rs.Algo)
		if !ok {
			return nil, fmt.Errorf("unknown algorithm %s", rs.Algo)
		}
		s.cfg.Log.Logf("run %s", key)
		var ob obs.Observer
		if s.cfg.Metrics != nil {
			ob = s.cfg.Metrics.Observe(key)
		}
		if s.cfg.Log.Enabled(obs.LevelIteration) {
			ob = obs.Multi(ob, s.cfg.Log)
		}
		res, err := engine.RunCtx(ctx, g, alg, engine.Options{
			Kind: rs.Kind, Sys: sys, DMax: rs.DMax, WMin: wMin,
			Prep: prep, ChargePreprocess: rs.Charge, Workers: s.cfg.Workers,
			Observer: ob,
		})
		if err != nil {
			return nil, err
		}
		// Publish before the flight key is forgotten so a caller arriving
		// after the in-flight window always finds the cache populated.
		s.mu.Lock()
		s.runs[key] = res
		s.mu.Unlock()
		return res, nil
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", key, err))
	}
	return res
}

// RunSharded simulates one cell through the shard coordinator (cached under
// the same key space as Run; each shard preps its own sub-hypergraph).
func (s *Session) RunSharded(rs RunSpec) *shard.Result {
	key := rs.key()
	s.mu.Lock()
	if r, ok := s.shardRuns[key]; ok {
		s.mu.Unlock()
		return r
	}
	s.mu.Unlock()

	res, err, _ := s.shardInflight.Do(context.Background(), key, func(ctx context.Context) (*shard.Result, error) {
		// Re-check, as in Run.
		s.mu.Lock()
		r, ok := s.shardRuns[key]
		s.mu.Unlock()
		if ok {
			return r, nil
		}
		s.sem <- struct{}{}
		defer func() { <-s.sem }()

		g := s.Dataset(rs.Dataset)
		wMin := rs.WMin
		if wMin == 0 {
			wMin = 3
		}
		sys := s.cfg.Sys
		if rs.Sys != nil {
			sys = *rs.Sys
		}
		alg, ok := algorithms.ByName(rs.Algo)
		if !ok {
			return nil, fmt.Errorf("unknown algorithm %s", rs.Algo)
		}
		s.cfg.Log.Logf("run %s", key)
		var ob obs.Observer
		if s.cfg.Metrics != nil {
			ob = s.cfg.Metrics.Observe(key)
		}
		if s.cfg.Log.Enabled(obs.LevelIteration) {
			ob = obs.Multi(ob, s.cfg.Log)
		}
		res, err := shard.RunCtx(ctx, g, alg, shard.Options{
			Shards: rs.Shards, Policy: rs.ShardPolicy,
			Engine: engine.Options{
				Kind: rs.Kind, Sys: sys, DMax: rs.DMax, WMin: wMin,
				ChargePreprocess: rs.Charge, Workers: s.cfg.Workers,
				Observer: ob,
			},
		})
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.shardRuns[key] = res
		s.mu.Unlock()
		return res, nil
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %s: %v", key, err))
	}
	return res
}

func needsChains(k engine.Kind) bool {
	return k == engine.GLA || k == engine.ChGraph || k == engine.ChGraphHCG
}

// RunAll simulates many cells concurrently and returns them in order.
func (s *Session) RunAll(specs []RunSpec) []*engine.Result {
	out := make([]*engine.Result, len(specs))
	var wg sync.WaitGroup
	for i, rs := range specs {
		wg.Add(1)
		go func(i int, rs RunSpec) {
			defer wg.Done()
			out[i] = s.Run(rs)
		}(i, rs)
	}
	wg.Wait()
	return out
}

// reordered returns the cached reordered variant of a dataset.
func (s *Session) reordered(name string) *hypergraph.Bipartite {
	key := "reordered/" + name
	s.mu.Lock()
	if g, ok := s.data[key]; ok {
		s.mu.Unlock()
		return g
	}
	s.mu.Unlock()
	g := s.Dataset(name)
	res, err := reorderVertices(g)
	if err != nil {
		panic(err)
	}
	s.mu.Lock()
	s.data[key] = res
	s.mu.Unlock()
	return res
}

func (s *Session) prepFor(key string, g *hypergraph.Bipartite, wMin uint32, cores int) *engine.Prep {
	k := fmt.Sprintf("%s/w%d/c%d", key, wMin, cores)
	s.mu.Lock()
	if p, ok := s.preps[k]; ok {
		s.mu.Unlock()
		return p
	}
	s.mu.Unlock()
	p := engine.PrepareParallel(g, cores, wMin, s.cfg.Workers)
	s.mu.Lock()
	s.preps[k] = p
	s.mu.Unlock()
	return p
}

// Table is one reproduced result, printable as aligned text.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner regenerates one paper result.
type Runner struct {
	ID, Desc string
	Run      func(s *Session) *Table
}

// Runners lists every reproduced table/figure in paper order.
func Runners() []Runner {
	return []Runner{
		{"table1", "Simulated system configuration (Table I)", Table1},
		{"table2", "Dataset statistics (Table II)", Table2},
		{"fig2", "GLA vs Hygra main memory accesses, PR on WEB (Figure 2)", Fig2},
		{"fig3", "GLA and ChGraph runtime vs Hygra, PR on WEB (Figure 3)", Fig3},
		{"fig5", "Fraction of time stalled on memory under Hygra (Figure 5)", Fig5},
		{"fig7", "ChGraph vs HATS-V (Figure 7)", Fig7},
		{"fig8", "Sharable vertex/hyperedge ratios (Figure 8)", Fig8},
		{"fig14", "Performance of GLA and ChGraph vs Hygra (Figure 14)", Fig14},
		{"fig15", "Main-memory access breakdown by array group (Figure 15)", Fig15},
		{"fig16", "HCG / CP ablation (Figure 16)", Fig16},
		{"area", "Area and power of one ChGraph engine (§VI-E)", AreaPower},
		{"fig17", "Sensitivity to D_max (Figure 17)", Fig17},
		{"fig18", "Sensitivity to W_min (Figure 18)", Fig18},
		{"fig19", "Sensitivity to LLC size (Figure 19)", Fig19},
		{"fig20", "Scalability with core count (Figure 20)", Fig20},
		{"fig21", "Preprocessing time and storage overhead (Figure 21)", Fig21},
		{"fig22", "Total running time incl. preprocessing (Figure 22)", Fig22},
		{"fig23", "ChGraph vs event-triggered hardware prefetcher (Figure 23)", Fig23},
		{"fig24", "Interaction with reordering preprocessing (Figure 24)", Fig24},
		{"fig25", "Ordinary-graph generality vs Ligra/HATS (Figure 25)", Fig25},
		{"shards", "Sharded scale-out: cycles and replication vs shard count (beyond the paper)", FigShards},
	}
}

// RunnerByID returns the named runner.
func RunnerByID(id string) (Runner, bool) {
	for _, r := range Runners() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// RunnerIDs lists runner ids.
func RunnerIDs() []string {
	var ids []string
	for _, r := range Runners() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return ids
}

func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func fx(x float64) string { return fmt.Sprintf("%.2fx", x) }
func pc(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
func u64(x uint64) string { return fmt.Sprintf("%d", x) }
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
