// Package serve is the repeated-request layer over the chgraph library: a
// long-running HTTP service that accepts simulation requests, admits them
// through a bounded queue with backpressure, coalesces identical in-flight
// requests into one execution, and runs them on a worker pool against an LRU
// cache of prepared artifacts (hypergraph + chunking + OAGs + shard
// partitions), so a steady-state request stream pays the preprocessing cost
// of §IV-A once per spec instead of once per request.
//
// Four endpoints:
//
//   - POST /run — execute one simulation (JSON request/response);
//   - POST /mutate — apply a hyperedge mutation batch to a prepared spec,
//     swapping a new artifact version into the cache (copy-on-write: runs
//     already executing finish on the version they resolved);
//   - GET /healthz — liveness and drain state;
//   - GET /metrics — JSON counters: queue depth, cache hit ratio, in-flight,
//     mutation totals, latency histogram, plus the run-telemetry session
//     rollup when one is attached.
//
// Cancellation rides the request context end to end: a client that
// disconnects detaches from its (possibly shared) run immediately, and the
// run itself is abandoned at the next engine phase boundary once its last
// client is gone. Shutdown flips the server into draining (new requests get
// 503), then waits for in-flight requests up to a deadline.
//
// Coalescing and caching both key on the simulated specification only —
// host-side knobs (workers, response shaping) are excluded, because results
// are bit-identical for every host parallelism (DESIGN.md §10's determinism
// contract). Two requests that differ only in Workers share one run.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"chgraph"
	"chgraph/internal/flight"
	"chgraph/internal/obs"
)

// Options configures a Server. The zero value serves with sane defaults.
type Options struct {
	// QueueDepth bounds admitted-but-unfinished /run requests; a request
	// arriving past the bound is rejected with 429 (default 64).
	QueueDepth int
	// Workers bounds concurrently executing runs (default GOMAXPROCS).
	// Waiting coalesced requests don't hold a worker slot.
	Workers int
	// CacheEntries bounds the prepared-artifact LRU (default 16 specs).
	CacheEntries int
	// DrainTimeout bounds Shutdown when its context has no deadline
	// (default 30s).
	DrainTimeout time.Duration
	// Session, if non-nil, rolls up every executed run's telemetry (no
	// per-run timeline is kept); the rollup is exported under /metrics.
	// Coalesced and cache-served requests record nothing — one run per
	// actual engine execution.
	Session *obs.SessionMetrics
	// Limits applies to every tenant (zero value: unlimited, the
	// single-tenant behaviour); LimitOverrides replaces it for named
	// tenants. Requests select their tenant with the X-Tenant header
	// ("default" when absent).
	Limits         TenantLimits
	LimitOverrides map[string]TenantLimits
	// MaxUploadBytes bounds one PUT /datasets body (default 64 MiB).
	MaxUploadBytes int64
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 16
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 64 << 20
	}
	return o
}

// RunRequest is the /run request body. Dataset names come from
// chgraph.Datasets (hypergraphs) and chgraph.GraphDatasets (ordinary
// graphs); the side is inferred from the name.
type RunRequest struct {
	// Dataset and Scale select the synthetic dataset (scale <= 0 is the
	// calibrated default size).
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale,omitempty"`
	// Algorithm is the algorithm name (see chgraph.Algorithms, plus the
	// graph workloads).
	Algorithm string `json:"algorithm"`
	// Engine is the execution model spelling (default "hygra").
	Engine string `json:"engine,omitempty"`
	// Cores, WMin, DMax, Iterations, Source tune the run as in
	// chgraph.RunConfig.
	Cores      int    `json:"cores,omitempty"`
	WMin       uint32 `json:"wmin,omitempty"`
	DMax       int    `json:"dmax,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	Source     uint32 `json:"source,omitempty"`
	// Workers bounds host-side parallelism inside the run. It does not
	// affect results and is excluded from coalescing and cache keys.
	Workers int `json:"workers,omitempty"`
	// Shards and ShardPolicy select the scale-out layout.
	Shards      int    `json:"shards,omitempty"`
	ShardPolicy string `json:"shard_policy,omitempty"`
	// IncludeValues asks for the final value arrays in the response
	// (responses always carry their checksum).
	IncludeValues bool `json:"include_values,omitempty"`
}

// runKey is the coalescing key: every field that shapes the simulated
// result, and nothing else. The zero-argument forms assume a built-in
// dataset; tenant-resolved requests use the *For variants with the
// resolved dataset key (which carries tenant and upload id for registered
// datasets, so tenants can never collide on a name).
func (r RunRequest) runKey() string { return r.runKeyFor(strings.ToUpper(r.Dataset)) }

func (r RunRequest) runKeyFor(ds string) string {
	return fmt.Sprintf("%s/s%g/%s/%s/c%d/w%d/d%d/i%d/src%d/k%d/%s",
		ds, r.Scale, r.Algorithm, strings.ToLower(r.Engine),
		r.Cores, r.WMin, r.DMax, r.Iterations, r.Source, r.Shards, r.ShardPolicy)
}

// prepKey is the artifact-cache key: every field preprocessing depends on.
// Engine kind, algorithm and D_max are absent — one artifact serves them
// all.
func (r RunRequest) prepKey() string { return r.prepKeyFor(strings.ToUpper(r.Dataset)) }

func (r RunRequest) prepKeyFor(ds string) string {
	return fmt.Sprintf("%s/s%g/c%d/w%d/k%d/%s",
		ds, r.Scale, r.Cores, r.WMin, r.Shards, r.ShardPolicy)
}

// dsRef is a resolved dataset reference: where a request's data actually
// comes from. Registered datasets resolve to their in-memory hypergraph
// (Scale is ignored for them); built-ins keep the lazy generator path.
type dsRef struct {
	key     string              // dataset component of prep/flight keys
	name    string              // canonical built-in name ("" when registered)
	isGraph bool                // built-in ordinary-graph dataset
	g       *chgraph.Hypergraph // registered contents (nil for built-ins)
}

// resolveDataset maps (tenant, name) to a dsRef: the tenant's registry
// first, then the built-in synthetic datasets. A registered name shadows a
// built-in of the same name for that tenant only.
func (s *Server) resolveDataset(tenant, name string) (dsRef, error) {
	if ds, ok := s.registry.lookup(tenant, name); ok {
		return dsRef{key: regKey(tenant, name, ds.id), g: ds.g}, nil
	}
	canonical, isGraph, err := datasetSide(name)
	if err != nil {
		return dsRef{}, err
	}
	return dsRef{key: strings.ToUpper(canonical), name: canonical, isGraph: isGraph}, nil
}

// RunResponse is the /run response body.
type RunResponse struct {
	// Checksum is the SHA-256 of the final vertex and hyperedge value
	// arrays (little-endian float64 bits, vertices then hyperedges) — the
	// bit-identity witness for a response whether or not values are
	// included.
	Checksum string `json:"checksum"`
	// Cycles, Iterations, MemAccesses summarize the simulated execution.
	Cycles      uint64 `json:"cycles"`
	Iterations  int    `json:"iterations"`
	MemAccesses uint64 `json:"mem_accesses"`
	// Shards and ReplicationFactor echo the scale-out layout (sharded runs
	// only).
	Shards            int     `json:"shards,omitempty"`
	ReplicationFactor float64 `json:"replication_factor,omitempty"`
	// PrepCache reports whether the prepared artifacts came from the LRU
	// ("hit") or were built for this run ("miss").
	PrepCache string `json:"prep_cache"`
	// Generation is the prepared-artifact version the run executed on: 0
	// for a from-scratch build, +1 per /mutate batch applied to the spec.
	Generation uint64 `json:"generation"`
	// Coalesced reports that this request shared an execution another
	// in-flight request started.
	Coalesced bool `json:"coalesced"`
	// VertexValues / HyperedgeValues are present when requested.
	VertexValues    []float64 `json:"vertex_values,omitempty"`
	HyperedgeValues []float64 `json:"hyperedge_values,omitempty"`
}

// runOutcome is the shared result of one coalesced execution. Value arrays
// are always retained so any waiter may ask for them; per-caller response
// shaping happens at write time.
type runOutcome struct {
	resp    RunResponse
	vv, hv  []float64
	prepHit bool
}

// errBadSpec marks request errors (unknown names, mismatched parameters)
// that map to 400 rather than 500.
var errBadSpec = errors.New("bad request spec")

// Server is the serving layer. Construct with NewServer; it implements
// http.Handler.
type Server struct {
	opt      Options
	mux      *http.ServeMux
	cache    *prepCache
	runs     *flight.Group[*runOutcome]
	tenants  *tenants
	registry *registry

	queue   chan struct{} // admission tokens, capacity QueueDepth
	workers chan struct{} // execution slots, capacity Workers

	met metrics

	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	// mutateMu serializes /mutate batches so each derives its successor
	// from the version the previous one installed — concurrent batches
	// would both branch off one parent and silently drop one of the two.
	mutateMu sync.Mutex
}

// NewServer builds a Server.
func NewServer(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:      opt,
		mux:      http.NewServeMux(),
		runs:     flight.NewGroup[*runOutcome](),
		tenants:  newTenants(opt.Limits, opt.LimitOverrides),
		registry: newRegistry(),
		queue:    make(chan struct{}, opt.QueueDepth),
		workers:  make(chan struct{}, opt.Workers),
	}
	s.cache = newPrepCache(opt.CacheEntries, &s.met)
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/mutate", s.handleMutate)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("PUT /datasets/{tenant}/{name}", s.handleDatasetPut)
	s.mux.HandleFunc("GET /datasets/{tenant}/{name}", s.handleDatasetGet)
	s.mux.HandleFunc("DELETE /datasets/{tenant}/{name}", s.handleDatasetDelete)
	s.mux.HandleFunc("GET /datasets/{tenant}", s.handleDatasetList)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns the current counter snapshot (what /metrics serves).
func (s *Server) Metrics() Snapshot {
	snap := s.met.snapshot()
	snap.QueueDepth = len(s.queue)
	snap.QueueCapacity = cap(s.queue)
	snap.CacheEntries = s.cache.len()
	snap.CacheCapacity = s.opt.CacheEntries
	snap.RegistryDatasets, snap.RegistryBytes = s.registry.totals()
	snap.Tenants = s.snapshotTenants()
	s.drainMu.Lock()
	snap.Draining = s.draining
	s.drainMu.Unlock()
	if s.opt.Session != nil {
		sum := s.opt.Session.Summary()
		snap.Session = &sum
	}
	return snap
}

// Shutdown drains the server: new /run requests are refused with 503 while
// requests already admitted run to completion. It returns nil once the last
// in-flight request has finished, or the context/drain-timeout error if the
// deadline passes first (in-flight requests are not forcibly cancelled —
// the process owner decides what to do with a blown drain deadline).
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.DrainTimeout)
		defer cancel()
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// enter registers an in-flight request unless the server is draining.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.Lock()
	draining := s.draining
	s.drainMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsOpenMetrics(r) {
		w.Header().Set("Content-Type", openMetricsContentType)
		_ = writeOpenMetrics(w, s.Metrics())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Metrics())
}

// maxRunBody bounds a /run body; a RunRequest is a few hundred bytes.
const maxRunBody = 64 << 10

// decodeBody decodes r's JSON body into v, reading at most limit bytes. It
// answers 413 for a longer body and 400 for malformed JSON, and reports
// whether v holds the request.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooLong *http.MaxBytesError
	if errors.As(err, &tooLong) {
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req RunRequest
	if !decodeBody(w, r, maxRunBody, &req) {
		return
	}
	if err := validate(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tenantName, err := tenantFrom(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ref, err := s.resolveDataset(tenantName, req.Dataset)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.enter() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.inflight.Done()

	// Per-tenant fairness first: a tenant over its token-bucket rate or
	// in-flight cap is refused before it can contend for a shared queue
	// slot, so one tenant's burst cannot starve the pool.
	tn := s.tenants.get(tenantName)
	tn.requests.Add(1)
	if wait, ok := tn.admit(time.Now()); !ok {
		s.met.rateLimited.Add(1)
		retryAfter(w, wait)
		http.Error(w, "tenant over rate or in-flight limit", http.StatusTooManyRequests)
		return
	}
	defer tn.release()

	// Bounded admission: the token is held for the request's whole
	// lifetime (queued, waiting on a coalesced run, executing), so
	// QueueDepth bounds total concurrent admitted requests and overflow
	// backpressures immediately.
	select {
	case s.queue <- struct{}{}:
		defer func() { <-s.queue }()
	default:
		s.met.rejected.Add(1)
		tn.rejectedQueueFull.Add(1)
		retryAfter(w, s.queueBackoffHint(tn))
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return
	}

	s.met.requests.Add(1)
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	start := time.Now()

	// The coalescing key carries the spec's current artifact generation so a
	// request arriving after a mutation never piggybacks on a pre-mutation
	// run still in flight. A mutation landing between this peek and the
	// cache lookup inside execute only shifts which version the whole
	// coalesced group observes — every sharer still gets one consistent
	// artifact, and the response reports the generation actually run.
	flightKey := fmt.Sprintf("%s/g%d", req.runKeyFor(ref.key), s.cache.peekGen(req.prepKeyFor(ref.key)))
	out, err, shared := s.runs.Do(r.Context(), flightKey, func(ctx context.Context) (*runOutcome, error) {
		return s.execute(ctx, req, ref)
	})
	if shared {
		s.met.coalesced.Add(1)
		tn.coalesced.Add(1)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// The client is gone; the status code is for bookkeeping only.
			s.met.cancelled.Add(1)
			w.WriteHeader(statusClientClosedRequest)
		case errors.Is(err, errBadSpec):
			s.met.failed.Add(1)
			tn.failed.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			s.met.failed.Add(1)
			tn.failed.Add(1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}

	resp := out.resp
	resp.Coalesced = shared
	if req.IncludeValues {
		resp.VertexValues, resp.HyperedgeValues = out.vv, out.hv
	}
	s.met.completed.Add(1)
	tn.completed.Add(1)
	s.met.observeLatencyMS(float64(time.Since(start)) / float64(time.Millisecond))
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// statusClientClosedRequest is nginx's conventional code for a client that
// disconnected before the response; net/http never sends it anywhere.
const statusClientClosedRequest = 499

// maxBackoffHint caps queue-full Retry-After suggestions: past a minute the
// estimate says more about a stuck server than about when to retry.
const maxBackoffHint = time.Minute

// queueBackoffHint derives the Retry-After for a queue-full 429 from the
// observed service rate instead of a hardcoded second: the time to drain the
// current queue depth at the measured mean service time across the worker
// pool. When the tenant's own token bucket would make an earlier retry
// pointless, the bucket's wait wins. Before any request has completed (no
// observed rate yet) the old one-second default stands.
func (s *Server) queueBackoffHint(tn *tenant) time.Duration {
	hint := time.Second
	if done := s.met.completed.Load(); done > 0 {
		mean := time.Duration(s.met.latencySumMicros.Load()/done) * time.Microsecond
		workers := cap(s.workers)
		if workers < 1 {
			workers = 1
		}
		// Queued requests drain across the worker pool; round up so the
		// hint never undershoots the estimate.
		depth := time.Duration(len(s.queue))
		if est := (depth*mean + time.Duration(workers) - 1) / time.Duration(workers); est > hint {
			hint = est
		}
	}
	if tn != nil {
		if wait := tn.bucket.peek(time.Now()); wait > hint {
			hint = wait
		}
	}
	if hint > maxBackoffHint {
		hint = maxBackoffHint
	}
	return hint
}

// MutateRequest is the /mutate request body: the preparation spec selecting
// which cached artifact to mutate (the same fields that form a /run request's
// prep key) plus the hyperedge batch to apply.
type MutateRequest struct {
	Dataset     string  `json:"dataset"`
	Scale       float64 `json:"scale,omitempty"`
	Cores       int     `json:"cores,omitempty"`
	WMin        uint32  `json:"wmin,omitempty"`
	Shards      int     `json:"shards,omitempty"`
	ShardPolicy string  `json:"shard_policy,omitempty"`

	// Add lists pin lists of hyperedges to append; Remove lists hyperedge
	// ids (in the current version's id space) to delete.
	Add    [][]uint32 `json:"add,omitempty"`
	Remove []uint32   `json:"remove,omitempty"`
}

// asRun projects the mutation's spec fields onto a RunRequest so prep-key
// derivation and artifact building share one code path with /run.
func (m MutateRequest) asRun() RunRequest {
	return RunRequest{
		Dataset: m.Dataset, Scale: m.Scale, Cores: m.Cores, WMin: m.WMin,
		Shards: m.Shards, ShardPolicy: m.ShardPolicy,
	}
}

// MutateResponse is the /mutate response body.
type MutateResponse struct {
	// Generation is the new artifact version now canonical for the spec.
	Generation uint64 `json:"generation"`
	// NumVertices / NumHyperedges describe the mutated hypergraph.
	NumVertices   uint32 `json:"num_vertices"`
	NumHyperedges uint32 `json:"num_hyperedges"`
	// Added and Removed echo the batch sizes applied.
	Added   int `json:"added"`
	Removed int `json:"removed"`
}

// handleMutate applies one mutation batch: resolve the spec's current
// artifact (building generation 0 on first touch), derive its successor
// incrementally via Apply, and swap the new version into the cache.
// Copy-on-write does the concurrency work — in-flight runs keep the artifact
// pointer they already resolved and finish on it; only subsequent lookups see
// the new version.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req MutateRequest
	if !decodeBody(w, r, s.opt.MaxUploadBytes, &req) {
		return
	}
	spec := req.asRun()
	if req.Dataset == "" {
		s.met.mutationsFailed.Add(1)
		http.Error(w, "dataset is required", http.StatusBadRequest)
		return
	}
	tenantName, err := tenantFrom(r)
	if err != nil {
		s.met.mutationsFailed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ref, err := s.resolveDataset(tenantName, req.Dataset)
	if err != nil {
		s.met.mutationsFailed.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.enter() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	defer s.inflight.Done()

	// Mutations are attributed to their tenant and pass its limits: a batch
	// does real preprocessing work.
	tn := s.tenants.get(tenantName)
	tn.requests.Add(1)
	if wait, ok := tn.admit(time.Now()); !ok {
		s.met.rateLimited.Add(1)
		retryAfter(w, wait)
		http.Error(w, "tenant over rate or in-flight limit", http.StatusTooManyRequests)
		return
	}
	defer tn.release()

	// Mutations pass through the same bounded admission as runs.
	select {
	case s.queue <- struct{}{}:
		defer func() { <-s.queue }()
	default:
		s.met.rejected.Add(1)
		tn.rejectedQueueFull.Add(1)
		retryAfter(w, s.queueBackoffHint(tn))
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return
	}

	// Serialize batches so each one derives from the version the previous
	// one installed; /run traffic is never blocked by this lock — it reads
	// whichever artifact pointer is canonical at lookup time.
	s.mutateMu.Lock()
	defer s.mutateMu.Unlock()

	key := spec.prepKeyFor(ref.key)
	art, ok := s.cache.peek(key)
	if !ok {
		cfg, err := config(spec)
		if err != nil {
			s.met.mutationsFailed.Add(1)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if art, _, err = s.cache.get(r.Context(), key, func(bctx context.Context) (*artifact, error) {
			return buildArtifact(bctx, spec, ref, cfg)
		}); err != nil {
			s.met.mutationsFailed.Add(1)
			writeError(w, classify(err))
			return
		}
		// A /run build racing ours may own the canonical entry (add keeps
		// the first artifact); mutate from the canonical pointer.
		if canonical, ok := s.cache.peek(key); ok {
			art = canonical
		}
	}

	ng, npre, err := art.pre.Apply(r.Context(), chgraph.Batch{Add: req.Add, Remove: req.Remove})
	if err != nil {
		s.met.mutationsFailed.Add(1)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.met.cancelled.Add(1)
			w.WriteHeader(statusClientClosedRequest)
			return
		}
		// Apply errors describe the batch (nonexistent id, out-of-range
		// pin): the requester's fault.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.cache.swap(key, &artifact{g: ng, pre: npre, gen: npre.Generation()})
	s.met.mutations.Add(1)
	s.met.hyperedgesAdded.Add(uint64(len(req.Add)))
	s.met.hyperedgesRemoved.Add(uint64(len(req.Remove)))
	tn.completed.Add(1)

	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(MutateResponse{
		Generation:    npre.Generation(),
		NumVertices:   ng.NumVertices(),
		NumHyperedges: ng.NumHyperedges(),
		Added:         len(req.Add),
		Removed:       len(req.Remove),
	})
}

// writeError maps a classified error to its HTTP status.
func writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		w.WriteHeader(statusClientClosedRequest)
	case errors.Is(err, errBadSpec):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// validate pre-checks the parts of a spec that are cheap to check before
// admission; dataset existence is the tenant-aware resolveDataset's job,
// and everything else (algorithm names, shard bounds) surfaces from the
// run itself and is classified by execute.
func validate(req *RunRequest) error {
	if req.Dataset == "" {
		return errors.New("dataset is required")
	}
	if req.Algorithm == "" {
		return errors.New("algorithm is required")
	}
	if req.Engine != "" {
		if _, err := chgraph.ParseEngine(req.Engine); err != nil {
			return err
		}
	}
	return nil
}

// datasetSide resolves a dataset name to (canonical name, isGraph).
func datasetSide(name string) (string, bool, error) {
	for _, n := range chgraph.Datasets() {
		if strings.EqualFold(n, name) {
			return n, false, nil
		}
	}
	for _, n := range chgraph.GraphDatasets() {
		if strings.EqualFold(n, name) {
			return n, true, nil
		}
	}
	return "", false, fmt.Errorf("unknown dataset %q (have %v + %v)", name, chgraph.Datasets(), chgraph.GraphDatasets())
}

// config maps a request to the RunConfig its run executes under.
func config(req RunRequest) (chgraph.RunConfig, error) {
	cfg := chgraph.RunConfig{
		Cores: req.Cores, WMin: req.WMin, DMax: req.DMax,
		Iterations: req.Iterations, Source: req.Source, Workers: req.Workers,
		Shards: req.Shards, ShardPolicy: req.ShardPolicy,
	}
	if req.Engine != "" {
		kind, err := chgraph.ParseEngine(req.Engine)
		if err != nil {
			return cfg, err
		}
		cfg.Engine = kind
	}
	return cfg, nil
}

// execute is the leader path of one coalesced run: acquire a worker slot,
// resolve the prepared artifacts through the LRU, and execute under the
// shared call context (cancelled only when every interested client is
// gone).
func (s *Server) execute(ctx context.Context, req RunRequest, ref dsRef) (*runOutcome, error) {
	select {
	case s.workers <- struct{}{}:
		defer func() { <-s.workers }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	cfg, err := config(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadSpec, err)
	}
	art, hit, err := s.cache.get(ctx, req.prepKeyFor(ref.key), func(bctx context.Context) (*artifact, error) {
		return buildArtifact(bctx, req, ref, cfg)
	})
	if err != nil {
		return nil, classify(err)
	}

	runCfg := cfg
	runCfg.Prepared = art.pre
	if s.opt.Session != nil {
		runCfg.Observer = obs.TagGeneration(s.opt.Session.ObserveRollup(), art.gen)
	}
	res, err := chgraph.RunContext(ctx, art.g, req.Algorithm, runCfg)
	if err != nil {
		return nil, classify(err)
	}
	return &runOutcome{
		resp: RunResponse{
			Checksum:          checksum(res.VertexValues, res.HyperedgeValues),
			Cycles:            res.Cycles,
			Iterations:        res.Iterations,
			MemAccesses:       res.MemAccesses,
			Shards:            res.Shards,
			ReplicationFactor: res.ReplicationFactor,
			PrepCache:         map[bool]string{true: "hit", false: "miss"}[hit],
			Generation:        art.gen,
		},
		vv: res.VertexValues, hv: res.HyperedgeValues,
		prepHit: hit,
	}, nil
}

// buildArtifact loads (or takes, for registered datasets) the hypergraph
// and builds its prepared bundle — the cache-miss path. A registered
// dataset's contents are pinned at resolve time: if the upload is replaced
// or deleted mid-build, this build still completes against the contents the
// request resolved, under a key no future request will look up.
func buildArtifact(ctx context.Context, req RunRequest, ref dsRef, cfg chgraph.RunConfig) (*artifact, error) {
	g := ref.g
	if g == nil {
		var err error
		if ref.isGraph {
			g, err = chgraph.LoadGraphDataset(ref.name, req.Scale)
		} else {
			g, err = chgraph.LoadDataset(ref.name, req.Scale)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errBadSpec, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pre, err := chgraph.Prepare(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	return &artifact{g: g, pre: pre}, nil
}

// classify sorts run/build errors into client vs server classes: anything
// naming an unknown entity or invalid parameter is the requester's fault.
func classify(err error) error {
	if err == nil || errors.Is(err, errBadSpec) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	msg := err.Error()
	if strings.Contains(msg, "unknown") || strings.Contains(msg, "invalid") {
		return fmt.Errorf("%w: %v", errBadSpec, err)
	}
	return err
}

// checksum digests the final value arrays (little-endian float64 bits,
// vertices then hyperedges, each array preceded by its length so the
// boundary between the two is unambiguous).
func checksum(vv, hv []float64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(bits uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, vals := range [][]float64{vv, hv} {
		put(uint64(len(vals)))
		for _, v := range vals {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
