package dist

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"time"

	"chgraph/internal/algorithms"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/par"
	"chgraph/internal/shard"
)

// Default coordinator timing knobs; see Options.
const (
	DefaultStepTimeout   = 30 * time.Second
	DefaultRetryBase     = 50 * time.Millisecond
	DefaultRetryMax      = 2 * time.Second
	DefaultRejoinTimeout = 60 * time.Second
)

// Options configures a distributed run. The shard count K is the number of
// worker addresses: shard i runs on Workers[i].
type Options struct {
	// Workers are the worker base addresses ("host:port" or full
	// "http://host:port" URLs), one per shard.
	Workers []string
	// Policy selects the partitioner (default shard.PolicyRange).
	Policy shard.Policy
	// Engine configures each worker's engine. Observer and Prep are
	// host-side and stay local: the coordinator forwards per-phase snapshots
	// the workers capture, and each worker preps its own sub-hypergraph.
	Engine engine.Options
	// StepTimeout bounds each individual HTTP attempt (0 = DefaultStepTimeout).
	StepTimeout time.Duration
	// RetryBase/RetryMax shape the exponential backoff between attempts
	// against an unhealthy worker (0 = defaults).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RejoinTimeout bounds how long one operation keeps waiting for a
	// crashed worker to come back before the run fails (0 = default).
	RejoinTimeout time.Duration
	// Client overrides the HTTP client (nil = a dedicated default client).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.StepTimeout <= 0 {
		o.StepTimeout = DefaultStepTimeout
	}
	if o.RetryBase <= 0 {
		o.RetryBase = DefaultRetryBase
	}
	if o.RetryMax <= 0 {
		o.RetryMax = DefaultRetryMax
	}
	if o.RejoinTimeout <= 0 {
		o.RejoinTimeout = DefaultRejoinTimeout
	}
	return o
}

// Coordinator holds the per-run transport state shared by the remote
// backends.
type Coordinator struct {
	opt    Options
	client *http.Client
	runID  string
}

// baseURL normalizes a worker address into an http base URL.
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + addr
}

// newRunID returns a random hex run id seeding the per-worker session ids.
func newRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; sessions only need
		// uniqueness against a worker's previous life, so fall back to time.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Run executes alg on g split across len(opt.Workers) worker processes.
func Run(g *hypergraph.Bipartite, alg algorithms.Algorithm, opt Options) (*shard.Result, error) {
	return RunCtx(context.Background(), g, alg, opt)
}

// RunCtx partitions g one shard per worker, hands each worker its
// sub-hypergraph in a handshake, and drives the same bulk-synchronous
// frontier merge barrier as the in-process runtime (engine.Drive, through
// shard.Drive) over the HTTP transport. Crash-free runs produce Results
// bit-identical to shard.RunCtx at the same K and policy; a run that
// recovered worker crashes (Result.WorkerRestarts > 0) keeps exact
// algorithm state but its simulated cycle counters reflect the restarted
// workers' cache-cold simulators (DESIGN.md §16).
func RunCtx(ctx context.Context, g *hypergraph.Bipartite, alg algorithms.Algorithm, opt Options) (*shard.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	userObs := opt.Engine.Observer
	var hostStart time.Time
	if userObs != nil {
		hostStart = time.Now()
	}
	opt = opt.withDefaults()
	k := len(opt.Workers)
	if k == 0 {
		return nil, fmt.Errorf("dist: no worker addresses")
	}
	if opt.Engine.Prep != nil {
		return nil, fmt.Errorf("dist: Engine.Prep must be nil (each worker preps its own sub-hypergraph)")
	}
	pol := opt.Policy
	if pol == "" {
		pol = shard.PolicyRange
	}
	workers := opt.Engine.Workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	eo := opt.Engine.WithDefaults()

	a, err := shard.Partition(g, k, pol, 0)
	if err != nil {
		return nil, err
	}
	p, err := shard.Materialize(g, a, workers)
	if err != nil {
		return nil, err
	}

	co := &Coordinator{opt: opt, client: opt.Client, runID: newRunID()}
	if co.client == nil {
		co.client = &http.Client{}
	}

	// One remote backend per shard; the initial handshake ships the
	// sub-hypergraph and opens the worker's engine. Handshakes fan out
	// concurrently (workers prep independently) but each already goes
	// through the retry loop, so a worker that is still starting up or
	// crashes during prep is waited for like any mid-run failure.
	rbs := make([]*remoteBackend, k)
	errs := make([]error, k)
	par.For(workers, k, func(i int) {
		b := &remoteBackend{
			co:        co,
			sh:        p.Shards[i],
			shardID:   i,
			base:      baseURL(opt.Workers[i]),
			wopts:     toWireOptions(eo),
			chargePre: opt.Engine.ChargePreprocess,
			observe:   userObs != nil,
			tap:       userObs,
		}
		b.graphBlob = hypergraph.AppendCompressed(nil, b.sh.G)
		errs[i] = b.retry(ctx, "prepare", b.handshake)
		rbs[i] = b
	})
	var ferr error
	for _, e := range errs {
		if e != nil {
			ferr = e
			break
		}
	}
	if ferr != nil {
		for _, rb := range rbs {
			if rb != nil {
				rb.Close()
			}
		}
		return nil, ferr
	}
	// The initial handshake is a join, not a recovery.
	bks := make([]engine.Backend, k)
	for i, rb := range rbs {
		rb.restarts = 0
		bks[i] = rb
	}
	return shard.Drive(ctx, g, a, alg, bks, opt.Engine, hostStart)
}
