package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chgraph"
	"chgraph/internal/dist"
	"chgraph/internal/shard"
)

// dist-shards graphs: mid-size WEBs whose per-op RPC, partition and barrier
// work is a visible share of the run. Ops cycle over several independently
// seeded instances: how many iterations CC needs varies from graph to graph,
// and averaging instances keeps the per-op means steady across seeds.
const (
	distRecipe    = "WEB"
	distScale     = 0.05
	distInstances = 3
	distWorkers   = 2
)

var distAlgos = []string{"BFS", "CC", "PR"}

// distPRIters makes PageRank the slowest op class. Its cost hardly varies
// between graph instances, while CC's iteration count does, so the 95th
// percentile, which lands in the slowest class, stays steady across seeds.
const distPRIters = 4

// loopbackServer is one in-process HTTP server on a loopback port.
type loopbackServer struct {
	addr string
	srv  *http.Server
	done chan struct{}
}

func startLoopback(h http.Handler) (*loopbackServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &loopbackServer{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		_ = ls.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return ls, nil
}

// close stops the server and waits for its serve loop to return.
func (ls *loopbackServer) close() {
	_ = ls.srv.Close()
	<-ls.done
}

// distShards is the closed loop with one caller running chgraph.RunContext
// with DistWorkers on K in-process workers behind loopback servers.
type distShards struct {
	seed    int64
	refs    *refs
	rng     *rand.Rand
	ins     []*input
	srcs    []uint32
	cells   []distCell
	servers []*loopbackServer
	addrs   []string
	warm    []*chgraph.Result

	// Traced mode: the traced op the workers are serving (0 while none is)
	// and the counters the traced ops accumulate.
	tr    *tracer
	curOp atomic.Int64
	rpc   rpcStats
	parts []float64 // shard.Partition ms
	mats  []float64 // shard.Materialize ms
	repl  float64
	tOps  int
}

func newDistShards(seed int64, rf *refs) workload {
	return &distShards{seed: seed, refs: rf, rng: rand.New(rand.NewSource(subSeed(seed, "dist-shards")))}
}

// distCell is one op shape: a graph instance and an algorithm.
type distCell struct {
	inst int
	algo string
}

func (s *distShards) config(c distCell) chgraph.RunConfig {
	return chgraph.RunConfig{DistWorkers: s.addrs, Source: s.srcs[c.inst], Iterations: distPRIters}
}

func (s *distShards) setup(ctx context.Context, tr *tracer) error {
	s.tr = tr
	for i := 0; i < distInstances; i++ {
		in, err := makeInput(tr, 0, distRecipe, distScale, subSeed(s.seed, "dist", i))
		if err != nil {
			return err
		}
		s.ins = append(s.ins, in)
		s.srcs = append(s.srcs, largestComponentSource(in.b, s.rng))
		for _, a := range distAlgos {
			s.cells = append(s.cells, distCell{i, a})
		}
	}
	for i := 0; i < distWorkers; i++ {
		var h http.Handler = dist.NewWorker()
		if tr != nil {
			h = s.workerSpans(h)
		}
		ls, err := startLoopback(h)
		if err != nil {
			return err
		}
		s.servers = append(s.servers, ls)
		s.addrs = append(s.addrs, ls.addr)
	}
	for _, c := range s.cells {
		res, err := chgraph.RunContext(ctx, s.ins[c.inst].g, c.algo, s.config(c))
		if err != nil {
			return fmt.Errorf("%s: %w", s.key(c), err)
		}
		s.warm = append(s.warm, res)
	}
	if tr != nil {
		// The partitioner runs inside every distributed op, out of the
		// benchmark's sight; time the same calls on the same graph.
		b := s.ins[0].b
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			a, err := shard.Partition(b, distWorkers, shard.PolicyRange, 0)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := shard.Materialize(b, a, 0); err != nil {
				return err
			}
			s.parts = append(s.parts, ms(t1.Sub(t0)))
			s.mats = append(s.mats, ms(time.Since(t1)))
			s.repl = a.ReplicationFactor()
		}
	}
	return nil
}

func (s *distShards) key(c distCell) string {
	return fmt.Sprintf("dist/%s#%d/%s", s.ins[c.inst].name, c.inst, c.algo)
}

// check verifies the warm-up against an in-process sharded run with the same
// shard count (first set-up) or against the first set-up (later ones).
func (s *distShards) check() error {
	for i, c := range s.cells {
		key, got := s.key(c), resultOutcome(s.warm[i])
		if _, ok := s.refs.m[key]; !ok {
			cfg := s.config(c)
			cfg.DistWorkers, cfg.Shards = nil, distWorkers
			ref, err := chgraph.Run(s.ins[c.inst].g, c.algo, cfg)
			if err != nil {
				return fmt.Errorf("%s reference: %w", key, err)
			}
			s.refs.m[key] = resultOutcome(ref)
		}
		if err := s.refs.match(key, got); err != nil {
			return err
		}
	}
	s.warm = nil
	return nil
}

func (s *distShards) window(ctx context.Context, tr *tracer, d time.Duration, minOps int) []opRecord {
	var ops []opRecord
	start := time.Now()
	opID := int64(1)
	// Whole rounds only, as in sim-batch: with nine cells a round is
	// odd-sized and the 50th-percentile rank falls inside one cell.
	for time.Since(start) < d || len(ops) < minOps {
		for _, ci := range s.rng.Perm(len(s.cells)) {
			c := s.cells[ci]
			var got outcome
			var err error
			t0 := time.Now()
			if tr == nil {
				var res *chgraph.Result
				if res, err = chgraph.RunContext(ctx, s.ins[c.inst].g, c.algo, s.config(c)); err == nil {
					got = resultOutcome(res)
				}
			} else {
				got, err = s.tracedRun(ctx, tr, opID, c)
			}
			lat := time.Since(t0)
			if err == nil {
				err = s.refs.match(s.key(c), got)
			}
			ops = append(ops, opRecord{class: s.key(c), lat: lat, svc: lat, err: err})
			opID++
		}
	}
	return ops
}

// tracedRun is one distributed run through dist.RunCtx with the same
// options chgraph.RunContext passes, plus an HTTP client that times and
// sizes every RPC.
func (s *distShards) tracedRun(ctx context.Context, tr *tracer, op int64, c distCell) (outcome, error) {
	root := tr.begin("dist-shards.op", noSpan, op)
	defer tr.end(root)
	s.curOp.Store(op)
	defer s.curOp.Store(0)
	alg, err := newAlgorithm(c.algo, s.srcs[c.inst], distPRIters)
	if err != nil {
		return outcome{}, err
	}
	client := &http.Client{Transport: &rpcTransport{tr: tr, parent: root, op: op, st: &s.rpc}}
	defer client.CloseIdleConnections()
	res, err := dist.RunCtx(ctx, s.ins[c.inst].b, alg, dist.Options{
		Workers: s.addrs, Engine: engineOptions(chgraph.Hygra), Client: client,
	})
	if err != nil {
		return outcome{}, err
	}
	s.tOps++
	r := res.Result
	return outcome{sum: valuesChecksum(r.State.VertexVal, r.State.HyperedgeVal), cycles: r.Cycles, mem: r.MemTotal()}, nil
}

// rpcStats accumulates the coordinator's view of the wire.
type rpcStats struct {
	mu      sync.Mutex
	calls   int
	bytes   int64
	retries int
}

// rpcTransport records a span per worker RPC, named by the RPC path, and
// counts bytes both ways and failed attempts (each one is retried).
type rpcTransport struct {
	tr     *tracer
	parent int32
	op     int64
	st     *rpcStats
}

func (t *rpcTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	var n int64
	if err == nil {
		// Read the whole reply inside the span so it covers the transfer.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			resp, err = nil, rerr
		} else {
			resp.Body = io.NopCloser(bytes.NewReader(body))
			n = int64(len(body))
		}
	}
	t.tr.record("dist.rpc."+strings.TrimPrefix(req.URL.Path, "/"), t.parent, t.op, t0, time.Now())
	t.st.mu.Lock()
	t.st.calls++
	t.st.bytes += max(req.ContentLength, 0) + n
	if err != nil || resp.StatusCode >= 300 {
		t.st.retries++
	}
	t.st.mu.Unlock()
	return resp, err
}

// workerSpans wraps a worker so each request it serves is recorded as a
// worker-side span of the op the coordinator is running.
func (s *distShards) workerSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if op := s.curOp.Load(); op != 0 { // untraced ops leave it 0
			s.tr.record("dist.worker."+strings.TrimPrefix(r.URL.Path, "/"), noSpan, op, t0, time.Now())
		}
	})
}

func (s *distShards) verify(context.Context) error { return nil }

func (s *distShards) sim() (cycles, dram float64) {
	for _, c := range s.cells {
		o := s.refs.m[s.key(c)]
		cycles += float64(o.cycles)
		dram += float64(o.mem)
	}
	n := float64(len(s.cells))
	return cycles / n, dram / n
}

func (s *distShards) layerMetrics(m metricSet, layers map[string]layerTime) error {
	if s.tOps == 0 {
		return errors.New("dist-shards: no traced ops")
	}
	n := float64(s.tOps)
	m.set("shard.partition_ms", median(s.parts), "ms")
	m.set("shard.materialize_ms", median(s.mats), "ms")
	m.set("shard.replication_factor", s.repl, "ratio")
	for _, p := range []string{"prepare", "step", "commit", "finish"} {
		m.set("dist.rpc_ms."+p, ms(layers["dist.rpc."+p].total)/n, "ms")
	}
	for _, p := range []string{"prepare", "step", "commit"} {
		m.set("dist.worker_ms."+p, ms(layers["dist.worker."+p].total)/n, "ms")
	}
	s.rpc.mu.Lock()
	defer s.rpc.mu.Unlock()
	m.set("dist.wire_kb_per_op", float64(s.rpc.bytes)/1024/n, "KB")
	m.set("dist.rpcs_per_op", float64(s.rpc.calls)/n, "count")
	m.set("dist.retries", float64(s.rpc.retries), "count")
	return nil
}

func (s *distShards) close() {
	for _, ls := range s.servers {
		ls.close()
	}
	s.servers = nil
}
