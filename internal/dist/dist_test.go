package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chgraph/internal/algorithms"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/shard"
	"chgraph/internal/sim/system"
)

func testSys() system.Config {
	c := system.ScaledConfig()
	c.Cores = 4
	return c
}

// smallHG mirrors the shard/engine test generator (same seed → same
// hypergraph), so distributed results are comparable to those suites' pins.
func smallHG(seed int64) *hypergraph.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	numV := uint32(rng.Intn(80) + 8)
	hs := make([][]uint32, rng.Intn(100)+4)
	for i := range hs {
		sz := rng.Intn(7)
		for k := 0; k < sz; k++ {
			hs[i] = append(hs[i], uint32(rng.Intn(int(numV))))
		}
	}
	return hypergraph.MustBuild(numV, hs)
}

// stateChecksum digests the final algorithm state bit-exactly (same digest
// as the engine and shard golden tests).
func stateChecksum(st *algorithms.State) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, v := range st.VertexVal {
		put(v)
	}
	for _, v := range st.HyperedgeVal {
		put(v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// startHTTPWorkers runs k in-process workers behind httptest servers —
// transport-real (full HTTP round trips, real serialization), process-local.
func startHTTPWorkers(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		srv := httptest.NewServer(NewWorker())
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// fastOpts returns coordinator options with test-friendly timeouts.
func fastOpts(addrs []string, pol shard.Policy, eo engine.Options) Options {
	return Options{
		Workers: addrs, Policy: pol, Engine: eo,
		StepTimeout: 10 * time.Second, RetryBase: 2 * time.Millisecond,
		RetryMax: 100 * time.Millisecond, RejoinTimeout: 30 * time.Second,
	}
}

// assertResultsEqual asserts the distributed result matches the in-process
// one in ALL fields: state checksum, merged measurement counters, and every
// per-shard engine result (crash-free distributed runs are bit-identical).
func assertResultsEqual(t *testing.T, got, want *shard.Result) {
	t.Helper()
	if g, w := stateChecksum(got.State), stateChecksum(want.State); g != w {
		t.Fatalf("state checksum %s, want %s", g, w)
	}
	strip := func(r *shard.Result) ([]byte, error) {
		c := *r.Result
		c.State = nil // compared via checksum; State holds the graph pointer
		top := *r
		top.Result = &c
		return json.Marshal(top)
	}
	g, err := strip(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := strip(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(g) != string(w) {
		t.Fatalf("merged results differ:\n got: %s\nwant: %s", g, w)
	}
}

func TestDistMatchesInProcess(t *testing.T) {
	algos := []struct {
		name string
		mk   func() algorithms.Algorithm
	}{
		{"BFS", func() algorithms.Algorithm { return algorithms.NewBFS(0) }},
		{"CC", func() algorithms.Algorithm { return algorithms.NewCC() }},
		{"PR", func() algorithms.Algorithm { return algorithms.NewPageRank(5) }},
	}
	addrs := startHTTPWorkers(t, 4)
	g := smallHG(7)
	for _, kind := range []engine.Kind{engine.ChGraph, engine.Hygra} {
		for _, pol := range []shard.Policy{shard.PolicyRange, shard.PolicyGreedy} {
			for _, k := range []int{1, 2, 4} {
				for _, a := range algos {
					t.Run(fmt.Sprintf("%v/%s/K%d/%s", kind, pol, k, a.name), func(t *testing.T) {
						eo := engine.Options{Kind: kind, Sys: testSys()}
						want, err := shard.RunCtx(context.Background(), g, a.mk(), shard.Options{
							Shards: k, Policy: pol, Engine: eo,
						})
						if err != nil {
							t.Fatal(err)
						}
						got, err := RunCtx(context.Background(), g, a.mk(), fastOpts(addrs[:k], pol, eo))
						if err != nil {
							t.Fatal(err)
						}
						if got.WorkerRestarts != 0 {
							t.Fatalf("crash-free run recovered %d restarts", got.WorkerRestarts)
						}
						assertResultsEqual(t, got, want)
					})
				}
			}
		}
	}
}

func TestDistChargePreprocess(t *testing.T) {
	addrs := startHTTPWorkers(t, 2)
	g := smallHG(11)
	eo := engine.Options{Kind: engine.ChGraph, Sys: testSys(), ChargePreprocess: true}
	want, err := shard.RunCtx(context.Background(), g, algorithms.NewPageRank(3), shard.Options{
		Shards: 2, Engine: eo,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCtx(context.Background(), g, algorithms.NewPageRank(3), fastOpts(addrs, "", eo))
	if err != nil {
		t.Fatal(err)
	}
	if got.PreprocessCycles == 0 {
		t.Fatal("preprocessing not charged over the wire")
	}
	assertResultsEqual(t, got, want)
}

// lossyRT drops the first /step and the first /commit reply per worker after
// the worker has processed the request — the coordinator must recover via
// the duplicate-step and memoized-commit idempotency paths, without a rejoin.
type lossyRT struct {
	base    http.RoundTripper
	mu      sync.Mutex
	dropped map[string]bool
}

func (f *lossyRT) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if req.URL.Path == "/step" || req.URL.Path == "/commit" {
		key := req.URL.Host + req.URL.Path
		f.mu.Lock()
		drop := !f.dropped[key]
		if drop {
			f.dropped[key] = true
		}
		f.mu.Unlock()
		if drop {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil, fmt.Errorf("injected: reply lost for %s", req.URL.Path)
		}
	}
	return resp, nil
}

func TestDistLostReplyIdempotency(t *testing.T) {
	addrs := startHTTPWorkers(t, 2)
	g := smallHG(7)
	eo := engine.Options{Kind: engine.ChGraph, Sys: testSys()}
	want, err := shard.RunCtx(context.Background(), g, algorithms.NewPageRank(4), shard.Options{
		Shards: 2, Engine: eo,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpts(addrs, "", eo)
	opt.Client = &http.Client{Transport: &lossyRT{base: http.DefaultTransport, dropped: map[string]bool{}}}
	got, err := RunCtx(context.Background(), g, algorithms.NewPageRank(4), opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.WorkerRestarts != 0 {
		t.Fatalf("lost replies should be recovered without rejoin, got %d restarts", got.WorkerRestarts)
	}
	assertResultsEqual(t, got, want)
}

func TestDistRejectsBadConfig(t *testing.T) {
	g := smallHG(3)
	if _, err := RunCtx(context.Background(), g, algorithms.NewCC(), Options{}); err == nil {
		t.Fatal("no workers: want error")
	}
	o := fastOpts([]string{"127.0.0.1:1"}, "", engine.Options{Kind: engine.ChGraph, Sys: testSys()})
	o.Engine.Prep = &engine.Prep{}
	if _, err := RunCtx(context.Background(), g, algorithms.NewCC(), o); err == nil {
		t.Fatal("host-side Prep: want error")
	}
}

// TestDistUnreachableWorkerFailsCleanly pins the failure path: a worker that
// never comes up exhausts the rejoin deadline and the run errors out instead
// of hanging.
func TestDistUnreachableWorkerFailsCleanly(t *testing.T) {
	g := smallHG(5)
	o := fastOpts([]string{"127.0.0.1:1"}, "", engine.Options{Kind: engine.ChGraph, Sys: testSys()})
	o.StepTimeout = 100 * time.Millisecond
	o.RejoinTimeout = 300 * time.Millisecond
	if _, err := RunCtx(context.Background(), g, algorithms.NewCC(), o); err == nil {
		t.Fatal("unreachable worker: want error")
	}
}

// markTamperer is a fake worker: a real Worker behind a handler that, on the
// first /step of the given phase, appends one extra mark to the worker's
// reply, built by bad from the shard's vertex and hyperedge counts.
type markTamperer struct {
	w        *Worker
	phase    int
	bad      func(numV, numE uint32) (uint32, uint32)
	mu       sync.Mutex
	numV     uint32
	numE     uint32
	tampered int
}

func (f *markTamperer) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	f.mu.Lock()
	defer f.mu.Unlock()
	var step stepRequest
	switch r.URL.Path {
	case "/prepare":
		if _, g, err := decodePrepare(body); err == nil {
			f.numV, f.numE = g.NumVertices(), g.NumHyperedges()
		}
	case "/step":
		hdr, _, err := splitHeader(body)
		if err != nil || json.Unmarshal(hdr, &step) != nil || step.Phase != f.phase || f.tampered > 0 {
			break
		}
		rec := httptest.NewRecorder()
		f.w.ServeHTTP(rec, r)
		marks, err := decodeMarks(rec.Body.Bytes(), nil, f.numV+f.numE, f.numV+f.numE)
		if rec.Code != http.StatusOK || err != nil {
			http.Error(rw, fmt.Sprintf("fake worker: real step failed: %d %v", rec.Code, err), http.StatusInternalServerError)
			return
		}
		src, dst := f.bad(f.numV, f.numE)
		marks = append(marks, src, dst)
		f.tampered++
		rw.Write(appendMarks(nil, len(marks)/2, func(i int) (uint32, uint32) { return marks[2*i], marks[2*i+1] }))
		return
	}
	f.w.ServeHTTP(rw, r)
}

// TestDistRejectsOutOfRangeMarks pins the coordinator's trust boundary on
// /step replies: a mark naming a vertex or hyperedge the shard does not
// have, on either side of either phase, fails the run with a clean error on
// the first reply instead of indexing the shard's id maps out of range, and
// is not retried.
func TestDistRejectsOutOfRangeMarks(t *testing.T) {
	cases := []struct {
		name  string
		phase int
		bad   func(numV, numE uint32) (uint32, uint32)
	}{
		{"hyperedge phase, vertex src", 0, func(v, e uint32) (uint32, uint32) { return v, 0 }},
		{"hyperedge phase, hyperedge dst", 0, func(v, e uint32) (uint32, uint32) { return 0, e }},
		{"vertex phase, hyperedge src", 1, func(v, e uint32) (uint32, uint32) { return e, 0 }},
		{"vertex phase, vertex dst", 1, func(v, e uint32) (uint32, uint32) { return 0, v }},
		{"vertex phase, far out", 1, func(v, e uint32) (uint32, uint32) { return math.MaxUint32, math.MaxUint32 }},
	}
	g := smallHG(7)
	eo := engine.Options{Kind: engine.ChGraph, Sys: testSys()}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fake := &markTamperer{w: NewWorker(), phase: tc.phase, bad: tc.bad}
			srv := httptest.NewServer(fake)
			t.Cleanup(srv.Close)
			addrs := append(startHTTPWorkers(t, 1), srv.URL)
			_, err := RunCtx(context.Background(), g, algorithms.NewPageRank(4), fastOpts(addrs, "", eo))
			if err == nil || !strings.Contains(err.Error(), "outside the shard") {
				t.Fatalf("run with an out-of-range mark: err = %v, want a mark range error", err)
			}
			fake.mu.Lock()
			defer fake.mu.Unlock()
			if fake.tampered != 1 {
				t.Fatalf("tampered step replies = %d, want 1 (the error must not be retried)", fake.tampered)
			}
		})
	}
}
