package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"chgraph"
	"chgraph/internal/obs"
)

func postRun(t *testing.T, url string, req RunRequest) (int, RunResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer resp.Body.Close()
	var rr RunResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, rr
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestServeCoalescesAndMatchesDirect is the tentpole e2e: a burst of
// concurrent identical requests triggers exactly one artifact build, every
// response is identical, and the served result is bit-identical to a direct
// library run of the same spec.
func TestServeCoalescesAndMatchesDirect(t *testing.T) {
	session := obs.NewSessionMetrics()
	srv := NewServer(Options{QueueDepth: 64, Workers: 2, Session: session})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := RunRequest{
		Dataset: "OK", Scale: 0.02, Algorithm: "PR", Engine: "chgraph",
		Cores: 4, Iterations: 3, IncludeValues: true,
	}

	const callers = 32
	var wg sync.WaitGroup
	codes := make([]int, callers)
	resps := make([]RunResponse, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := req
			r.Workers = 1 + i%3 // host knob: must not split the coalesced run
			r.IncludeValues = i == 0
			codes[i], resps[i] = postRun(t, ts.URL, r)
		}(i)
	}
	wg.Wait()

	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("caller %d: status %d", i, c)
		}
		if resps[i].Checksum != resps[0].Checksum {
			t.Fatalf("caller %d checksum %s != %s", i, resps[i].Checksum, resps[0].Checksum)
		}
	}

	snap := srv.Metrics()
	if snap.CacheBuilds != 1 {
		t.Fatalf("%d artifact builds for %d identical requests, want exactly 1", snap.CacheBuilds, callers)
	}
	if snap.Completed != callers {
		t.Fatalf("completed = %d, want %d", snap.Completed, callers)
	}
	if snap.Session == nil || snap.Session.Runs < 1 || snap.Session.Runs > callers {
		t.Fatalf("session runs = %+v, want within [1, %d]", snap.Session, callers)
	}

	// Bit-identity against the library path, values and checksum both.
	g, err := chgraph.LoadDataset("OK", 0.02)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	direct, err := chgraph.Run(g, "PR", chgraph.RunConfig{Engine: chgraph.ChGraph, Cores: 4, Iterations: 3})
	if err != nil {
		t.Fatalf("direct Run: %v", err)
	}
	if want := checksum(direct.VertexValues, direct.HyperedgeValues); resps[0].Checksum != want {
		t.Fatalf("served checksum %s, direct run %s", resps[0].Checksum, want)
	}
	if resps[0].Cycles != direct.Cycles || resps[0].Iterations != direct.Iterations {
		t.Fatalf("served cycles/iters %d/%d, direct %d/%d", resps[0].Cycles, resps[0].Iterations, direct.Cycles, direct.Iterations)
	}
	if len(resps[0].VertexValues) != len(direct.VertexValues) {
		t.Fatalf("IncludeValues response has %d vertex values, direct %d", len(resps[0].VertexValues), len(direct.VertexValues))
	}
	for i := range direct.VertexValues {
		if resps[0].VertexValues[i] != direct.VertexValues[i] {
			t.Fatalf("vertex %d: served %v, direct %v", i, resps[0].VertexValues[i], direct.VertexValues[i])
		}
	}
}

// TestServeSessionKeepsOnlyRollup: every executed run lands in the session
// rollup /metrics reports, and the session keeps no per-run timeline.
func TestServeSessionKeepsOnlyRollup(t *testing.T) {
	session := obs.NewSessionMetrics()
	ts := httptest.NewServer(NewServer(Options{Workers: 1, Session: session}))
	defer ts.Close()
	const runs = 3
	for i := 1; i <= runs; i++ {
		req := RunRequest{Dataset: "OK", Scale: 0.02, Algorithm: "PR", Engine: "hygra", Cores: 4, Iterations: i}
		if code, _ := postRun(t, ts.URL, req); code != http.StatusOK {
			t.Fatalf("run %d: status %d", i, code)
		}
	}
	var snap Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if snap.Session == nil || snap.Session.Runs != runs || snap.Session.Phases == 0 || snap.Session.SimulatedCycles == 0 {
		t.Fatalf("session rollup %+v, want %d runs", snap.Session, runs)
	}
	if keys := session.Keys(); len(keys) != 0 {
		t.Fatalf("session keeps per-run timelines under %v", keys)
	}
}

// TestServeCacheSteadyState: the second request of a spec is served from the
// artifact LRU; a distinct spec with capacity 1 evicts it.
func TestServeCacheSteadyState(t *testing.T) {
	srv := NewServer(Options{CacheEntries: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := RunRequest{Dataset: "OK", Scale: 0.02, Algorithm: "BFS", Engine: "gla", Cores: 4}
	if code, rr := postRun(t, ts.URL, req); code != http.StatusOK || rr.PrepCache != "miss" {
		t.Fatalf("first request: code %d, prep_cache %q (want 200/miss)", code, rr.PrepCache)
	}
	// Same prep spec, different algorithm and engine: still a cache hit.
	req2 := req
	req2.Algorithm, req2.Engine = "CC", "hygra"
	if code, rr := postRun(t, ts.URL, req2); code != http.StatusOK || rr.PrepCache != "hit" {
		t.Fatalf("second request: code %d, prep_cache %q (want 200/hit)", code, rr.PrepCache)
	}
	// Different dataset evicts (capacity 1).
	req3 := req
	req3.Dataset = "WEB"
	if code, _ := postRun(t, ts.URL, req3); code != http.StatusOK {
		t.Fatalf("third request: code %d", code)
	}
	snap := srv.Metrics()
	if snap.CacheEvictions != 1 || snap.CacheEntries != 1 {
		t.Fatalf("evictions %d entries %d, want 1/1", snap.CacheEvictions, snap.CacheEntries)
	}
	if snap.CacheHits != 1 || snap.CacheMisses != 2 {
		t.Fatalf("hits %d misses %d, want 1/2", snap.CacheHits, snap.CacheMisses)
	}
}

func TestServeShardedRun(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, rr := postRun(t, ts.URL, RunRequest{
		Dataset: "OK", Scale: 0.02, Algorithm: "PR", Engine: "chgraph",
		Cores: 4, Iterations: 3, Shards: 2, ShardPolicy: "greedy",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if rr.Shards != 2 || rr.ReplicationFactor < 1 {
		t.Fatalf("shards %d replication %v, want 2 and >= 1", rr.Shards, rr.ReplicationFactor)
	}

	g, err := chgraph.LoadDataset("OK", 0.02)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	direct, err := chgraph.Run(g, "PR", chgraph.RunConfig{
		Engine: chgraph.ChGraph, Cores: 4, Iterations: 3, Shards: 2, ShardPolicy: "greedy",
	})
	if err != nil {
		t.Fatalf("direct Run: %v", err)
	}
	if want := checksum(direct.VertexValues, direct.HyperedgeValues); rr.Checksum != want {
		t.Fatalf("served checksum %s, direct %s", rr.Checksum, want)
	}
}

// TestServeBackpressure: with one admission slot held by a slow run, the
// next request is refused with 429 immediately.
func TestServeBackpressure(t *testing.T) {
	srv := NewServer(Options{QueueDepth: 1, Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The slow occupant: a heavy spec under a context we cancel at the end.
	slowCtx, cancelSlow := context.WithCancel(context.Background())
	defer cancelSlow()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		body, _ := json.Marshal(RunRequest{
			Dataset: "WEB", Scale: 0.5, Algorithm: "PR", Engine: "hygra", Iterations: 50,
		})
		hr, _ := http.NewRequestWithContext(slowCtx, http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
		hr.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	// Wait until the occupant holds the admission token.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if snap := srv.Metrics(); snap.QueueDepth == 1 && snap.Completed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow request never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, _ := postRun(t, ts.URL, RunRequest{Dataset: "OK", Scale: 0.02, Algorithm: "BFS"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d with a full queue, want 429", code)
	}
	if snap := srv.Metrics(); snap.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", snap.Rejected)
	}

	cancelSlow()
	<-slowDone
}

// TestServeCancellationAndDrain: a cancelled client detaches promptly, a
// drained server refuses new work, and after drain no goroutines are
// leaked.
func TestServeCancellationAndDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	srv := NewServer(Options{QueueDepth: 8, Workers: 2, DrainTimeout: 60 * time.Second})
	ts := httptest.NewServer(srv)

	// A cancelled client must return well before its heavy run would have
	// finished.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	body, _ := json.Marshal(RunRequest{
		Dataset: "WEB", Scale: 0.5, Algorithm: "PR", Engine: "hygra", Iterations: 50,
	})
	hr, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
	hr.Header.Set("Content-Type", "application/json")
	start := time.Now()
	if resp, err := http.DefaultClient.Do(hr); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancelled client took %v to return", d)
	}

	// A quick request still completes, then drain.
	if code, _ := postRun(t, ts.URL, RunRequest{Dataset: "OK", Scale: 0.02, Algorithm: "BFS"}); code != http.StatusOK {
		t.Fatalf("post-cancel request: status %d", code)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Draining: /run and /healthz both refuse.
	if code, _ := postRun(t, ts.URL, RunRequest{Dataset: "OK", Scale: 0.02, Algorithm: "BFS"}); code != http.StatusServiceUnavailable {
		t.Fatalf("drained /run: status %d, want 503", code)
	}
	var health struct {
		Status string `json:"status"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("drained /healthz: %d %q", resp.StatusCode, health.Status)
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	// The abandoned heavy run stops at its next phase boundary; all request
	// and flight goroutines must unwind.
	deadline := time.Now().Add(60 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after drain\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestServeValidationAndMetrics(t *testing.T) {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"missing dataset", `{"algorithm":"PR"}`, http.StatusBadRequest},
		{"unknown dataset", `{"dataset":"nope","algorithm":"PR"}`, http.StatusBadRequest},
		{"missing algorithm", `{"dataset":"OK"}`, http.StatusBadRequest},
		{"unknown engine", `{"dataset":"OK","algorithm":"PR","engine":"warp"}`, http.StatusBadRequest},
		{"unknown algorithm", `{"dataset":"OK","scale":0.02,"algorithm":"Dijkstra"}`, http.StatusBadRequest},
		{"bad shard policy", `{"dataset":"OK","scale":0.02,"algorithm":"PR","shards":2,"shard_policy":"hashish"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := post(tc.body); got != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatalf("GET /run: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run: status %d, want 405", resp.StatusCode)
	}

	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("/healthz: %d %q", code, health.Status)
	}

	if code, _ := postRun(t, ts.URL, RunRequest{Dataset: "ok", Scale: 0.02, Algorithm: "BFS"}); code != http.StatusOK {
		t.Fatalf("case-insensitive dataset: status %d", code)
	}

	var snap Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if snap.Completed != 1 || snap.QueueCapacity == 0 || len(snap.Latency) != numLatencyBuckets {
		t.Fatalf("metrics snapshot off: %+v", snap)
	}
	var total uint64
	for _, b := range snap.Latency {
		total += b.Count
	}
	if total != snap.Completed {
		t.Fatalf("latency histogram holds %d observations, completed %d", total, snap.Completed)
	}
}

// TestServeBoundsRequestBodies: /run reads at most maxRunBody bytes and
// /mutate at most MaxUploadBytes, so one request cannot make the server
// buffer a JSON string of any size; a longer body answers 413.
func TestServeBoundsRequestBodies(t *testing.T) {
	const upload = 4 << 10
	ts := httptest.NewServer(NewServer(Options{Workers: 1, MaxUploadBytes: upload}))
	defer ts.Close()
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	long := func(n int) string { return `{"dataset":"` + strings.Repeat("a", n) + `"}` }
	for _, tc := range []struct {
		path string
		body string
		want int
	}{
		{"/run", long(maxRunBody), http.StatusRequestEntityTooLarge},
		{"/run", long(maxRunBody / 2), http.StatusBadRequest}, // read whole: unknown dataset
		{"/mutate", long(upload), http.StatusRequestEntityTooLarge},
		{"/mutate", long(upload / 2), http.StatusBadRequest},
	} {
		if got := post(tc.path, tc.body); got != tc.want {
			t.Fatalf("%s with a %d-byte body: status %d, want %d", tc.path, len(tc.body), got, tc.want)
		}
	}
}

func TestRunKeyExcludesHostKnobs(t *testing.T) {
	a := RunRequest{Dataset: "OK", Algorithm: "PR", Engine: "chgraph", Workers: 1, IncludeValues: true}
	b := a
	b.Workers, b.IncludeValues = 8, false
	if a.runKey() != b.runKey() {
		t.Fatalf("workers/include_values leaked into the run key:\n%s\n%s", a.runKey(), b.runKey())
	}
	c := a
	c.Iterations = 7
	if a.runKey() == c.runKey() {
		t.Fatalf("iterations missing from the run key")
	}
	d := a
	d.Engine = "gla"
	if a.runKey() == d.runKey() {
		t.Fatalf("engine missing from the run key")
	}
	// The prep key additionally ignores engine, algorithm and iterations.
	if a.prepKey() != d.prepKey() || a.prepKey() != c.prepKey() {
		t.Fatalf("prep key varies with engine/iterations:\n%s\n%s\n%s", a.prepKey(), c.prepKey(), d.prepKey())
	}
	e := a
	e.Cores = 8
	if a.prepKey() == e.prepKey() {
		t.Fatalf("cores missing from the prep key")
	}
}

func TestChecksumSensitivity(t *testing.T) {
	base := checksum([]float64{1, 2}, []float64{3})
	if checksum([]float64{1, 2}, []float64{3}) != base {
		t.Fatalf("checksum not deterministic")
	}
	for name, got := range map[string]string{
		"vertex change":  checksum([]float64{1, 2.5}, []float64{3}),
		"boundary shift": checksum([]float64{1}, []float64{2, 3}),
		"empty":          checksum(nil, nil),
	} {
		if got == base {
			t.Fatalf("%s: checksum collision", name)
		}
	}
	if len(base) != 64 {
		t.Fatalf("checksum %q is not hex sha256", base)
	}
}

func ExampleServer() {
	srv := NewServer(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, _ := json.Marshal(RunRequest{Dataset: "OK", Scale: 0.02, Algorithm: "BFS", Engine: "chgraph"})
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	var rr RunResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	fmt.Println(resp.StatusCode, rr.PrepCache)
	// Output: 200 miss
}
