package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"chgraph"
	"chgraph/internal/serve"
)

// serve-mix load. The rate sits well below saturation on two cores: tail
// latency spread grows quickly as the server nears it.
const (
	serveRate    = 12 // requests per second
	serveTenants = 4
	coldWMins    = 20 // distinct W_min values, more than the 16-entry prep LRU
	maxInFlight  = 64 // sender goroutines; a full set makes the sender late
)

// serveDatasets are each tenant's uploads: a small graph for the repeated
// specs, a larger one for value-returning runs (tenant 0's also takes the
// mutation batches), and one that is only ever re-uploaded.
var serveDatasets = []struct {
	name, recipe string
	scale        float64
}{{"small", "WEB", 0.01}, {"main", "LJ", 0.01}, {"churn", "FS", 0.01}}

// servePRIters makes main:PR the slowest class: PageRank's cost varies
// little between graphs, so the 95th percentile that lands in it is steady.
const servePRIters = 4

// serveRunSpecs are the repeated /run specs, one per tenant each: cache
// hits on the small graph, and runs on the larger graph (two returning
// their values). BFS sources are drawn per tenant from the largest
// component.
var serveRunSpecs = []struct {
	class, dataset string
	req            serve.RunRequest
}{
	{"hot:BFS", "small", serve.RunRequest{Algorithm: "BFS", Engine: "hygra"}},
	{"hot:PR", "small", serve.RunRequest{Algorithm: "PR", Engine: "hygra", Iterations: prIters}},
	{"hot:CC", "small", serve.RunRequest{Algorithm: "CC", Engine: "chgraph"}},
	{"main:BFS", "main", serve.RunRequest{Algorithm: "BFS", Engine: "chgraph", IncludeValues: true}},
	{"main:CC", "main", serve.RunRequest{Algorithm: "CC", Engine: "hygra-pf"}},
	{"main:PR", "main", serve.RunRequest{Algorithm: "PR", Engine: "gla", Iterations: servePRIters, IncludeValues: true}},
}

// serveBlock is one block of 25 requests: the class counts fix the mix
// exactly, and the seed shuffles each block. Classes are listed from fast
// to slow as measured on two cores; the counts put the 50th percentile rank
// in the middle of hot:PR (44–56%) and the 95th in the middle of main:PR
// (88–100%), away from the steps between classes.
var serveBlock = []struct {
	class string
	n     int
}{
	{"metrics", 3}, {"upload", 2}, {"mutate", 2}, {"cold", 2}, {"hot:BFS", 2},
	{"hot:PR", 3}, {"main:BFS", 3}, {"hot:CC", 2}, {"main:CC", 3}, {"main:PR", 3},
}

// runSpec is one /run request shape.
type runSpec struct {
	tenant, dataset string
	req             serve.RunRequest
}

func (r runSpec) key() string {
	q := r.req
	return fmt.Sprintf("serve/%s/%s/%s/%s/w%d/src%d/i%d", r.tenant, r.dataset, q.Algorithm, q.Engine, q.WMin, q.Source, q.Iterations)
}

// serveReq is one scheduled request.
type serveReq struct {
	class  string
	tenant string
	method string
	path   string
	body   []byte
	ctype  string
	accept string
	spec   *runSpec // /run only
	batch  int      // /mutate only: index into serveMix.batches
}

// runReply is what the benchmark keeps of one /run response.
type runReply struct {
	spec *runSpec
	resp serve.RunResponse
}

// serveMix is the open loop against an in-process serve.Server on a
// loopback port.
type serveMix struct {
	seed   int64
	refs   *refs
	rng    *rand.Rand
	inputs [serveTenants][]*input
	specs  map[string][]*runSpec // by class, one per tenant
	cold   []*runSpec
	srv    *serve.Server
	ls     *loopbackServer
	client *http.Client
	base   string

	batches []chgraph.Batch
	sched   []serveReq     // requests not sent yet
	issued  map[string]int // requests scheduled so far, by class

	mu    sync.Mutex
	runs  []runReply
	genOf map[uint64]int // generation → batch index that produced it

	// Traced mode.
	tr       *tracer
	tOps     int
	allocs   uint64
	late     time.Duration
	qmax     int
	rejected uint64
}

func newServeMix(seed int64, rf *refs) workload {
	return &serveMix{
		seed: seed, refs: rf, rng: rand.New(rand.NewSource(subSeed(seed, "serve-mix"))),
		genOf: map[uint64]int{}, issued: map[string]int{},
	}
}

func tenantName(t int) string { return "t" + strconv.Itoa(t) }

func (s *serveMix) setup(ctx context.Context, tr *tracer) error {
	s.tr = tr
	for t := 0; t < serveTenants; t++ {
		for _, d := range serveDatasets {
			in, err := makeInput(tr, 0, d.recipe, d.scale, subSeed(s.seed, t))
			if err != nil {
				return err
			}
			s.inputs[t] = append(s.inputs[t], in)
		}
	}
	s.buildSpecs()
	s.srv = serve.NewServer(serve.Options{})
	var h http.Handler = s.srv
	if tr != nil {
		h = s.handlerSpans(h)
	}
	ls, err := startLoopback(h)
	if err != nil {
		return err
	}
	s.ls, s.base = ls, "http://"+ls.addr
	conns := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	for t := 0; t < serveTenants; t++ {
		for i, d := range serveDatasets {
			if err := s.do(ctx, s.upload(t, i, d.name, i%2 == 0), nil, 0, noSpan); err != nil {
				return err
			}
		}
	}
	// Warm-up: every /run spec once (generation 0 everywhere), and both
	// /metrics formats.
	for _, rs := range serveRunSpecs {
		for _, sp := range s.specs[rs.class] {
			if err := s.do(ctx, s.runReq("warm", sp), nil, 0, noSpan); err != nil {
				return err
			}
		}
	}
	for _, sp := range s.cold {
		if err := s.do(ctx, s.runReq("warm", sp), nil, 0, noSpan); err != nil {
			return err
		}
	}
	for _, accept := range []string{"", "application/openmetrics-text"} {
		if err := s.do(ctx, serveReq{class: "metrics", method: "GET", path: "/metrics", accept: accept}, nil, 0, noSpan); err != nil {
			return err
		}
	}
	// Lay out a minute of requests ahead so the timed window only sends.
	for len(s.sched) < 60*serveRate {
		s.scheduleBlock()
	}
	return nil
}

// buildSpecs lays out the /run specs: every repeated spec once per tenant,
// plus cold specs cycling W_min on the small graphs.
func (s *serveMix) buildSpecs() {
	s.specs = map[string][]*runSpec{}
	for t := 0; t < serveTenants; t++ {
		src := map[string]uint32{}
		for i, d := range serveDatasets[:2] {
			src[d.name] = largestComponentSource(s.inputs[t][i].b, s.rng)
		}
		for _, rs := range serveRunSpecs {
			req := rs.req
			req.Dataset = rs.dataset
			if req.Algorithm == "BFS" {
				req.Source = src[rs.dataset]
			}
			s.specs[rs.class] = append(s.specs[rs.class], &runSpec{tenantName(t), rs.dataset, req})
		}
	}
	for k := 0; k < coldWMins; k++ {
		t := k % serveTenants
		s.cold = append(s.cold, &runSpec{tenantName(t), "small", serve.RunRequest{
			Dataset: "small", Algorithm: "BFS", Engine: "hygra", WMin: uint32(4 + k),
		}})
	}
}

// scheduleBlock appends one block of the mix to the schedule, shuffled by
// the seed. Specs rotate rather than being drawn at random, so every seed
// runs the same mix and only the graphs, sources and order differ.
func (s *serveMix) scheduleBlock() {
	var block []string
	for _, c := range serveBlock {
		for i := 0; i < c.n; i++ {
			block = append(block, c.class)
		}
	}
	for _, bi := range s.rng.Perm(len(block)) {
		var r serveReq
		class := block[bi]
		k := s.issued[class]
		s.issued[class]++
		switch class {
		case "metrics":
			accept := ""
			if k%2 == 1 {
				accept = "application/openmetrics-text"
			}
			r = serveReq{class: "metrics", method: "GET", path: "/metrics", accept: accept}
		case "upload":
			r = s.upload(k%serveTenants, 2, "churn", k%2 == 0)
		case "cold":
			r = s.runReq("cold", s.cold[k%len(s.cold)])
		case "mutate":
			r = s.mutateReq(len(s.batches))
		default:
			specs := s.specs[class]
			r = s.runReq(class, specs[k%len(specs)])
		}
		s.sched = append(s.sched, r)
	}
}

func (s *serveMix) upload(t, idx int, name string, text bool) serveReq {
	in := s.inputs[t][idx]
	r := serveReq{class: "upload", tenant: tenantName(t), method: "PUT", path: "/datasets/" + tenantName(t) + "/" + name}
	if text {
		r.body, r.ctype = in.text, "text/plain"
	} else {
		r.body, r.ctype = in.chg1, "application/octet-stream"
	}
	return r
}

func (s *serveMix) runReq(class string, sp *runSpec) serveReq {
	body, _ := json.Marshal(sp.req) // a RunRequest always marshals
	return serveReq{class: class, tenant: sp.tenant, method: "POST", path: "/run", body: body, ctype: "application/json", spec: sp}
}

// mutateReq builds batch i for tenant 0's main graph: two hyperedges
// removed, two added, so the hyperedge count and every removal id stay
// valid whatever order batches land in.
func (s *serveMix) mutateReq(i int) serveReq {
	g := s.inputs[0][1].g
	nv, nh := int(g.NumVertices()), int(g.NumHyperedges())
	perm := s.rng.Perm(nh)
	b := chgraph.Batch{Remove: []uint32{uint32(perm[0]), uint32(perm[1])}}
	for k := 0; k < 2; k++ {
		seen := map[uint32]bool{}
		var pins []uint32
		for size := 4 + s.rng.Intn(5); len(pins) < size; {
			v := uint32(s.rng.Intn(nv))
			if !seen[v] {
				seen[v] = true
				pins = append(pins, v)
			}
		}
		b.Add = append(b.Add, pins)
	}
	s.batches = append(s.batches, b)
	body, _ := json.Marshal(serve.MutateRequest{Dataset: "main", Add: b.Add, Remove: b.Remove})
	return serveReq{class: "mutate", tenant: tenantName(0), method: "POST", path: "/mutate", body: body, ctype: "application/json", batch: i}
}

// do sends one request and checks its reply. op and parent tag the traced
// spans.
func (s *serveMix) do(ctx context.Context, r serveReq, tr *tracer, op int64, parent int32) error {
	req, err := http.NewRequestWithContext(ctx, r.method, s.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	if r.tenant != "" {
		req.Header.Set("X-Tenant", r.tenant)
	}
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	if r.accept != "" {
		req.Header.Set("Accept", r.accept)
	}
	if tr != nil {
		req.Header.Set("X-Bench-Op", strconv.FormatInt(op, 10))
		req.Header.Set("X-Bench-Span", strconv.Itoa(int(parent)))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	want := http.StatusOK
	if r.class == "upload" {
		want = http.StatusCreated
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, resp.StatusCode, body)
	}
	switch r.class {
	case "metrics":
		if r.accept != "" {
			if !bytes.HasSuffix(body, []byte("# EOF\n")) {
				return fmt.Errorf("/metrics: OpenMetrics exposition not terminated by # EOF")
			}
			return nil
		}
		var snap serve.Snapshot
		return json.Unmarshal(body, &snap)
	case "upload":
		var info serve.DatasetInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return err
		}
		t, _ := strconv.Atoi(r.tenant[1:])
		in := s.uploadInput(t, info.Name)
		if in == nil || info.NumVertices != in.g.NumVertices() || info.NumHyperedges != in.g.NumHyperedges() || info.NumBipartiteEdges != in.g.NumBipartiteEdges() {
			return fmt.Errorf("upload %s/%s: registry reports %d/%d/%d", r.tenant, info.Name, info.NumVertices, info.NumHyperedges, info.NumBipartiteEdges)
		}
		return nil
	case "mutate":
		var mr serve.MutateResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			return err
		}
		if mr.NumHyperedges != s.inputs[0][1].g.NumHyperedges() {
			return fmt.Errorf("/mutate: %d hyperedges after batch, want %d", mr.NumHyperedges, s.inputs[0][1].g.NumHyperedges())
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, dup := s.genOf[mr.Generation]; dup {
			return fmt.Errorf("/mutate: generation %d reported twice", mr.Generation)
		}
		s.genOf[mr.Generation] = r.batch
		return nil
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return err
	}
	if r.spec.req.IncludeValues {
		if got := valuesChecksum(rr.VertexValues, rr.HyperedgeValues); got != rr.Checksum {
			return fmt.Errorf("/run %s: values digest to %.12s, response checksum %.12s", r.spec.key(), got, rr.Checksum)
		}
	}
	rr.VertexValues, rr.HyperedgeValues = nil, nil
	s.mu.Lock()
	s.runs = append(s.runs, runReply{spec: r.spec, resp: rr})
	s.mu.Unlock()
	return nil
}

func (s *serveMix) uploadInput(t int, name string) *input {
	for i, d := range serveDatasets {
		if d.name == name {
			return s.inputs[t][i]
		}
	}
	return nil
}

// check verifies that both upload encodings decode to the same graph and
// that the warm-up /run replies match direct runs; the window's replies are
// kept from here on.
func (s *serveMix) check() error {
	for t := range s.inputs {
		for _, in := range s.inputs[t] {
			g, err := in.decodeText(s.tr, 0)
			if err != nil {
				return fmt.Errorf("%s text: %w", in.name, err)
			}
			if g.NumVertices() != in.g.NumVertices() || g.NumHyperedges() != in.g.NumHyperedges() || g.NumBipartiteEdges() != in.g.NumBipartiteEdges() {
				return fmt.Errorf("%s: text and CHG1 encodings decode to different graphs", in.name)
			}
		}
	}
	if err := s.verifyRuns(context.Background()); err != nil {
		return err
	}
	s.mu.Lock()
	s.runs = nil
	s.mu.Unlock()
	return nil
}

func (s *serveMix) window(ctx context.Context, tr *tracer, d time.Duration, minOps int) []opRecord {
	n := max(int(d.Seconds()*serveRate), minOps)
	for len(s.sched) < n {
		s.scheduleBlock()
	}
	sched := s.sched[:n]
	s.sched = s.sched[n:]
	var a0, r0 uint64
	var stop chan struct{}
	var pollDone sync.WaitGroup
	if tr != nil {
		a0 = heapAllocs()
		m := s.srv.Metrics()
		r0 = m.Rejected + m.RateLimited
		stop = make(chan struct{})
		pollDone.Add(1)
		go func() {
			defer pollDone.Done()
			t := time.NewTicker(10 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					s.qmax = max(s.qmax, s.srv.Metrics().QueueDepth)
				}
			}
		}()
	}
	opBase := int64(1_000_000 * (s.tOps + 1))
	timings := openLoop(len(sched), time.Second/time.Duration(serveRate), maxInFlight, func(i int) error {
		op := opBase + int64(i)
		sp := tr.begin("serve-mix.op", noSpan, op)
		defer tr.end(sp)
		return s.do(ctx, sched[i], tr, op, sp)
	})
	ops := make([]opRecord, len(timings))
	for i, t := range timings {
		ops[i] = opRecord{class: sched[i].class, lat: t.latency(), svc: t.done - t.sent, err: t.err}
		if tr != nil {
			s.late = max(s.late, t.late())
		}
	}
	if tr != nil {
		close(stop)
		pollDone.Wait()
		s.allocs += heapAllocs() - a0
		m := s.srv.Metrics()
		s.rejected += m.Rejected + m.RateLimited - r0
		s.tOps += len(ops)
	}
	return ops
}

// verify checks every /run reply of the window against a direct run at the
// generation the reply reports.
func (s *serveMix) verify(ctx context.Context) error { return s.verifyRuns(ctx) }

// verifyRuns compares each kept /run reply's checksum, cycles and DRAM
// count against a direct chgraph run of the same spec on the benchmark's
// own copy of the uploaded graph. Replies on the mutated spec are checked
// against the graph with the batches replayed through Prepared.Apply in the
// order the server reported.
func (s *serveMix) verifyRuns(ctx context.Context) error {
	s.mu.Lock()
	runs := s.runs
	s.mu.Unlock()
	versions, err := s.replay(ctx)
	if err != nil {
		return err
	}
	for _, r := range runs {
		gen := r.resp.Generation
		key := fmt.Sprintf("%s/g%d", r.spec.key(), gen)
		if _, ok := s.refs.m[key]; !ok {
			t, _ := strconv.Atoi(r.spec.tenant[1:])
			cfg, err := runConfig(r.spec.req)
			if err != nil {
				return err
			}
			g := s.uploadInput(t, r.spec.dataset).g
			if gen > 0 {
				if t != 0 || r.spec.dataset != "main" || gen >= uint64(len(versions)) {
					return fmt.Errorf("%s: no /mutate reply produced generation %d", key, gen)
				}
				g, cfg.Prepared = versions[gen].g, versions[gen].pre
			}
			res, err := chgraph.RunContext(ctx, g, r.spec.req.Algorithm, cfg)
			if err != nil {
				return fmt.Errorf("%s reference: %w", key, err)
			}
			s.refs.m[key] = resultOutcome(res)
		}
		if err := s.refs.match(key, outcome{sum: r.resp.Checksum, cycles: r.resp.Cycles, mem: r.resp.MemAccesses}); err != nil {
			return err
		}
	}
	return nil
}

// version is one generation of the mutated graph and its artifacts.
type version struct {
	g   *chgraph.Hypergraph
	pre *chgraph.Prepared
}

// replay rebuilds every generation of the mutated spec the server reported,
// applying the batches through Prepared.Apply in generation order.
func (s *serveMix) replay(ctx context.Context) ([]version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.genOf) == 0 {
		return nil, nil
	}
	g := s.inputs[0][1].g
	pre, err := chgraph.Prepare(ctx, g, chgraph.RunConfig{})
	if err != nil {
		return nil, err
	}
	versions := []version{{g, pre}}
	for gen := uint64(1); gen <= uint64(len(s.genOf)); gen++ {
		bi, ok := s.genOf[gen]
		if !ok {
			return nil, fmt.Errorf("/mutate replies skip generation %d", gen)
		}
		prev := versions[len(versions)-1]
		sp := s.tr.begin("oag.update", noSpan, 0)
		ng, npre, err := prev.pre.Apply(ctx, s.batches[bi])
		s.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", bi, err)
		}
		versions = append(versions, version{ng, npre})
	}
	return versions, nil
}

// runConfig maps a /run request onto the RunConfig a direct call uses.
func runConfig(q serve.RunRequest) (chgraph.RunConfig, error) {
	kind, err := chgraph.ParseEngine(q.Engine)
	if err != nil {
		return chgraph.RunConfig{}, err
	}
	return chgraph.RunConfig{Engine: kind, WMin: q.WMin, Source: q.Source, Iterations: q.Iterations}, nil
}

// sim averages the model outputs of the window's /run replies, leaving out
// the mutated spec: which generation those ran on depends on timing, while
// every other reply is fixed by the seed and the schedule.
func (s *serveMix) sim() (cycles, dram float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n float64
	for _, r := range s.runs {
		if r.spec.tenant == tenantName(0) && r.spec.dataset == "main" {
			continue
		}
		cycles += float64(r.resp.Cycles)
		dram += float64(r.resp.MemAccesses)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return cycles / n, dram / n
}

// handlerSpans wraps the server so each request's handler time is recorded
// as a child of the client-side op span.
func (s *serveMix) handlerSpans(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		op, err := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64)
		if err != nil {
			return // untraced request (set-up)
		}
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		class := "run"
		switch {
		case r.URL.Path == "/mutate":
			class = "mutate"
		case r.URL.Path == "/metrics":
			class = "metrics"
		case r.Method == "PUT":
			class = "upload"
		}
		s.tr.record("serve.handler."+class, int32(parent), op, t0, time.Now())
	})
}

func (s *serveMix) layerMetrics(m metricSet, layers map[string]layerTime) error {
	if s.tOps == 0 {
		return fmt.Errorf("serve-mix: no traced ops")
	}
	for _, c := range []string{"run", "mutate", "upload", "metrics"} {
		lt := layers["serve.handler."+c]
		m.set("serve.handler_ms."+c, meanMS(lt.total, lt.count), "ms")
	}
	op := layers["serve-mix.op"]
	m.set("serve.transport_ms", meanMS(op.self, op.count), "ms")
	s.mu.Lock()
	var hits, coalesced, runs float64
	for _, r := range s.runs {
		runs++
		if r.resp.PrepCache == "hit" {
			hits++
		}
		if r.resp.Coalesced {
			coalesced++
		}
	}
	s.mu.Unlock()
	m.set("serve.prep_hit_ratio", ratio(hits, runs), "ratio")
	m.set("serve.coalesced_ratio", ratio(coalesced, runs), "ratio")
	m.set("serve.rejected", float64(s.rejected), "count")
	m.set("serve.queue_depth_max", float64(s.qmax), "count")
	m.set("serve.allocs_per_req", float64(s.allocs)/float64(s.tOps), "count")
	m.set("loadgen.late_ms", ms(s.late), "ms")
	return nil
}

func (s *serveMix) close() {
	if s.ls == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // every request has returned by now
	s.ls.close()
	s.client.CloseIdleConnections()
	s.ls = nil
}
