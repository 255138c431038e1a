package dist

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/par"
)

// DefaultMaxBody bounds a worker request body (the handshake carries the
// whole sub-hypergraph, so the ceiling is generous).
const DefaultMaxBody = 1 << 30

// capObs captures the engine's latest phase snapshot so the worker can ship
// it in the commit reply. The engine emits at most one snapshot per Commit,
// from the request-handling goroutine, so a plain field suffices.
type capObs struct{ snap *obs.PhaseSnapshot }

func (c *capObs) PhaseDone(s obs.PhaseSnapshot)       { c.snap = &s }
func (c *capObs) IterationDone(obs.IterationSnapshot) {}
func (c *capObs) RunDone(obs.RunSnapshot)             {}

// Worker hosts one shard engine behind the dist wire protocol. A Worker
// serves exactly one session at a time; a new /prepare tears down whatever
// session existed (so a coordinator crash never wedges the process) and
// installs a fresh engine. All handlers serialize on one mutex — the
// protocol is a lockstep conversation with a single coordinator, so
// concurrency would buy nothing and cost invariants.
type Worker struct {
	mu sync.Mutex

	// Workers is the host-side parallelism for phase compilation and prep
	// construction (0 = all CPUs). Simulated results are identical for
	// every value.
	Workers int
	// MaxBody overrides the request body ceiling (0 = DefaultMaxBody).
	MaxBody int64

	session string
	g       *hypergraph.Bipartite
	in      *engine.Instance
	st      *engine.Step
	stIter  int
	stPhase int
	stLive  bool

	iter     int
	frontier bitset.Bitmap // incoming local vertex frontier (H phases)
	nextE    bitset.Bitmap // hyperedge activations, held across the phase pair
	nextV    bitset.Bitmap // vertex activations of the live vertex phase
	cap      *capObs
	pre      uint64

	// Lost-response idempotency: a coordinator that timed out waiting for
	// a /commit reply retries it; the step was already committed, so the
	// worker memoizes the last reply and re-serves it instead of forcing a
	// full session replay.
	lastIter, lastPhase int
	lastReply           []byte
	hasLast             bool
}

// NewWorker returns a worker with no session.
func NewWorker() *Worker { return &Worker{} }

// ServeHTTP implements http.Handler (routes: /prepare /step /commit
// /finish /healthz).
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		w.handleHealth(rw, r)
	case "/prepare":
		w.handleBinary(rw, r, w.prepare)
	case "/step":
		w.handleBinary(rw, r, w.step)
	case "/commit":
		w.handleBinary(rw, r, w.commit)
	case "/finish":
		w.handleBinary(rw, r, w.finish)
	default:
		http.NotFound(rw, r)
	}
}

// wireError carries an HTTP status out of a handler.
type wireError struct {
	status int
	msg    string
}

func (e *wireError) Error() string { return e.msg }

func errStale(format string, args ...any) error {
	return &wireError{status: http.StatusConflict, msg: fmt.Sprintf(format, args...)}
}

func errBad(format string, args ...any) error {
	return &wireError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func (w *Worker) handleBinary(rw http.ResponseWriter, r *http.Request, fn func(body []byte) ([]byte, error)) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	max := w.MaxBody
	if max <= 0 {
		max = DefaultMaxBody
	}
	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, max))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	out, err := w.call(fn, body)
	if err != nil {
		status := http.StatusInternalServerError
		var we *wireError
		if asWireError(err, &we) {
			status = we.status
		}
		http.Error(rw, err.Error(), status)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Write(out)
}

// call runs fn under the worker mutex. A handler panic must not wedge the
// worker: the mutex is released on the way out, the session is dropped
// (without recycling the engine's scratch arena, whose state the panic may
// have left half-written) so the coordinator's rejoin path re-prepares, and
// the request answers 500.
func (w *Worker) call(fn func(body []byte) ([]byte, error), body []byte) (out []byte, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer func() {
		if p := recover(); p != nil {
			w.in = nil
			w.reset()
			out, err = nil, fmt.Errorf("dist: worker handler panicked: %v", p)
		}
	}()
	return fn(body)
}

// asWireError is errors.As without the reflection-heavy generality: fn
// results either are *wireError or wrap nothing.
func asWireError(err error, out **wireError) bool {
	if we, ok := err.(*wireError); ok {
		*out = we
		return true
	}
	return false
}

func (w *Worker) handleHealth(rw http.ResponseWriter, _ *http.Request) {
	w.mu.Lock()
	rep := healthReply{Session: w.session, Iter: w.iter}
	w.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(rep)
}

// reset tears down any existing session (Finishing a live engine so its
// scratch arena is recycled).
func (w *Worker) reset() {
	if w.in != nil {
		w.in.Finish()
	}
	w.session, w.g, w.in, w.st = "", nil, nil, nil
	w.stLive, w.hasLast = false, false
	w.iter = 0
	w.cap = nil
}

func (w *Worker) prepare(body []byte) ([]byte, error) {
	req, g, err := decodePrepare(body)
	if err != nil {
		return nil, errBad("%v", err)
	}
	if req.Wire != wireVersion {
		return nil, errBad("dist: coordinator speaks wire version %d, worker %d", req.Wire, wireVersion)
	}
	workers := w.Workers
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	o, err := req.Options.engineOptions(workers)
	if err != nil {
		return nil, errBad("%v", err)
	}
	var co *capObs
	if req.Observe {
		co = &capObs{}
		o.Observer = co
	}
	in, err := engine.NewInstance(g, o)
	if err != nil {
		return nil, errBad("dist: shard %d engine: %v", req.Shard, err)
	}
	w.reset()
	w.session, w.g, w.in, w.cap = req.Session, g, in, co
	w.frontier = bitset.New(g.NumVertices())
	w.nextE = bitset.New(g.NumHyperedges())
	w.nextV = bitset.New(g.NumVertices())
	w.pre = 0
	if req.ChargePreprocess {
		in.ChargePreprocess()
		w.pre = in.PreprocessCycles()
	}
	// A rejoining worker fast-forwards to the coordinator's iteration so
	// phase snapshots and the Iterations counter line up with the run.
	for i := 0; i < req.Iter; i++ {
		in.AdvanceIteration()
	}
	w.iter = req.Iter
	hdrOut, err := json.Marshal(prepareReply{Wire: wireVersion, PreprocessCycles: w.pre})
	if err != nil {
		return nil, err
	}
	return appendHeader(nil, hdrOut), nil
}

// checkSession gates every post-handshake request: a worker that restarted
// (or was re-prepared for another run) answers 409 so the coordinator knows
// to re-handshake and replay.
func (w *Worker) checkSession(session string) error {
	if w.session == "" {
		return errStale("dist: no session (worker restarted?)")
	}
	if session != w.session {
		return errStale("dist: session %q is stale (current %q)", session, w.session)
	}
	return nil
}

func (w *Worker) step(body []byte) ([]byte, error) {
	hdr, payload, err := splitHeader(body)
	if err != nil {
		return nil, errBad("%v", err)
	}
	var req stepRequest
	if err := json.Unmarshal(hdr, &req); err != nil {
		return nil, errBad("dist: bad step header: %v", err)
	}
	if err := w.checkSession(req.Session); err != nil {
		return nil, err
	}
	if w.stLive {
		// Duplicate of the live step (the coordinator lost our reply):
		// re-serve the marks. Anything else mid-step is a protocol breach.
		if req.Iter == w.stIter && req.Phase == w.stPhase {
			return w.stepReply(), nil
		}
		return nil, errStale("dist: step iter=%d phase=%d while step iter=%d phase=%d is live",
			req.Iter, req.Phase, w.stIter, w.stPhase)
	}
	if req.Iter != w.iter {
		return nil, errStale("dist: step iter=%d, worker at iter=%d", req.Iter, w.iter)
	}
	switch req.Phase {
	case 0:
		if _, err := w.frontier.DecodeBinary(payload); err != nil {
			return nil, errBad("%v", err)
		}
		if want := (uint32(w.g.NumVertices()) + 63) / 64; w.frontier.Words() != want {
			return nil, errBad("dist: frontier has %d words, shard needs %d", w.frontier.Words(), want)
		}
		w.nextE.Reset()
		w.st = w.in.BeginHyperedgeComputation(w.frontier, w.nextE)
	case 1:
		w.nextV.Reset()
		w.st = w.in.BeginVertexComputation(w.nextE, w.nextV)
	default:
		return nil, errBad("dist: unknown phase %d", req.Phase)
	}
	w.stIter, w.stPhase, w.stLive = req.Iter, req.Phase, true
	return w.stepReply(), nil
}

// stepReply encodes the live step's marks as their sources.
func (w *Worker) stepReply() []byte {
	_, deg, _ := phaseSources(w.g, w.stPhase)
	return appendSources(nil, w.st.NumMarks(), w.st.Mark, deg)
}

func (w *Worker) commit(body []byte) ([]byte, error) {
	hdr, payload, err := splitHeader(body)
	if err != nil {
		return nil, errBad("%v", err)
	}
	var req commitRequest
	if err := json.Unmarshal(hdr, &req); err != nil {
		return nil, errBad("dist: bad commit header: %v", err)
	}
	if err := w.checkSession(req.Session); err != nil {
		return nil, err
	}
	if !w.stLive {
		// Duplicate of the last committed phase: re-serve the memoized
		// reply so a lost response doesn't force a session replay.
		if w.hasLast && req.Iter == w.lastIter && req.Phase == w.lastPhase {
			return w.lastReply, nil
		}
		return nil, errStale("dist: commit iter=%d phase=%d with no live step", req.Iter, req.Phase)
	}
	if req.Iter != w.stIter || req.Phase != w.stPhase {
		return nil, errStale("dist: commit iter=%d phase=%d, live step is iter=%d phase=%d",
			req.Iter, req.Phase, w.stIter, w.stPhase)
	}
	res, err := decodeResolutions(payload)
	if err != nil {
		return nil, errBad("%v", err)
	}
	st := w.st
	if res.n != st.NumMarks() {
		return nil, errStale("dist: %d resolutions for %d marks (frontier divergence?)", res.n, st.NumMarks())
	}
	// Replay the coordinator's outcomes through the exact engine.Step
	// discipline the in-process backend uses: the destination frontier's
	// test-and-set decides "first activation" locally and deterministically.
	next := w.nextE
	if req.Phase == 1 {
		next = w.nextV
	}
	if w.cap != nil {
		w.cap.snap = nil
	}
	for j := 0; j < res.n; j++ {
		_, ldst := st.Mark(j)
		r := res.at(j)
		st.Resolve(j, r, r&algorithms.Activate != 0 && next.TestAndSet(ldst))
	}
	cycles := st.Commit()
	w.stLive = false
	if req.Phase == 1 {
		w.in.AdvanceIteration()
		w.iter++
	}
	var snap *obs.PhaseSnapshot
	if w.cap != nil {
		snap = w.cap.snap
	}
	hdrOut, err := json.Marshal(commitReply{
		Cycles:         cycles,
		EdgesProcessed: w.in.EdgesProcessed(),
		SimPhases:      w.in.SimPhases(),
		Snap:           snap,
	})
	if err != nil {
		return nil, err
	}
	out := appendHeader(nil, hdrOut)
	w.lastIter, w.lastPhase, w.lastReply, w.hasLast = req.Iter, req.Phase, out, true
	return out, nil
}

func (w *Worker) finish(body []byte) ([]byte, error) {
	hdr, _, err := splitHeader(body)
	if err != nil {
		return nil, errBad("%v", err)
	}
	var req finishRequest
	if err := json.Unmarshal(hdr, &req); err != nil {
		return nil, errBad("dist: bad finish header: %v", err)
	}
	if err := w.checkSession(req.Session); err != nil {
		return nil, err
	}
	res := w.in.Finish()
	w.in = nil // already finished; reset must not double-Finish
	w.reset()
	hdrOut, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return appendHeader(nil, hdrOut), nil
}

// ListenAndServe runs a worker HTTP server on addr until ctx is cancelled,
// announcing the bound address on out (scripts parse the "listening on"
// line, and addr ":0" picks a free port).
func ListenAndServe(ctx context.Context, addr string, w *Worker, out io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if out != nil {
		fmt.Fprintf(out, "chgraph-worker listening on %s\n", ln.Addr())
	}
	srv := &http.Server{Handler: w}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		srv.Close()
		<-errc
		return nil
	case err := <-errc:
		return err
	}
}

// WorkerMain is the chgraph-worker entry point (also re-executed by the
// crash/rejoin tests); it returns the process exit code.
func WorkerMain(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("chgraph-worker", flag.ContinueOnError)
	fs.SetOutput(errOut)
	addr := fs.String("addr", "127.0.0.1:0", "listen address (\":0\" picks a free port, printed on stdout)")
	workers := fs.Int("workers", 0, "host-side parallelism for phase compilation (0 = all CPUs; results are identical for every value)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := NewWorker()
	w.Workers = *workers
	if err := ListenAndServe(ctx, *addr, w, out); err != nil {
		fmt.Fprintf(errOut, "chgraph-worker: %v\n", err)
		return 1
	}
	return 0
}
