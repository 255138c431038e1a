package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"chgraph/internal/algorithms"
	"chgraph/internal/bitset"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/shard"
)

// stage tracks how far into the current iteration the worker has advanced —
// the coordinator-side replay log index. On rejoin, every completed stage is
// replayed against the fresh worker from the buffers below before the failed
// operation is retried.
type stage int

const (
	stageIdle       stage = iota // before the iteration's hyperedge Begin
	stageHBegun                  // hyperedge step begun (sources held)
	stageHCommitted              // hyperedge phase committed
	stageVBegun                  // vertex step begun
	stageVCommitted              // vertex phase committed (pre-advance)
)

// remoteBackend drives one worker process through the engine.Backend
// contract. Crash safety rests on two facts: the coordinator owns the global
// algorithm state (HF/VF outcomes are applied exactly once, worker crashes
// notwithstanding), and everything the worker holds is a deterministic
// function of (sub-hypergraph, engine options, current-iteration frontier,
// resolution bytes) — all of which the backend retains, so a restarted
// worker re-prepares and replays the current iteration bit-identically.
type remoteBackend struct {
	co      *Coordinator
	sh      *shard.Shard
	shardID int
	base    string // http://host:port
	session string
	seq     int // handshake counter, makes session ids unique per rejoin

	// Handshake payload, retained verbatim for rejoins.
	graphBlob []byte
	wopts     wireOptions
	chargePre bool
	observe   bool

	// Current-iteration replay log.
	iter  int
	stage stage
	front bitset.Bitmap // local H frontier as shipped
	srcs  []uint32      // live step's sources, in mark order
	marks int           // live step's mark count
	resH  resolutions   // resolutions per phase
	resV  resolutions

	// cur expands the live step's sources into marks (Drain); reply is the
	// reused receive buffer behind post's result.
	cur   hypergraph.AdjCursor
	reply []byte

	// next is the global vertex frontier the live vertex phase's
	// activations go to (Begin(VertexPhase)).
	next bitset.Bitmap

	// Mirrors of worker-held results.
	pre       uint64
	edges     uint64
	phases    int
	restarts  uint64
	replaying bool // inside rejoin: suppress duplicate snapshot forwarding

	tap      obs.Observer // user observer; phase snapshots forwarded here
	finished bool
}

// url joins the worker base with an endpoint path.
func (b *remoteBackend) url(path string) string { return b.base + path }

// post issues one POST with the per-attempt timeout and returns the reply
// body, which aliases b.reply and is valid until the next post. Non-2xx
// statuses map to rpcError so the retry loop can tell a stale session (409
// → rejoin) from a protocol bug (4xx → fail fast).
func (b *remoteBackend) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	actx, cancel := context.WithTimeout(ctx, b.co.opt.StepTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, b.url(path), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := b.co.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf := bytes.NewBuffer(b.reply[:0])
	_, err = buf.ReadFrom(resp.Body)
	out := buf.Bytes()
	b.reply = out
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &rpcError{status: resp.StatusCode, msg: strings.TrimSpace(string(out))}
	}
	return out, nil
}

// rpcError is a non-2xx worker reply.
type rpcError struct {
	status int
	msg    string
}

func (e *rpcError) Error() string { return fmt.Sprintf("worker replied %d: %s", e.status, e.msg) }

// fatal reports protocol errors no retry can fix (a malformed request is
// malformed forever, and so is a mark outside the shard); 409 is the rejoin
// signal and 5xx/transport errors are retryable.
func fatal(err error) bool {
	if _, ok := err.(*protocolError); ok {
		return true
	}
	re, ok := err.(*rpcError)
	return ok && re.status != http.StatusConflict && re.status >= 400 && re.status < 500
}

// retry runs op until it succeeds, the context dies, or the rejoin deadline
// passes. After each failure it backs off exponentially, then probes the
// worker: a live worker holding our session means the failure was transient
// (lost reply, timeout) and the idempotent wire ops tolerate a plain retry;
// anything else — connection refused, a restarted worker with no session —
// triggers a re-handshake plus current-iteration replay before retrying.
func (b *remoteBackend) retry(ctx context.Context, what string, op func(ctx context.Context) error) error {
	deadline := time.Now().Add(b.co.opt.RejoinTimeout)
	backoff := b.co.opt.RetryBase
	var lastErr error
	for {
		err := op(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if fatal(err) {
			return fmt.Errorf("dist: shard %d %s: %w", b.shardID, what, err)
		}
		lastErr = err
		if time.Now().After(deadline) {
			return fmt.Errorf("dist: shard %d %s: worker %s did not recover within %v: %w",
				b.shardID, what, b.base, b.co.opt.RejoinTimeout, lastErr)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > b.co.opt.RetryMax {
			backoff = b.co.opt.RetryMax
		}
		if b.sessionAlive(ctx) {
			continue // transient: the wire ops are idempotent, just retry
		}
		if rerr := b.rejoin(ctx); rerr != nil {
			lastErr = rerr // keep backing off until the worker returns
		}
	}
}

// sessionAlive probes /healthz and reports whether the worker still holds
// this backend's session.
func (b *remoteBackend) sessionAlive(ctx context.Context) bool {
	actx, cancel := context.WithTimeout(ctx, b.co.opt.StepTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, b.url("/healthz"), nil)
	if err != nil {
		return false
	}
	resp, err := b.co.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var rep healthReply
	if json.NewDecoder(resp.Body).Decode(&rep) != nil {
		return false
	}
	return resp.StatusCode == http.StatusOK && rep.Session == b.session
}

// handshake (re)prepares the worker: fresh session id, shard spec, engine
// options, sub-hypergraph. Used for both the initial join and rejoins.
func (b *remoteBackend) handshake(ctx context.Context) error {
	b.seq++
	session := fmt.Sprintf("%s-%d-%d", b.co.runID, b.shardID, b.seq)
	hdr, err := json.Marshal(prepareRequest{
		Wire: wireVersion, Session: session, Shard: b.shardID, Iter: b.iter,
		Options: b.wopts, ChargePreprocess: b.chargePre, Observe: b.observe,
	})
	if err != nil {
		return err
	}
	body, err := b.post(ctx, "/prepare", append(appendHeader(nil, hdr), b.graphBlob...))
	if err != nil {
		return err
	}
	rhdr, _, err := splitHeader(body)
	if err != nil {
		return err
	}
	var rep prepareReply
	if err := json.Unmarshal(rhdr, &rep); err != nil {
		return fmt.Errorf("dist: bad prepare reply: %w", err)
	}
	if rep.Wire != wireVersion {
		return &protocolError{fmt.Sprintf("dist: worker speaks wire version %d, coordinator %d", rep.Wire, wireVersion)}
	}
	b.session = session
	b.pre = rep.PreprocessCycles
	return nil
}

// rejoin re-prepares a restarted worker and replays the current iteration
// from the coordinator's log: the same local frontier, the same resolution
// bytes, through the same engine discipline — so the rebuilt worker state
// (frontiers, op streams, algorithm-visible effects) is bit-identical to the
// lost one. Only the restarted simulator's clock is cold, which is why
// cycle counters stop being crash-invariant while state checksums never do.
func (b *remoteBackend) rejoin(ctx context.Context) error {
	if err := b.handshake(ctx); err != nil {
		return err
	}
	b.restarts++
	b.replaying = true
	defer func() { b.replaying = false }()
	if b.stage >= stageHBegun {
		// The hyperedge marks the restarted worker compiles must match the
		// ones the lost worker compiled: the retained resolutions (or,
		// pre-drain, the retained sources themselves) were produced against
		// them. b.marks still counts the H marks until Begin(V) overwrites it.
		want := b.marks
		if b.stage >= stageVBegun {
			want = b.resH.n
		}
		n, err := b.stepRPC(ctx, 0, b.front)
		if err != nil {
			return err
		}
		if n != want {
			return fmt.Errorf("dist: shard %d replay diverged: %d hyperedge marks, expected %d", b.shardID, n, want)
		}
	}
	if b.stage >= stageHCommitted {
		if _, err := b.commitRPC(ctx, 0, &b.resH); err != nil {
			return err
		}
	}
	if b.stage >= stageVBegun {
		want := b.resV.n
		n, err := b.stepRPC(ctx, 1, nil)
		if err != nil {
			return err
		}
		if n != want {
			return fmt.Errorf("dist: shard %d replay diverged: %d vertex marks, expected %d", b.shardID, n, want)
		}
	}
	if b.stage >= stageVCommitted {
		if _, err := b.commitRPC(ctx, 1, &b.resV); err != nil {
			return err
		}
	}
	return nil
}

// stepRPC begins a phase on the worker and stores the returned sources and
// mark count, checked against the shard: Drain indexes the shard's id maps
// with the marks it expands from them. Hyperedge phases (0) source from
// vertices, vertex phases (1) from hyperedges.
func (b *remoteBackend) stepRPC(ctx context.Context, phase int, frontier bitset.Bitmap) (int, error) {
	hdr, err := json.Marshal(stepRequest{Session: b.session, Iter: b.iter, Phase: phase})
	if err != nil {
		return 0, err
	}
	body := appendHeader(nil, hdr)
	body = frontier.AppendBinary(body)
	out, err := b.post(ctx, "/step", body)
	if err != nil {
		return 0, err
	}
	numSrc, deg, _ := phaseSources(b.sh.G, phase)
	if b.srcs, b.marks, err = decodeSources(out, b.srcs, numSrc, deg); err != nil {
		return 0, err
	}
	return b.marks, nil
}

// commitRPC commits a phase with the given resolutions, updating the
// result mirrors.
func (b *remoteBackend) commitRPC(ctx context.Context, phase int, res *resolutions) (uint64, error) {
	hdr, err := json.Marshal(commitRequest{Session: b.session, Iter: b.iter, Phase: phase})
	if err != nil {
		return 0, err
	}
	body := appendHeader(nil, hdr)
	body = appendResolutions(body, res)
	out, err := b.post(ctx, "/commit", body)
	if err != nil {
		return 0, err
	}
	rhdr, _, err := splitHeader(out)
	if err != nil {
		return 0, err
	}
	var rep commitReply
	if err := json.Unmarshal(rhdr, &rep); err != nil {
		return 0, fmt.Errorf("dist: bad commit reply: %w", err)
	}
	b.edges = rep.EdgesProcessed
	b.phases = rep.SimPhases
	if rep.Snap != nil && b.tap != nil && !b.replaying {
		s := *rep.Snap
		s.Shard = b.shardID
		b.tap.PhaseDone(s)
	}
	return rep.Cycles, nil
}

// --- engine.Backend implementation ------------------------------------------

func (b *remoteBackend) ChargePreprocess(context.Context) (uint64, error) {
	// Charged worker-side during the handshake (and re-charged on every
	// rejoin — the restarted clock starts from preprocessing again, like
	// the original worker's did).
	return b.pre, nil
}

func (b *remoteBackend) Begin(ctx context.Context, ph engine.Phase, frontierV bitset.Bitmap) error {
	if ph == engine.HyperedgePhase {
		// Restrict the global vertex frontier to the shard and retain it:
		// it seeds the current-iteration replay if the worker crashes.
		if b.front == nil {
			b.front = bitset.New(b.sh.G.NumVertices())
		}
		b.front.Reset()
		for lv, gv := range b.sh.Vertices {
			if frontierV.Get(gv) {
				b.front.Set(uint32(lv))
			}
		}
		b.resH.reset()
		b.resV.reset()
		err := b.retry(ctx, "step(hyperedge)", func(ctx context.Context) error {
			_, err := b.stepRPC(ctx, 0, b.front)
			return err
		})
		if err != nil {
			return err
		}
		b.stage = stageHBegun
		return nil
	}
	b.next = frontierV
	err := b.retry(ctx, "step(vertex)", func(ctx context.Context) error {
		_, err := b.stepRPC(ctx, 1, nil)
		return err
	})
	if err != nil {
		return err
	}
	b.stage = stageVBegun
	return nil
}

// Drain expands each source into its incidence list in the coordinator's
// copy of the shard graph — the marks the worker compiled, in order — and
// maps them to global ids. A vertex phase's activated vertices go to the
// global frontier: they are the vertices the worker's own next frontier
// holds, so the worker need not ship it.
func (b *remoteBackend) Drain(fn func(src, dst uint32) algorithms.EdgeResult) error {
	phase, res := 0, &b.resH
	srcs, dsts := b.sh.Vertices, b.sh.Hyperedges
	if b.stage == stageVBegun {
		phase, res = 1, &b.resV
		srcs, dsts = b.sh.Hyperedges, b.sh.Vertices
	}
	_, _, adj := phaseSources(b.sh.G, phase)
	res.reset()
	b.cur.Bind(adj)
	for _, src := range b.srcs {
		gsrc := srcs[src]
		for _, dst := range b.cur.List(src) {
			r := fn(gsrc, dsts[dst])
			res.add(r)
			if phase == 1 && r&algorithms.Activate != 0 {
				b.next.Set(dsts[dst])
			}
		}
	}
	return nil
}

func (b *remoteBackend) Commit(ctx context.Context) (uint64, error) {
	phase, res := 0, &b.resH
	if b.stage == stageVBegun {
		phase, res = 1, &b.resV
	}
	var cycles uint64
	err := b.retry(ctx, fmt.Sprintf("commit(phase %d)", phase), func(ctx context.Context) error {
		c, err := b.commitRPC(ctx, phase, res)
		cycles = c
		return err
	})
	if err != nil {
		return 0, err
	}
	if phase == 0 {
		b.stage = stageHCommitted
	} else {
		b.stage = stageVCommitted
	}
	return cycles, nil
}

func (b *remoteBackend) AdvanceIteration(context.Context) error {
	// The worker advances itself when it commits a vertex phase; the
	// coordinator just rolls its replay log over to the next iteration.
	b.iter++
	b.stage = stageIdle
	b.resH.reset()
	b.resV.reset()
	return nil
}

func (b *remoteBackend) EdgesProcessed() uint64 { return b.edges }
func (b *remoteBackend) SimPhases() int         { return b.phases }
func (b *remoteBackend) Restarts() uint64       { return b.restarts }

func (b *remoteBackend) Finish(ctx context.Context) (*engine.Result, error) {
	var res *engine.Result
	err := b.retry(ctx, "finish", func(ctx context.Context) error {
		hdr, err := json.Marshal(finishRequest{Session: b.session})
		if err != nil {
			return err
		}
		out, err := b.post(ctx, "/finish", appendHeader(nil, hdr))
		if err != nil {
			return err
		}
		rhdr, _, err := splitHeader(out)
		if err != nil {
			return err
		}
		res = &engine.Result{}
		if err := json.Unmarshal(rhdr, res); err != nil {
			return fmt.Errorf("dist: bad finish reply: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.finished = true
	return res, nil
}

func (b *remoteBackend) Close() error {
	if b.finished {
		return nil
	}
	b.finished = true
	// Best-effort release of the worker's session so an abandoned run does
	// not pin a prepared engine (and its scratch arena) in the worker
	// process until the next handshake.
	hdr, err := json.Marshal(finishRequest{Session: b.session})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), b.co.opt.StepTimeout)
	defer cancel()
	_, err = b.post(ctx, "/finish", appendHeader(nil, hdr))
	return err
}
