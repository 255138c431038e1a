// Package dist is the distributed shard runtime: each shard of a
// partitioned hypergraph runs in its own worker process (cmd/chgraph-worker)
// and the coordinator drives the same bulk-synchronous frontier merge
// barrier as the in-process runtime (engine.Drive) over an HTTP
// transport.
//
// Wire protocol (one coordinator, one worker per shard; the worker is a
// plain HTTP server):
//
//	POST /prepare   handshake: wire version, shard spec, engine options and
//	                the shard's sub-hypergraph; the worker (re)builds its
//	                engine and adopts the request's session id.
//	POST /step      begin one phase: the request carries the shard-local
//	                vertex frontier bitmap (hyperedge phases; vertex phases
//	                source from the worker-held hyperedge frontier), the
//	                response the phase's mark count and its sources.
//	POST /commit    resolve + commit: the request carries 2 bits per mark
//	                (Wrote, Activate), the response the phase's simulated
//	                duration. The coordinator builds the global next-vertex
//	                frontier from the Activate bits it sent, so no frontier
//	                comes back.
//	POST /finish    retire the engine and return its engine.Result.
//	GET  /healthz   liveness + current session id.
//
// Binary bodies are length-prefixed little-endian: a uint32 JSON header
// length, the JSON header, then the payload (the graph codec's encoding,
// bitset.Bitmap wire encoding, or packed resolutions). A /step reply has no
// header: every engine's marks are whole incidence lists of their sources,
// in order, so the worker ships each source once and the coordinator, which
// holds the same shard graph, expands its list itself. Determinism: the
// worker applies resolutions through the exact engine.Step discipline the
// in-process backend uses, and the coordinator applies HF/VF against the
// single global state in the same shard-major order, so state checksums and
// (crash-free) simulated cycles are bit-identical to shard.RunCtx.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"chgraph/internal/algorithms"
	"chgraph/internal/engine"
	"chgraph/internal/hypergraph"
	"chgraph/internal/obs"
	"chgraph/internal/sim/system"
)

// wireOptions is the JSON-serializable subset of engine.Options a worker
// needs to open an instance bit-identical to an in-process shard engine:
// the model options that vary between runs. Host-side knobs (Workers,
// Observer, Prep) deliberately stay local — they cannot change simulated
// results — and ChargePreprocess travels in prepareRequest. A header from
// a coordinator that still sends the retired model-constant fields (costs,
// chain_fifo, edge_fifo, prefetch_distance, prep_cost) decodes: JSON
// ignores unknown fields.
type wireOptions struct {
	Kind string        `json:"kind"`
	Sys  system.Config `json:"sys"`
	DMax int           `json:"d_max"`
	WMin uint32        `json:"w_min"`
}

// toWireOptions flattens resolved engine options for the handshake.
func toWireOptions(o engine.Options) wireOptions {
	return wireOptions{Kind: o.Kind.String(), Sys: o.Sys, DMax: o.DMax, WMin: o.WMin}
}

// engineOptions reconstitutes worker-side engine options; workers is the
// worker process's own host parallelism.
func (w wireOptions) engineOptions(workers int) (engine.Options, error) {
	kind, err := engine.ParseKind(w.Kind)
	if err != nil {
		return engine.Options{}, err
	}
	return engine.Options{Kind: kind, Sys: w.Sys, DMax: w.DMax, WMin: w.WMin, Workers: workers}, nil
}

// wireVersion names the /step and /commit payload formats. Both ends
// state it in the handshake and refuse a mismatch, so a worker and a
// coordinator built from different versions fail cleanly at /prepare
// instead of misreading each other's payloads.
const wireVersion = 3

// prepareRequest is the /prepare JSON header; the request payload is the
// shard's sub-hypergraph in the graph codec's encoding
// (hypergraph.AppendCompressed), the same bytes as a CHG2 file.
type prepareRequest struct {
	// Wire is the coordinator's wireVersion.
	Wire int `json:"wire"`
	// Session is the coordinator-chosen id every subsequent request must
	// echo; a worker restarted since the handshake answers 409 and the
	// coordinator re-prepares.
	Session string `json:"session"`
	// Shard is the shard index (observability only; the worker tags
	// nothing with it, the coordinator does).
	Shard int `json:"shard"`
	// Iter fast-forwards the worker's iteration counter — 0 on the initial
	// handshake, the current iteration when a crashed worker rejoins
	// mid-run (phase snapshots then carry the right iteration index).
	Iter int `json:"iter"`
	// Options configure the worker's engine; ChargePreprocess charges the
	// modelled preprocessing time right after the engine opens, exactly
	// where the in-process runtime charges it.
	Options          wireOptions `json:"options"`
	ChargePreprocess bool        `json:"charge_preprocess"`
	// Observe asks the worker to capture per-phase snapshots and return
	// them in commit replies.
	Observe bool `json:"observe"`
}

type prepareReply struct {
	// Wire is the worker's wireVersion.
	Wire int `json:"wire"`
	// PreprocessCycles is the modelled preprocessing time (0 unless
	// ChargePreprocess; the coordinator merges the max over shards).
	PreprocessCycles uint64 `json:"preprocess_cycles"`
}

// stepRequest is the /step JSON header; for hyperedge phases the payload is
// the shard-local vertex frontier bitmap.
type stepRequest struct {
	Session string `json:"session"`
	Iter    int    `json:"iter"`
	Phase   int    `json:"phase"`
}

// commitRequest is the /commit JSON header; the payload is the phase's
// resolutions (appendResolutions).
type commitRequest struct {
	Session string `json:"session"`
	Iter    int    `json:"iter"`
	Phase   int    `json:"phase"`
}

// commitReply is the /commit reply, a JSON header with no payload.
type commitReply struct {
	Cycles         uint64             `json:"cycles"`
	EdgesProcessed uint64             `json:"edges_processed"`
	SimPhases      int                `json:"sim_phases"`
	Snap           *obs.PhaseSnapshot `json:"snap,omitempty"`
}

type finishRequest struct {
	Session string `json:"session"`
}

type healthReply struct {
	Session string `json:"session"`
	Iter    int    `json:"iter"`
}

// appendHeader appends a length-prefixed JSON header.
func appendHeader(dst, hdr []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(hdr)))
	return append(dst, hdr...)
}

// splitHeader splits a length-prefixed JSON header off the front of body.
func splitHeader(body []byte) (hdr, payload []byte, err error) {
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("dist: truncated header length (%d bytes)", len(body))
	}
	n := int(binary.LittleEndian.Uint32(body))
	body = body[4:]
	if len(body) < n {
		return nil, nil, fmt.Errorf("dist: truncated header (want %d bytes, have %d)", n, len(body))
	}
	return body[:n], body[n:], nil
}

// maxRejoinIter bounds prepareRequest.Iter: the worker fast-forwards its
// engine one iteration at a time, so an absurd value would hold the worker
// for as long as the loop runs.
const maxRejoinIter = 1 << 24

// decodePrepare splits a /prepare body into its JSON header and its shard
// graph, which the worker's engine runs as decoded.
func decodePrepare(body []byte) (prepareRequest, *hypergraph.Bipartite, error) {
	var req prepareRequest
	hdr, payload, err := splitHeader(body)
	if err != nil {
		return req, nil, err
	}
	if err := json.Unmarshal(hdr, &req); err != nil {
		return req, nil, fmt.Errorf("dist: bad prepare header: %v", err)
	}
	if req.Session == "" {
		return req, nil, fmt.Errorf("dist: prepare without session id")
	}
	if req.Iter < 0 || req.Iter > maxRejoinIter {
		return req, nil, fmt.Errorf("dist: prepare at iteration %d outside [0, %d]", req.Iter, maxRejoinIter)
	}
	g, err := hypergraph.DecodeCompressed(payload)
	if err != nil {
		return req, nil, fmt.Errorf("dist: shard graph: %w", err)
	}
	return req, g, nil
}

// appendSources appends a /step reply: the phase's mark count, then the
// source of each run of marks as the zigzag delta from the previous source,
// all varints. Every engine's marks are whole incidence lists of their
// sources, in order (engine/phase.go), so one source stands for its deg(src)
// marks; deg gives the phase's source degrees. A run of marks that is not
// one source's whole list breaks that engine invariant and panics.
func appendSources(dst []byte, n int, mark func(i int) (uint32, uint32), deg func(uint32) uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	var prev uint32
	for i := 0; i < n; {
		src, _ := mark(i)
		end := i + int(deg(src))
		if end <= i || end > n {
			panic(fmt.Sprintf("dist: marks %d..%d cannot hold source %d's incidence list of %d", i, n, src, deg(src)))
		}
		for ; i < end; i++ {
			if s, _ := mark(i); s != src {
				panic(fmt.Sprintf("dist: mark %d has source %d inside source %d's incidence list", i, s, src))
			}
		}
		dst = hypergraph.AppendDelta(dst, prev, src)
		prev = src
	}
	return dst
}

// phaseSources returns the source side of phase on g: its element count,
// each element's degree and its incidence lists. Hyperedge phases (0)
// source from vertices, vertex phases (1) from hyperedges.
func phaseSources(g *hypergraph.Bipartite, phase int) (uint32, func(uint32) uint32, *hypergraph.PackedAdj) {
	if phase == 1 {
		return g.NumHyperedges(), g.HyperedgeDegree, g.PackedH()
	}
	return g.NumVertices(), g.VertexDegree, g.PackedV()
}

// decodeSources reverses appendSources into into (reused), checking the
// reply against the coordinator's copy of the shard: every source must be
// below numSrc, and the sources' degrees must add up to the stated mark
// count. It returns the sources and the mark count. A reply failing either
// check is a protocolError.
func decodeSources(data []byte, into []uint32, numSrc uint32, deg func(uint32) uint32) ([]uint32, int, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, 0, fmt.Errorf("dist: truncated mark count")
	}
	data = data[k:]
	into = into[:0]
	var prev uint32
	var marks uint64
	for len(data) > 0 {
		id, k := hypergraph.ReadDelta(data, prev)
		if k <= 0 {
			return nil, 0, fmt.Errorf("dist: truncated source %d", len(into))
		}
		data = data[k:]
		if id < 0 || id >= int64(numSrc) {
			return nil, 0, &protocolError{fmt.Sprintf("dist: mark source %d is %d, outside the shard's %d", len(into), id, numSrc)}
		}
		prev = uint32(id)
		if marks += uint64(deg(prev)); marks > n {
			return nil, 0, &protocolError{fmt.Sprintf("dist: mark count %d, but the sources' incidence lists hold more", n)}
		}
		into = append(into, prev)
	}
	if marks != n {
		return nil, 0, &protocolError{fmt.Sprintf("dist: mark count %d, but the sources' incidence lists hold %d", n, marks)}
	}
	return into, int(n), nil
}

// protocolError is a worker reply that contradicts the coordinator: a
// /step source the shard does not have, sources whose incidence lists do
// not add up to the stated mark count, or a handshake from another wire
// version. The two ends disagree about the shard or the protocol, so no
// retry can fix it.
type protocolError struct{ msg string }

func (e *protocolError) Error() string { return e.msg }

// resolutionBits are the EdgeResult bits a worker needs from the
// coordinator: whether to stitch the destination value write, and whether
// the destination may join the next frontier.
const resolutionBits = algorithms.Wrote | algorithms.Activate

// resolutions packs a phase's EdgeResults at 2 bits per mark, four marks to
// a byte, low bits first.
type resolutions struct {
	n    int
	bits []byte
}

func (r *resolutions) reset() { r.n, r.bits = 0, r.bits[:0] }

func (r *resolutions) add(e algorithms.EdgeResult) {
	if r.n%4 == 0 {
		r.bits = append(r.bits, 0)
	}
	r.bits[len(r.bits)-1] |= byte(e&resolutionBits) << (2 * (r.n % 4))
	r.n++
}

// at returns mark i's resolution.
func (r *resolutions) at(i int) algorithms.EdgeResult {
	return algorithms.EdgeResult(r.bits[i/4]>>(2*(i%4))) & resolutionBits
}

// appendResolutions appends the /commit payload: a uint32 mark count and
// the packed bits.
func appendResolutions(dst []byte, r *resolutions) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.n))
	return append(dst, r.bits...)
}

// decodeResolutions reverses appendResolutions; the result aliases data.
// The payload length must be exact and the last byte's unused bits zero, so
// a body of another wire version cannot pass.
func decodeResolutions(data []byte) (resolutions, error) {
	if len(data) < 4 {
		return resolutions{}, fmt.Errorf("dist: truncated resolution count")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if want := (uint64(n) + 3) / 4; uint64(len(data)) != want {
		return resolutions{}, fmt.Errorf("dist: %d resolution bytes for %d marks, want %d", len(data), n, want)
	}
	if n%4 != 0 && data[len(data)-1]>>(2*(n%4)) != 0 {
		return resolutions{}, fmt.Errorf("dist: resolution padding bits set")
	}
	return resolutions{n: n, bits: data}, nil
}
