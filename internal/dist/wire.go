// Package dist is the distributed shard runtime: each shard of a
// partitioned hypergraph runs in its own worker process (cmd/chgraph-worker)
// and the coordinator drives the same bulk-synchronous frontier merge
// barrier as the in-process runtime (shard.RunBarrier) over an HTTP
// transport.
//
// Wire protocol (one coordinator, one worker per shard; the worker is a
// plain HTTP server):
//
//	POST /prepare   handshake: shard spec + engine options + the shard's
//	                sub-hypergraph; the worker (re)builds its engine and
//	                adopts the request's session id.
//	POST /step      begin one phase: the request carries the shard-local
//	                vertex frontier bitmap (hyperedge phases; vertex phases
//	                source from the worker-held hyperedge frontier), the
//	                response the compiled marks.
//	POST /commit    resolve + commit: the request carries one EdgeResult
//	                byte per mark, the response the phase's simulated
//	                duration and — after vertex phases — the shard-local
//	                next-vertex frontier bitmap for the coordinator's
//	                OR-merge.
//	POST /finish    retire the engine and return its engine.Result.
//	GET  /healthz   liveness + current session id.
//
// Binary bodies are length-prefixed little-endian: a uint32 JSON header
// length, the JSON header, then the payload (the graph codec's encoding,
// bitset.Bitmap wire encoding, packed uint32 mark pairs, or raw EdgeResult
// bytes). Determinism: the worker applies resolutions through the exact
// engine.Step discipline the in-process backend uses, and the coordinator
// applies HF/VF against the single global state in the same shard-major
// order, so state checksums and (crash-free) simulated cycles are
// bit-identical to shard.RunCtx.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

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

// prepareRequest is the /prepare JSON header; the request payload is the
// shard's sub-hypergraph in the graph codec's encoding
// (hypergraph.AppendCompressed), the same bytes as a CHG2 file.
type prepareRequest struct {
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

// commitRequest is the /commit JSON header; the payload is a uint32 count
// followed by one EdgeResult byte per mark, in mark order.
type commitRequest struct {
	Session string `json:"session"`
	Iter    int    `json:"iter"`
	Phase   int    `json:"phase"`
}

// commitReply is the /commit JSON header; after vertex phases the payload
// is the shard-local next-vertex frontier bitmap.
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

// appendMarks appends the packed mark pairs of a compiled step: a uint32
// count then (src, dst) uint32 pairs in mark order.
func appendMarks(dst []byte, n int, mark func(i int) (uint32, uint32)) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for i := 0; i < n; i++ {
		s, d := mark(i)
		dst = binary.LittleEndian.AppendUint32(dst, s)
		dst = binary.LittleEndian.AppendUint32(dst, d)
	}
	return dst
}

// decodeMarks reverses appendMarks into an interleaved (src, dst) slice.
// Every src id must be below numSrc and every dst id below numDst, the
// shard-local counts of the phase's source and destination sides; a mark
// outside them is a markRangeError.
func decodeMarks(data []byte, into []uint32, numSrc, numDst uint32) ([]uint32, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("dist: truncated mark count")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data)/8 < n {
		return nil, fmt.Errorf("dist: truncated marks (want %d pairs, have %d bytes)", n, len(data))
	}
	into = into[:0]
	for i := 0; i < n; i++ {
		src, dst := binary.LittleEndian.Uint32(data[8*i:]), binary.LittleEndian.Uint32(data[8*i+4:])
		if src >= numSrc || dst >= numDst {
			return nil, &markRangeError{i, src, dst, numSrc, numDst}
		}
		into = append(into, src, dst)
	}
	return into, nil
}

// markRangeError is a mark naming an element the shard does not have. The
// worker and the coordinator disagree about the shard, so no retry can fix
// it.
type markRangeError struct {
	i              int
	src, dst       uint32
	numSrc, numDst uint32
}

func (e *markRangeError) Error() string {
	return fmt.Sprintf("dist: mark %d is (%d, %d), outside the shard's %d x %d", e.i, e.src, e.dst, e.numSrc, e.numDst)
}

// appendResolutions appends the resolution payload: uint32 count + one
// EdgeResult byte per mark.
func appendResolutions(dst, res []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(res)))
	return append(dst, res...)
}

// decodeResolutions reverses appendResolutions.
func decodeResolutions(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("dist: truncated resolution count")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) < n {
		return nil, fmt.Errorf("dist: truncated resolutions (want %d, have %d)", n, len(data))
	}
	return data[:n], nil
}
