// Packed adjacency (delta/varint CSR): the one in-memory form of a
// Bipartite's incidence lists. The incidence arrays dominate the bipartite
// CSR's footprint, and their entries are small deltas once adjacency is
// sorted, so PackedAdj stores each list as zigzag(delta) LEB128 varints with
// a block table for random access. The entry-offset arrays (hOff/vOff) stay
// uncompressed: the engines model incidence-array addresses from logical CSR
// entry indexes (offset + position), which the encoding never changes, so
// the simulated address stream is that of the paper's plain CSR.
//
// Readers take one of two paths (DESIGN.md §17):
//
//   - streaming: an AdjCursor decodes one list at a time into a grow-only
//     owned buffer. The engine parks one cursor per direction in each core's
//     reuse arena, so steady-state iteration stays allocation-free (the §13
//     arena rules); index-order passes such as partitioning use one too. A
//     List result is valid only until the cursor's next List call.
//   - decode-once: bulk builders that read every list, often out of order
//     (OAG construction, shard materialization, the oracles), call Unpack
//     for a transient flat array, use it for the build and drop it.
//
// PackedAdj is immutable after construction.
package hypergraph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
)

// packBlock is the block-table granularity: the byte offset of every
// packBlock-th list's first varint is stored, so random access skips at
// most packBlock-1 lists' worth of varints.
const packBlock = 64

// PackedAdj is one incidence direction: each list's entries are encoded as
// zigzag(delta) LEB128 varints (delta against the previous entry, starting
// from 0 at each list head). off is the uncompressed CSR entry-offset array
// (aliasing the owning Bipartite's hOff or vOff); blk holds the data byte
// offset of every packBlock-th list. sorted records that every list is in
// ascending order, so SortAdjacency can skip the re-pack.
type PackedAdj struct {
	off    []uint32
	blk    []uint32
	data   []byte
	sorted bool
}

// zigzag maps the delta from prev to v onto an unsigned varint value.
func zigzag(prev, v uint32) uint64 {
	delta := int64(v) - int64(prev)
	return uint64(delta<<1) ^ uint64(delta>>63)
}

// AppendDelta appends v as the zigzag LEB128 varint of its delta from prev:
// the entry encoding of every packed incidence list, and of any other id
// sequence that travels in this form (the dist /step source list).
func AppendDelta(dst []byte, prev, v uint32) []byte {
	return binary.AppendUvarint(dst, zigzag(prev, v))
}

// ReadDelta decodes one AppendDelta entry from the front of data against
// prev. It returns the id as an int64, so a caller can range-check a
// hostile value before narrowing it, and the bytes consumed, which is <= 0
// when data holds no complete varint of at most 64 bits.
func ReadDelta(data []byte, prev uint32) (id int64, n int) {
	uz, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, n
	}
	return int64(prev) + (int64(uz>>1) ^ -int64(uz&1)), n
}

// packAdjacency encodes one CSR side. off is retained by reference; adj is
// only read. A sizing pass first makes the payload allocation exact.
func packAdjacency(off, adj []uint32) *PackedAdj {
	n := len(off) - 1
	p := &PackedAdj{off: off, sorted: true}
	size := 0
	for i := 0; i < n; i++ {
		var prev uint32
		for _, v := range adj[off[i]:off[i+1]] {
			if v < prev {
				p.sorted = false
			}
			size += varintLen(zigzag(prev, v))
			prev = v
		}
	}
	if n > 0 {
		p.blk = make([]uint32, (n+packBlock-1)/packBlock)
	}
	p.data = make([]byte, 0, size)
	for i := 0; i < n; i++ {
		if i%packBlock == 0 {
			p.blk[i/packBlock] = uint32(len(p.data))
		}
		var prev uint32
		for _, v := range adj[off[i]:off[i+1]] {
			p.data = AppendDelta(p.data, prev, v)
			prev = v
		}
	}
	return p
}

// varintLen returns the LEB128 encoded length of x.
func varintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// NumLists returns the number of encoded lists.
func (p *PackedAdj) NumLists() int { return len(p.off) - 1 }

// start returns the data byte offset of list i's first varint: seek to the
// enclosing block's start, then skip the intervening lists' entries.
func (p *PackedAdj) start(i int) int {
	return p.skip(int(p.blk[i/packBlock]), int(p.off[i]-p.off[i&^(packBlock-1)]))
}

// skip returns the byte offset n varints past pos. Each varint ends in one
// terminator byte (high bit clear), so it counts terminators, a word at a
// time while more than eight remain: a word then holds fewer than n, so its
// trailing continuation bytes belong to a varint that is skipped too.
func (p *PackedAdj) skip(pos, n int) int {
	data := p.data
	for n > 8 && pos+8 <= len(data) {
		n -= 8 - bits.OnesCount64(binary.LittleEndian.Uint64(data[pos:])&0x8080808080808080)
		pos += 8
	}
	for n > 0 {
		if data[pos]&0x80 == 0 {
			n--
		}
		pos++
	}
	return pos
}

// decodeFrom decodes n entries starting at data[pos] into dst (which must
// have length n), returning the byte position after the last varint.
func (p *PackedAdj) decodeFrom(pos, n int, dst []uint32) int {
	data := p.data
	dst = dst[:n]
	var prev uint32
	for k := range dst {
		uz := uint64(data[pos])
		pos++
		if uz >= 0x80 {
			// Multi-byte varint (payloads are validated at decode time).
			uz &= 0x7f
			for shift := uint(7); ; shift += 7 {
				b := data[pos]
				pos++
				uz |= uint64(b&0x7f) << shift
				if b < 0x80 {
					break
				}
			}
		}
		// zigzag decode, added in uint32 arithmetic (wraps like int64).
		prev += uint32(uz>>1) ^ -uint32(uz&1)
		dst[k] = prev
	}
	return pos
}

// decodeList decodes list i into a fresh slice: the allocation-per-call
// path behind IncidentVertices/IncidentHyperedges. Hot paths use an
// AdjCursor instead.
func (p *PackedAdj) decodeList(i uint32) []uint32 {
	dst := make([]uint32, p.off[i+1]-p.off[i])
	p.decodeFrom(p.start(int(i)), len(dst), dst)
	return dst
}

// Unpacked is one incidence side decoded into a single flat array, the
// offsets shared with its PackedAdj: the decode-once form for builders that
// read every list, often out of order. It holds 4 bytes per entry, so it is
// built for one bulk pass and then dropped.
type Unpacked struct {
	off, adj []uint32
}

// Unpack decodes every list of p in one sequential pass.
func (p *PackedAdj) Unpack() Unpacked {
	n := p.NumLists()
	u := Unpacked{off: p.off, adj: make([]uint32, p.off[n])}
	pos := 0
	for i := 0; i < n; i++ {
		pos = p.decodeFrom(pos, int(p.off[i+1]-p.off[i]), u.adj[p.off[i]:p.off[i+1]])
	}
	return u
}

// List returns list i. The slice aliases the flat array and is capped at
// its own end, so an append by the caller cannot overwrite list i+1; it
// must not be modified.
func (u Unpacked) List(i uint32) []uint32 {
	return u.adj[u.off[i]:u.off[i+1]:u.off[i+1]]
}

// sortLists returns p with every list in ascending order: p itself when the
// encode or decode walk found it sorted already, else a re-pack of the
// sorted lists over the same offsets.
func (p *PackedAdj) sortLists() *PackedAdj {
	if p.sorted {
		return p
	}
	u := p.Unpack()
	for i := 0; i < p.NumLists(); i++ {
		slices.Sort(u.adj[u.off[i]:u.off[i+1]])
	}
	return packAdjacency(p.off, u.adj)
}

// NewCursor returns a streaming cursor over p positioned at list 0.
func (p *PackedAdj) NewCursor() *AdjCursor {
	c := &AdjCursor{}
	c.Bind(p)
	return c
}

// AdjCursor is a streaming decoder over one PackedAdj. Sequential List
// calls (index-ordered passes) resume at the cached byte position, a call
// further ahead in the same block skips on from it, and any other call
// (chain-ordered compiles) pays a block seek. The cursor owns its decode
// buffer — List's result is valid until the next List call — and a cursor
// must not be shared between goroutines (the engine keeps one per direction
// per core).
type AdjCursor struct {
	p    *PackedAdj
	buf  []uint32
	next int // list index pos refers to
	pos  int // byte offset of list next's first varint
}

// Bind points the cursor at p, keeping the decode buffer. Binding the
// cursor it already holds is a cheap reset to list 0.
func (c *AdjCursor) Bind(p *PackedAdj) {
	c.p, c.next, c.pos = p, 0, 0
}

// List decodes list i. The returned slice aliases the cursor's buffer and
// is valid until the next List call.
func (c *AdjCursor) List(i uint32) []uint32 {
	p := c.p
	n := int(p.off[i+1] - p.off[i])
	switch {
	case int(i) == c.next:
	case int(i) > c.next && int(i)/packBlock == c.next/packBlock:
		// Forward in the same block: skip on from here, not the block head.
		c.pos = p.skip(c.pos, int(p.off[i]-p.off[c.next]))
	default:
		c.pos = p.start(int(i))
	}
	if cap(c.buf) < n {
		// Doubling keeps a cursor's lifetime growth to a few allocations.
		c.buf = make([]uint32, max(n, 2*cap(c.buf), 16))
	}
	buf := c.buf[:n]
	c.pos = p.decodeFrom(c.pos, n, buf)
	c.next = int(i) + 1
	return buf
}

// PackedH returns the hyperedge-side incidence (incident vertices).
func (g *Bipartite) PackedH() *PackedAdj { return g.h }

// PackedV returns the vertex-side incidence (incident hyperedges).
func (g *Bipartite) PackedV() *PackedAdj { return g.v }

// AdjacencyBytes returns the in-memory footprint of the adjacency
// structure alone (offset arrays + varint payloads + block tables),
// excluding the per-element value slots — the quantity the bytes_per_edge
// bench metric and its CI gate track.
func (g *Bipartite) AdjacencyBytes() uint64 {
	n := 4 * uint64(len(g.hOff)+len(g.vOff))
	n += 4 * uint64(len(g.h.blk)+len(g.v.blk))
	return n + uint64(len(g.h.data)+len(g.v.data))
}

// The graph codec: the one serialization of a Bipartite. Files
// (WriteBinary), registry uploads and the dist /prepare payload all carry
// these bytes:
//
//	"CHG2" magic, u32 numV, u32 numH, u8 flags (bit0 = directed)
//	h side: per-list uvarint degree ×numH, u32 dataLen, data
//	v side: per-list uvarint degree ×numV, u32 dataLen, data
//
// The varint payload is copied verbatim in both directions, so
// encode→decode→encode is byte-identical (the property FuzzCompressedCodec
// pins).

// codecMagic heads every encoding.
var codecMagic = []byte("CHG2")

// AppendCompressed appends g's encoding to dst: the held varint payloads,
// verbatim.
func AppendCompressed(dst []byte, g *Bipartite) []byte {
	dst = append(dst, codecMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, g.numV)
	dst = binary.LittleEndian.AppendUint32(dst, g.numH)
	var flags byte
	if g.directed {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = appendPackedSide(dst, g.h)
	return appendPackedSide(dst, g.v)
}

func appendPackedSide(dst []byte, p *PackedAdj) []byte {
	for i := 0; i < p.NumLists(); i++ {
		dst = binary.AppendUvarint(dst, uint64(p.off[i+1]-p.off[i]))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.data)))
	return append(dst, p.data...)
}

// DecodeCompressed reverses AppendCompressed, validating structure as it
// goes: degrees and payload lengths must be consistent, every varint must
// terminate inside the payload, every decoded id must be in range for its
// side, and an undirected graph's vertex side must mirror its hyperedge
// side. The graph holds a copy of the payload as it is; lists stay in
// encoded order (the validation walk records whether they are sorted).
func DecodeCompressed(data []byte) (*Bipartite, error) {
	if len(data) < 13 {
		return nil, fmt.Errorf("hypergraph: truncated compressed header (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:4], codecMagic) {
		return nil, fmt.Errorf("hypergraph: bad magic %q", data[:4])
	}
	numV := binary.LittleEndian.Uint32(data[4:])
	numH := binary.LittleEndian.Uint32(data[8:])
	flags := data[12]
	if flags > 1 {
		return nil, fmt.Errorf("hypergraph: unknown compressed flags %#x", flags)
	}
	data = data[13:]
	g := &Bipartite{numV: numV, numH: numH, directed: flags&1 != 0}
	var err error
	if g.hOff, g.h, data, err = decodePackedSide(data, numH, numV); err != nil {
		return nil, fmt.Errorf("hypergraph: hyperedge side: %w", err)
	}
	if g.vOff, g.v, data, err = decodePackedSide(data, numV, numH); err != nil {
		return nil, fmt.Errorf("hypergraph: vertex side: %w", err)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("hypergraph: %d trailing bytes after compressed graph", len(data))
	}
	if err := g.checkMirror(g.h.NewCursor().List, g.v.NewCursor().List); err != nil {
		return nil, err
	}
	return g, nil
}

// checkMirror verifies that an undirected graph's vertex side holds
// exactly the (h, v) incidences of its hyperedge side, with multiplicity,
// in O(E) and without a map: the hyperedge side is bucketed by vertex (a
// counting-sort transpose into the slots vOff lays out, so an over-full
// bucket is a degree mismatch), then each vertex's list is tallied against
// its bucket. hList and vList read the two sides, whose ids the caller has
// range-checked. A directed graph's sides are independent; it passes.
func (g *Bipartite) checkMirror(hList, vList func(uint32) []uint32) error {
	if g.directed {
		return nil
	}
	if g.hOff[g.numH] != g.vOff[g.numV] {
		return fmt.Errorf("hypergraph: bipartite edge count asymmetric (%d vs %d)", g.hOff[g.numH], g.vOff[g.numV])
	}
	next := append([]uint32(nil), g.vOff[:g.numV]...)
	byV := make([]uint32, g.vOff[g.numV])
	for h := uint32(0); h < g.numH; h++ {
		for _, v := range hList(h) {
			if next[v] == g.vOff[v+1] {
				return fmt.Errorf("hypergraph: vertex %d has more incidences on the hyperedge side than its degree %d", v, g.VertexDegree(v))
			}
			byV[next[v]] = h
			next[v]++
		}
	}
	tally := make([]uint32, g.numH)
	for v := uint32(0); v < g.numV; v++ {
		for _, h := range byV[g.vOff[v]:g.vOff[v+1]] {
			tally[h]++
		}
		// Both lists have deg(v) entries, so matching every vertex-side
		// entry leaves the tally at zero for the next vertex.
		for _, h := range vList(v) {
			if tally[h] == 0 {
				return fmt.Errorf("hypergraph: incidence (%d,%d) asymmetric", h, v)
			}
			tally[h]--
		}
	}
	return nil
}

// decodePackedSide consumes one side's encoding: n uvarint degrees, a u32
// payload length, and the payload, whose varint stream it walks once to
// rebuild the block table and bound-check every decoded id against maxID.
func decodePackedSide(data []byte, n, maxID uint32) (off []uint32, p *PackedAdj, rest []byte, err error) {
	// Every degree costs at least one varint byte, so n > len(data) cannot
	// be well-formed; checking first bounds the offset allocation.
	if uint64(n) > uint64(len(data)) {
		return nil, nil, nil, fmt.Errorf("%d lists overrun %d-byte body: %w", n, len(data), io.ErrUnexpectedEOF)
	}
	off = make([]uint32, n+1)
	var total uint64
	for i := uint32(0); i < n; i++ {
		deg, k := binary.Uvarint(data)
		if k <= 0 {
			return nil, nil, nil, fmt.Errorf("truncated degree %d", i)
		}
		data = data[k:]
		off[i] = uint32(total)
		total += deg
		if total > uint64(n)*uint64(maxID)+1 || total > 1<<32-1 {
			return nil, nil, nil, fmt.Errorf("degree sum overruns (%d)", total)
		}
	}
	off[n] = uint32(total)
	if len(data) < 4 {
		return nil, nil, nil, fmt.Errorf("truncated payload length")
	}
	dataLen := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if dataLen > len(data) {
		return nil, nil, nil, fmt.Errorf("payload overruns body (%d > %d): %w", dataLen, len(data), io.ErrUnexpectedEOF)
	}
	p = &PackedAdj{off: off, data: append([]byte(nil), data[:dataLen]...), sorted: true}
	if n > 0 {
		p.blk = make([]uint32, (int(n)+packBlock-1)/packBlock)
	}
	// Single validation walk: rebuild the block table, check every decoded
	// id exactly as a cursor will see them, and note any descending step.
	pos := 0
	var entry uint32
	for i := uint32(0); i < n; i++ {
		if i%packBlock == 0 {
			p.blk[i/packBlock] = uint32(pos)
		}
		var prev uint32
		for k := off[i]; k < off[i+1]; k++ {
			id, w := ReadDelta(p.data[pos:], prev)
			if w <= 0 {
				return nil, nil, nil, fmt.Errorf("varint overruns payload or 64 bits in list %d", i)
			}
			pos += w
			if id < 0 || id >= int64(maxID) {
				return nil, nil, nil, fmt.Errorf("entry %d of list %d out of range (%d, max %d)", entry, i, id, maxID)
			}
			if id < int64(prev) {
				p.sorted = false
			}
			prev = uint32(id)
			entry++
		}
	}
	if pos != dataLen {
		return nil, nil, nil, fmt.Errorf("%d payload bytes beyond the last list", dataLen-pos)
	}
	return off, p, data[dataLen:], nil
}
