// Compressed adjacency (delta/varint CSR). The ROADMAP's raw-speed item
// calls for the big synthetic recipes to fit hotter in cache: the incidence
// arrays dominate the bipartite CSR's footprint, and their entries are
// small deltas once adjacency is sorted. PackedAdj stores each incidence
// list as zigzag(delta) LEB128 varints with a block table for random
// access; the entry-offset arrays (hOff/vOff) are kept uncompressed, which
// is what makes compressed execution bit-identical to raw execution — the
// engines model incidence-array addresses from logical CSR entry indexes
// (offset + position), and those indexes never change, only the bytes
// backing the values.
//
// Ownership and pooling (DESIGN.md §17): PackedAdj is immutable after
// construction. All decoding goes through AdjCursor, whose scratch buffer
// grows to the longest list it has seen and is then reused forever — the
// engine parks one cursor per direction in each core's reuse arena, so
// steady-state iteration stays allocation-free (the §13 arena rules).
// Slices returned by AdjCursor.List are valid only until the cursor's next
// List call.
package hypergraph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// packBlock is the block-table granularity: the byte offset of every
// packBlock-th list's first varint is stored, so random access skips at
// most packBlock-1 lists' worth of varints.
const packBlock = 64

// PackedAdj is one compressed incidence direction: each list's entries are
// encoded as zigzag(delta) LEB128 varints (delta against the previous entry,
// starting from 0 at each list head). off is the uncompressed CSR
// entry-offset array (aliasing the owning Bipartite's hOff or vOff); blk
// holds the data byte offset of every packBlock-th list.
type PackedAdj struct {
	off  []uint32
	blk  []uint32
	data []byte
}

// packAdjacency compresses one CSR side. off is retained by reference.
func packAdjacency(off, adj []uint32) *PackedAdj {
	n := len(off) - 1
	p := &PackedAdj{off: off}
	if n > 0 {
		p.blk = make([]uint32, (n+packBlock-1)/packBlock)
	}
	p.data = make([]byte, 0, len(adj)*2)
	for i := 0; i < n; i++ {
		if i%packBlock == 0 {
			p.blk[i/packBlock] = uint32(len(p.data))
		}
		var prev uint32
		for _, v := range adj[off[i]:off[i+1]] {
			delta := int64(v) - int64(prev)
			uz := uint64(delta<<1) ^ uint64(delta>>63)
			for uz >= 0x80 {
				p.data = append(p.data, byte(uz)|0x80)
				uz >>= 7
			}
			p.data = append(p.data, byte(uz))
			prev = v
		}
	}
	return p
}

// NumLists returns the number of encoded lists.
func (p *PackedAdj) NumLists() int { return len(p.off) - 1 }

// DataBytes returns the size of the varint payload.
func (p *PackedAdj) DataBytes() int { return len(p.data) }

// start returns the data byte offset of list i's first varint: seek to the
// enclosing block's start, then skip the intervening lists' varints (one
// terminator byte — high bit clear — per entry).
func (p *PackedAdj) start(i int) int {
	pos := int(p.blk[i/packBlock])
	skip := int(p.off[i] - p.off[i&^(packBlock-1)])
	data := p.data
	for skip > 0 {
		if data[pos]&0x80 == 0 {
			skip--
		}
		pos++
	}
	return pos
}

// decodeFrom decodes n entries starting at data[pos] into dst (which must
// have length n), returning the byte position after the last varint.
func (p *PackedAdj) decodeFrom(pos, n int, dst []uint32) int {
	data := p.data
	var prev uint32
	for k := 0; k < n; k++ {
		var uz uint64
		var shift uint
		for {
			b := data[pos]
			pos++
			uz |= uint64(b&0x7f) << shift
			if b&0x80 == 0 {
				break
			}
			shift += 7
		}
		delta := int64(uz>>1) ^ -int64(uz&1)
		prev = uint32(int64(prev) + delta)
		dst[k] = prev
	}
	return pos
}

// decodeList decodes list i into a fresh (or supplied) slice. It is the
// allocation-per-call fallback behind the plain accessors of a compressed
// graph; hot paths use an AdjCursor instead.
func (p *PackedAdj) decodeList(i uint32, dst []uint32) []uint32 {
	n := int(p.off[i+1] - p.off[i])
	if cap(dst) < n {
		dst = make([]uint32, n)
	}
	dst = dst[:n]
	p.decodeFrom(p.start(int(i)), n, dst)
	return dst
}

// NewCursor returns a streaming cursor over p positioned at list 0.
func (p *PackedAdj) NewCursor() *AdjCursor {
	c := &AdjCursor{}
	c.Bind(p)
	return c
}

// AdjCursor is a streaming decoder over one PackedAdj. Sequential List
// calls (the engines' chain-compile order) resume at the cached byte
// position; out-of-order calls pay a block seek. The cursor owns its decode
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
	if int(i) != c.next {
		c.pos = p.start(int(i))
	}
	if cap(c.buf) < n {
		c.buf = make([]uint32, n)
	}
	buf := c.buf[:n]
	c.pos = p.decodeFrom(c.pos, n, buf)
	c.next = int(i) + 1
	return buf
}

// packedPair is the lazily built pack cache hanging off a Bipartite; a
// pointer so Bipartite stays copyable (go vet copylocks).
type packedPair struct {
	mu   sync.Mutex
	h, v *PackedAdj
}

// Compressed reports whether g is compressed-only: the raw incidence
// arrays are absent and every access decodes the packed form. Raw graphs
// that merely cached a packed form (EnsurePacked) report false — their
// plain accessors still serve raw slices.
func (g *Bipartite) Compressed() bool { return g.hAdj == nil && g.pack != nil && g.pack.h != nil }

// EnsurePacked builds (and caches) the packed forms of both incidence
// directions. Safe for concurrent use; a no-op when already packed.
func (g *Bipartite) EnsurePacked() {
	if g.pack == nil {
		// Zero-built value (package-internal only); no cache to share.
		g.pack = &packedPair{}
	}
	g.pack.mu.Lock()
	defer g.pack.mu.Unlock()
	if g.pack.h == nil {
		g.pack.h = packAdjacency(g.hOff, g.hAdj)
		g.pack.v = packAdjacency(g.vOff, g.vAdj)
	}
}

// PackedH returns the packed hyperedge-side incidence (incident vertices).
// Callers must have established packing via EnsurePacked, Compress or
// DecodeCompressed.
func (g *Bipartite) PackedH() *PackedAdj { return g.pack.h }

// PackedV returns the packed vertex-side incidence (incident hyperedges).
func (g *Bipartite) PackedV() *PackedAdj { return g.pack.v }

// Compress returns the compressed-only form of g: same counts, direction
// and entry-offset arrays (shared, not copied), with the incidence lists
// held solely as packed varint data. This is the form whose footprint
// AdjacencyBytes measures. g itself is unchanged (it gains a pack cache);
// do not call SortAdjacency on g afterwards while holding the compressed
// view — re-sorting raw adjacency invalidates the shared packed data, so
// SortAdjacency drops g's own cache but cannot see views already handed
// out.
func (g *Bipartite) Compress() *Bipartite {
	if g.Compressed() {
		return g
	}
	g.EnsurePacked()
	return &Bipartite{
		numV: g.numV, numH: g.numH,
		hOff: g.hOff, vOff: g.vOff,
		directed: g.directed,
		pack:     &packedPair{h: g.pack.h, v: g.pack.v},
	}
}

// Decompress materializes the raw incidence arrays from a compressed graph
// (offset arrays shared). A raw graph is returned unchanged.
func (g *Bipartite) Decompress() *Bipartite {
	if !g.Compressed() {
		return g
	}
	out := &Bipartite{
		numV: g.numV, numH: g.numH,
		hOff: g.hOff, vOff: g.vOff,
		directed: g.directed,
		pack:     &packedPair{},
	}
	out.hAdj = unpackAdjacency(g.pack.h)
	out.vAdj = unpackAdjacency(g.pack.v)
	return out
}

// unpackAdjacency decodes every list of p into one flat array.
func unpackAdjacency(p *PackedAdj) []uint32 {
	n := p.NumLists()
	out := make([]uint32, p.off[n])
	pos := 0
	for i := 0; i < n; i++ {
		pos = p.decodeFrom(pos, int(p.off[i+1]-p.off[i]), out[p.off[i]:p.off[i+1]])
	}
	return out
}

// AdjacencyBytes returns the in-memory footprint of the adjacency
// structure alone (offset arrays + incidence storage + block tables),
// excluding the per-element value slots — the quantity the bytes_per_edge
// bench metric and its CI gate track.
func (g *Bipartite) AdjacencyBytes() uint64 {
	n := 4 * uint64(len(g.hOff)+len(g.vOff))
	if g.Compressed() {
		n += 4 * uint64(len(g.pack.h.blk)+len(g.pack.v.blk))
		n += uint64(len(g.pack.h.data) + len(g.pack.v.data))
		return n
	}
	return n + 4*uint64(len(g.hAdj)+len(g.vAdj))
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

// codecMagic heads every encoding; ReadBinary also accepts the legacy
// "CHG1" raw layout (io.go).
var codecMagic = []byte("CHG2")

// AppendCompressed appends g's encoding to dst. A raw graph is encoded
// from a temporary pack, never cached on g.
func AppendCompressed(dst []byte, g *Bipartite) []byte {
	var h, v *PackedAdj
	if g.Compressed() {
		h, v = g.pack.h, g.pack.v
	} else {
		h, v = packAdjacency(g.hOff, g.hAdj), packAdjacency(g.vOff, g.vAdj)
	}
	dst = append(dst, codecMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, g.numV)
	dst = binary.LittleEndian.AppendUint32(dst, g.numH)
	var flags byte
	if g.directed {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = appendPackedSide(dst, h)
	return appendPackedSide(dst, v)
}

func appendPackedSide(dst []byte, p *PackedAdj) []byte {
	for i := 0; i < p.NumLists(); i++ {
		dst = binary.AppendUvarint(dst, uint64(p.off[i+1]-p.off[i]))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.data)))
	return append(dst, p.data...)
}

// DecodeCompressed reverses AppendCompressed into a compressed-only
// Bipartite, validating structure as it goes: degrees and payload lengths
// must be consistent, every varint must terminate inside the payload,
// every decoded id must be in range for its side, and an undirected
// graph's vertex side must mirror its hyperedge side.
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
	g := &Bipartite{numV: numV, numH: numH, directed: flags&1 != 0, pack: &packedPair{}}
	var err error
	if g.hOff, g.pack.h, data, err = decodePackedSide(data, numH, numV); err != nil {
		return nil, fmt.Errorf("hypergraph: hyperedge side: %w", err)
	}
	if g.vOff, g.pack.v, data, err = decodePackedSide(data, numV, numH); err != nil {
		return nil, fmt.Errorf("hypergraph: vertex side: %w", err)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("hypergraph: %d trailing bytes after compressed graph", len(data))
	}
	if err := g.checkMirror(g.pack.h.NewCursor().List, g.pack.v.NewCursor().List); err != nil {
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
	p = &PackedAdj{off: off, data: append([]byte(nil), data[:dataLen]...)}
	if n > 0 {
		p.blk = make([]uint32, (int(n)+packBlock-1)/packBlock)
	}
	// Single validation walk: rebuild the block table and check every
	// decoded id, exactly as a cursor will see them.
	pos := 0
	var entry uint32
	for i := uint32(0); i < n; i++ {
		if i%packBlock == 0 {
			p.blk[i/packBlock] = uint32(pos)
		}
		var prev uint32
		for k := off[i]; k < off[i+1]; k++ {
			uz, w := binary.Uvarint(p.data[pos:])
			if w <= 0 {
				return nil, nil, nil, fmt.Errorf("varint overruns payload or 64 bits in list %d", i)
			}
			pos += w
			delta := int64(uz>>1) ^ -int64(uz&1)
			id := int64(prev) + delta
			if id < 0 || id >= int64(maxID) {
				return nil, nil, nil, fmt.Errorf("entry %d of list %d out of range (%d, max %d)", entry, i, id, maxID)
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
