// Package noc models the global network-on-chip of Table I: a 2D mesh with
// X-Y dimension-order routing, 1-cycle pipelined routers and 1-cycle links.
// Traffic contention is not modelled (the memory controllers are the
// bandwidth bottleneck for these workloads); the mesh contributes
// distance-dependent latency between a core tile and an L3 bank or memory
// controller tile.
package noc

// Config describes the mesh.
type Config struct {
	// Width and Height are the mesh dimensions (4x4 in Table I).
	Width, Height int
	// RouterCycles and LinkCycles are the per-hop latencies.
	RouterCycles, LinkCycles uint64
}

// Mesh is an X-Y-routed 2D mesh.
type Mesh struct {
	cfg   Config
	tiles int
	// xy holds each tile's (x, y) coordinates, so Latency divides nothing.
	xy      []tileXY
	corners [4]int
}

type tileXY struct{ x, y int32 }

// New builds a mesh.
func New(cfg Config) *Mesh {
	if cfg.Width <= 0 {
		cfg.Width = 1
	}
	if cfg.Height <= 0 {
		cfg.Height = 1
	}
	w, h := cfg.Width, cfg.Height
	m := &Mesh{cfg: cfg, tiles: w * h, xy: make([]tileXY, w*h),
		corners: [4]int{0, w - 1, (h - 1) * w, h*w - 1}}
	for t := range m.xy {
		m.xy[t] = tileXY{int32(t % w), int32(t / w)}
	}
	return m
}

// Tiles returns the number of mesh tiles.
func (m *Mesh) Tiles() int { return m.tiles }

// Latency returns the one-way latency in cycles between two tiles under X-Y
// routing: each hop traverses one router and one link, plus one final router.
func (m *Mesh) Latency(from, to int) uint64 {
	if from == to {
		return m.cfg.RouterCycles
	}
	f, t := m.xy[from], m.xy[to]
	hops := abs(int(f.x-t.x)) + abs(int(f.y-t.y))
	return uint64(hops)*(m.cfg.RouterCycles+m.cfg.LinkCycles) + m.cfg.RouterCycles
}

// RoundTrip returns the request+response latency between two tiles.
func (m *Mesh) RoundTrip(from, to int) uint64 { return 2 * m.Latency(from, to) }

// CoreTile maps core c to its tile (one core per tile).
func (m *Mesh) CoreTile(c int) int { return c % m.tiles }

// BankTile maps L3 bank b to its tile (banks are distributed one per tile).
func (m *Mesh) BankTile(b int) int { return b % m.tiles }

// ControllerTile places memory controller i at a mesh corner (Table I: 4
// controllers), cycling through corners for other counts.
func (m *Mesh) ControllerTile(i int) int { return m.corners[i%len(m.corners)] }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
