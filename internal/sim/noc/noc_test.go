package noc

import "testing"

func TestMeshLatency(t *testing.T) {
	m := New(Config{Width: 4, Height: 4, RouterCycles: 1, LinkCycles: 1})
	if m.Tiles() != 16 {
		t.Fatalf("tiles = %d", m.Tiles())
	}
	// Same tile: one router traversal.
	if got := m.Latency(5, 5); got != 1 {
		t.Fatalf("latency(5,5) = %d", got)
	}
	// Adjacent: 1 hop = router+link + final router.
	if got := m.Latency(0, 1); got != 3 {
		t.Fatalf("latency(0,1) = %d", got)
	}
	// Corner to corner: 6 hops (X-Y routing) = 6*2+1.
	if got := m.Latency(0, 15); got != 13 {
		t.Fatalf("latency(0,15) = %d", got)
	}
	// Symmetric for Manhattan distance.
	if m.Latency(3, 12) != m.Latency(12, 3) {
		t.Fatal("asymmetric latency")
	}
	if m.RoundTrip(0, 15) != 2*m.Latency(0, 15) {
		t.Fatal("round trip mismatch")
	}
}

func TestControllerTiles(t *testing.T) {
	m := New(Config{Width: 4, Height: 4, RouterCycles: 1, LinkCycles: 1})
	corners := map[int]bool{0: true, 3: true, 12: true, 15: true}
	for i := 0; i < 4; i++ {
		if !corners[m.ControllerTile(i)] {
			t.Fatalf("controller %d not at a corner: %d", i, m.ControllerTile(i))
		}
	}
}

func TestTriangleInequalityHolds(t *testing.T) {
	m := New(Config{Width: 4, Height: 4, RouterCycles: 1, LinkCycles: 1})
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			for c := 0; c < 16; c++ {
				// Manhattan latency (minus terminal router) obeys the
				// triangle inequality.
				ab := m.Latency(a, b) - 1
				bc := m.Latency(b, c) - 1
				ac := m.Latency(a, c) - 1
				if ac > ab+bc {
					t.Fatalf("triangle violated: %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

// TestMeshTileMaps checks the precomputed coordinates against the division
// forms they replace, and the core and bank tile wrap, on square,
// non-square and non-power-of-two meshes.
func TestMeshTileMaps(t *testing.T) {
	for _, c := range []Config{{Width: 4, Height: 4}, {Width: 5, Height: 3}, {Width: 8, Height: 2}, {Width: 1, Height: 7}} {
		c.RouterCycles, c.LinkCycles = 1, 2
		m := New(c)
		n := c.Width * c.Height
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				hops := abs(a%c.Width-b%c.Width) + abs(a/c.Width-b/c.Width)
				want := uint64(hops)*3 + 1
				if got := m.Latency(a, b); got != want {
					t.Fatalf("%dx%d: Latency(%d, %d) = %d, want %d", c.Width, c.Height, a, b, got, want)
				}
			}
		}
		for i := 0; i < 3*n; i++ {
			if m.CoreTile(i) != i%n || m.BankTile(i) != i%n {
				t.Fatalf("%dx%d: tile of %d = %d/%d, want %d", c.Width, c.Height, i, m.CoreTile(i), m.BankTile(i), i%n)
			}
		}
	}
}
