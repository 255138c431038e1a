package system

import (
	"math/rand"
	"testing"
)

// TestDirectoryTable checks the open-addressed table against a Go map
// through random insert/remove churn that forces growth, long probe runs
// and wrap-around backward shifts, and checks that entry pointers survive
// both.
func TestDirectoryTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d directory
	d.resize(16)
	ref := map[uint64]*dirEntry{}
	for step := 0; step < 200000; step++ {
		line := uint64(rng.Intn(3000))
		if step > 100000 {
			line %= 40 // shrink the key set: deletes dominate
		}
		if rng.Intn(2) == 0 {
			e := d.entry(line)
			if want, ok := ref[line]; ok && e != want {
				t.Fatalf("step %d: entry(%d) moved", step, line)
			} else if !ok {
				if e.sharers != 0 || e.owner != -1 {
					t.Fatalf("step %d: new entry %+v not empty", step, e)
				}
				e.sharers = line
				ref[line] = e
			}
		} else {
			d.remove(line)
			delete(ref, line)
		}
		if step%1000 == 0 || step > 199000 {
			if d.n != len(ref) {
				t.Fatalf("step %d: %d entries, want %d", step, d.n, len(ref))
			}
			for l, e := range ref {
				if got := d.get(l); got != e || got.sharers != l {
					t.Fatalf("step %d: get(%d) = %p, want %p", step, l, got, e)
				}
			}
		}
	}
	if d.get(5000) != nil {
		t.Fatal("get of a never-inserted line returned an entry")
	}
	d.reset()
	if d.n != 0 || d.get(3) != nil {
		t.Fatal("reset left entries")
	}
}
