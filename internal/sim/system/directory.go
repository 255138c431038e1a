package system

import "math/bits"

// dirEntry is one directory record: which cores' private caches hold the
// line, and which (if any) may hold it dirty.
type dirEntry struct {
	sharers uint64
	owner   int16
}

// directory maps a line to its dirEntry. It is an open-addressed,
// linear-probing table of entry pointers that deletes by backward shift, so
// the insert/delete churn of a long simulation leaves no tombstones and the
// table grows only when the number of live entries reaches a new high: a
// warm hierarchy allocates nothing. Entries themselves never move — the
// table holds pointers — so a *dirEntry stays valid while other lines are
// inserted or removed, as Access needs: it holds the requested line's
// entry across L3 installs whose victims drop theirs.
type directory struct {
	keys  []uint64
	vals  []*dirEntry // nil marks an empty slot
	shift uint        // 64 - log2(len(keys))
	n     int

	// slab and free back the entry storage: entries are carved from
	// fixed-capacity chunks (a full chunk is abandoned to the entries that
	// still point into it and a fresh one started, so pointers never move)
	// and recycled through the free list when the directory drops them.
	slab []dirEntry
	free []*dirEntry
}

const (
	dirSlabSize     = 1024
	dirInitialSlots = 1024 // a power of two
)

// resize rehashes the table into slots slots (a power of two).
func (d *directory) resize(slots int) {
	keys, vals := d.keys, d.vals
	d.keys, d.vals = make([]uint64, slots), make([]*dirEntry, slots)
	d.shift = 64 - uint(bits.TrailingZeros(uint(slots)))
	for i, e := range vals {
		if e != nil {
			j := d.home(keys[i])
			for d.vals[j] != nil {
				j = (j + 1) & (slots - 1)
			}
			d.keys[j], d.vals[j] = keys[i], e
		}
	}
}

// home is line's preferred slot.
func (d *directory) home(line uint64) int { return int(line * 0x9E3779B97F4A7C15 >> d.shift) }

// slot returns the slot holding line, or the empty slot ending its probe
// sequence.
func (d *directory) slot(line uint64) int {
	mask := len(d.keys) - 1
	i := d.home(line)
	for d.vals[i] != nil && d.keys[i] != line {
		i = (i + 1) & mask
	}
	return i
}

// get returns line's entry, or nil.
func (d *directory) get(line uint64) *dirEntry { return d.vals[d.slot(line)] }

// entry returns line's entry, creating an empty one (no sharers, no owner)
// if the line has none.
func (d *directory) entry(line uint64) *dirEntry {
	i := d.slot(line)
	if e := d.vals[i]; e != nil {
		return e
	}
	if 2*(d.n+1) > len(d.keys) {
		d.resize(2 * len(d.keys))
		i = d.slot(line)
	}
	var e *dirEntry
	if n := len(d.free); n > 0 {
		e = d.free[n-1]
		d.free = d.free[:n-1]
		*e = dirEntry{owner: -1}
	} else {
		if len(d.slab) == cap(d.slab) {
			d.slab = make([]dirEntry, 0, dirSlabSize)
		}
		d.slab = append(d.slab, dirEntry{owner: -1})
		e = &d.slab[len(d.slab)-1]
	}
	d.keys[i], d.vals[i] = line, e
	d.n++
	return e
}

// remove drops line's entry, if any, and recycles it.
func (d *directory) remove(line uint64) {
	i := d.slot(line)
	if d.vals[i] == nil {
		return
	}
	d.free = append(d.free, d.vals[i])
	d.n--
	// Backward shift: pull later members of the probe run into the hole
	// unless that would move them before their home slot.
	mask := len(d.keys) - 1
	for j := (i + 1) & mask; d.vals[j] != nil; j = (j + 1) & mask {
		k := d.home(d.keys[j])
		if (j > i && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			d.keys[i], d.vals[i] = d.keys[j], d.vals[j]
			i = j
		}
	}
	d.vals[i] = nil
}

// reset drops every entry, recycling them, and keeps the table's size.
func (d *directory) reset() {
	for i, e := range d.vals {
		if e != nil {
			d.free = append(d.free, e)
			d.vals[i] = nil
		}
	}
	d.n = 0
}
