//go:build !race

package shard

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
