package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. xs is
// not modified. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// quartiles returns the three cut points dividing xs into four groups, by
// the same "exclusive" method as Python's statistics.quantiles(xs, n=4), so
// spreads computed here match ones computed from the printed results. A
// single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		// Clamp j into [1, n-1] before taking delta, as Python does: small
		// samples extrapolate linearly from the end pair.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// readMetric reads one uint64 runtime/metrics sample.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// liveHeapMB reports the live heap in MB after two full collections. One GC
// is not enough: sync.Pool keeps a victim cache that survives exactly one
// collection, so a single GC still counts pooled scratch and the reading
// swings with whatever the last run left pooled.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(readMetric("/gc/heap/live:bytes")) / (1 << 20)
}

// heapAllocs is the cumulative count of heap objects allocated.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:objects") }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// valuesChecksum digests final value arrays the way the serving layer's
// checksum does (each array length-prefixed, then the little-endian float64
// bits), so benchmark-side references compare directly against /run
// responses.
func valuesChecksum(vv, hv []float64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(bits uint64) {
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, vals := range [][]float64{vv, hv} {
		put(uint64(len(vals)))
		for _, v := range vals {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
