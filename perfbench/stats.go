package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// digest is an FNV-1a fold over 64-bit words: every simulated count a
// run produces goes through one, so two runs of a seed can be compared
// with a single number.
type digest struct{ sum uint64 }

func newDigest() digest { return digest{sum: 0xcbf29ce484222325} }

func (d *digest) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			d.sum ^= v & 0xff
			d.sum *= 0x100000001b3
			v >>= 8
		}
	}
}

// Runtime counters read through runtime/metrics. The sample slice is
// built once so a read allocates nothing inside a timed window.
const (
	rmAllocObjects = iota
	rmAllocBytes
	rmGCCycles
	rmGCCPU
	rmTotalCPU
	rmHeapObjects
	rmCount
)

type rtSample struct{ s []metrics.Sample }

func newRTSample() *rtSample {
	names := [rmCount]string{
		rmAllocObjects: "/gc/heap/allocs:objects",
		rmAllocBytes:   "/gc/heap/allocs:bytes",
		rmGCCycles:     "/gc/cycles/total:gc-cycles",
		rmGCCPU:        "/cpu/classes/gc/total:cpu-seconds",
		rmTotalCPU:     "/cpu/classes/total:cpu-seconds",
		rmHeapObjects:  "/memory/classes/heap/objects:bytes",
	}
	r := &rtSample{s: make([]metrics.Sample, rmCount)}
	for i, n := range names {
		r.s[i].Name = n
	}
	return r
}

// read refreshes every counter.
func (r *rtSample) read() { metrics.Read(r.s) }

func (r *rtSample) get(i int) float64 {
	v := r.s[i].Value
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// rtDelta is the runtime's work between two reads.
type rtDelta struct {
	allocs, bytes, gcCycles, gcCPU, totalCPU float64
}

func deltaOf(a, b *rtSample) rtDelta {
	return rtDelta{
		allocs:   b.get(rmAllocObjects) - a.get(rmAllocObjects),
		bytes:    b.get(rmAllocBytes) - a.get(rmAllocBytes),
		gcCycles: b.get(rmGCCycles) - a.get(rmGCCycles),
		gcCPU:    b.get(rmGCCPU) - a.get(rmGCCPU),
		totalCPU: b.get(rmTotalCPU) - a.get(rmTotalCPU),
	}
}

// liveHeapMB forces a full collection and reports the heap still in
// use. Callers keep the state they want counted reachable across the
// call.
func liveHeapMB(r *rtSample) float64 {
	runtime.GC()
	r.read()
	return r.get(rmHeapObjects) / 1e6
}
