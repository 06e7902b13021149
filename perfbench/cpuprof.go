package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets CPU-profile samples are charged to. Each
// sample goes to its innermost nezha/internal/<pkg> frame, so
// allocation cost lands on the layer that allocated. Frames of this
// benchmark (generators, ledger checks, span recording) go to
// cpu.bench, repo packages outside the named layers to cpu.misc,
// samples with no repo frame to cpu.gc_bg (GC workers) or cpu.other.
var cpuLayers = append(repoLayers, "bench", "misc", "gc_bg", "other")

// repoLayers are the nezha/internal packages charged by name.
var repoLayers = []string{
	"sim", "packet", "fabric", "nic", "flowcache", "tables", "vswitch", "workload",
	"controller", "ctrlrpc", "monitor", "journal", "chaos", "obs", "slo", "prof",
	"cluster", "metrics",
}

// cpuCharge is a decoded CPU profile reduced to sample counts.
type cpuCharge struct {
	total  int64
	layer  map[string]int64
	malloc int64 // samples inside runtime.mallocgc
	// spanNs is CPU time by innermost span boundary on the stack, the
	// profile's view of span self time; index numSpans holds samples
	// outside Loop.Run.
	spanNs [numSpans + 1]int64
}

func newCPUCharge() *cpuCharge { return &cpuCharge{layer: make(map[string]int64)} }

// frac is the share of all samples charged to layer.
func (c *cpuCharge) frac(layer string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.layer[layer]) / float64(c.total)
}

// add decodes one gzipped CPU profile and charges its samples.
func (c *cpuCharge) add(data []byte) error {
	stacks, err := decodeStacks(data)
	if err != nil {
		return err
	}
	for _, s := range stacks {
		c.total += s.n
		c.layer[chargeTo(s.frames)] += s.n
		c.spanNs[boundaryOf(s.frames)] += s.ns
		for _, f := range s.frames {
			if f == "runtime.mallocgc" {
				c.malloc += s.n
				break
			}
		}
	}
	return nil
}

func chargeTo(frames []string) string {
	gc := false
	for _, f := range frames {
		if pkg, ok := strings.CutPrefix(f, "nezha/internal/"); ok {
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range repoLayers {
				if l == pkg {
					return l
				}
			}
			return "misc"
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
		if strings.HasPrefix(f, "runtime.gcBgMarkWorker") {
			gc = true
		}
	}
	if gc {
		return "gc_bg"
	}
	return "other"
}

// spanFrames are the functions at the span boundaries: what the
// traced run wraps, seen from inside the program.
var spanFrames = map[string]spanKind{
	"nezha/internal/sim.(*Loop).Run":                        spanStep,
	"nezha/internal/workload.(*VM).OpenCB":                  spanTX,
	"nezha/internal/vswitch.(*VSwitch).FromVMBurst":         spanTX,
	"nezha/internal/vswitch.(*VSwitch).HandleUnderlay":      spanRX,
	"nezha/internal/vswitch.(*VSwitch).HandleUnderlayBurst": spanRX,
	"nezha/internal/workload.(*VM).OnDeliver":               spanDeliver,
}

// boundaryOf returns the innermost span boundary on a stack, or
// numSpans when the sample ran outside the event loop.
func boundaryOf(frames []string) spanKind {
	for _, f := range frames {
		if k, ok := spanFrames[f]; ok {
			return k
		}
	}
	return numSpans
}

// stack is one profile sample: its frames innermost first, with
// inlined calls expanded, its sample count and CPU nanoseconds.
type stack struct {
	frames []string
	n      int64
	ns     int64
}

// decodeStacks parses a (possibly gzipped) profile.proto. Unlike
// prof.DecodeProfile, it expands every line of a location, so calls
// the compiler inlined keep their own frames.
func decodeStacks(data []byte) ([]stack, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		data = raw
	}
	type sample struct {
		locs []uint64
		vals []int64 // CPU profiles: sample count, CPU nanoseconds
	}
	var (
		strs    []string
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					if b == nil {
						s.locs = append(s.locs, v)
						return nil
					}
					return eachPacked(b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					if b == nil {
						s.vals = append(s.vals, int64(v))
						return nil
					}
					return eachPacked(b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errors.New("cpu profile: sample without count and nanoseconds")
		}
		st := stack{n: s.vals[0], ns: s.vals[1]}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("cpu profile: truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
	}
	return nil
}

func eachPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
