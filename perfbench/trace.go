package main

import (
	"fmt"
	"time"
)

// spanKind names a layer boundary the traced run wraps. Spans are
// recorded from this package only, around calls into the program's
// public API; the program itself is not instrumented.
type spanKind int

const (
	// spanStep wraps one Loop.Run slice (sim.step).
	spanStep spanKind = iota
	// spanTX wraps the generator's entry into a vSwitch: VM.OpenCB for
	// connection opens, FromVMBurst for keepalive bursts (vswitch.tx).
	spanTX
	// spanRX wraps HandleUnderlay / HandleUnderlayBurst, installed by
	// re-registering each switch's fabric handlers (vswitch.rx).
	spanRX
	// spanDeliver wraps VM.OnDeliver, installed with SetDelivery
	// (workload.deliver).
	spanDeliver
	numSpans
)

var spanNames = [numSpans]string{"sim.step", "vswitch.tx", "vswitch.rx", "workload.deliver"}

type openSpan struct {
	kind  spanKind
	start time.Time
	child time.Duration // time covered by directly nested spans
}

// tracer keeps spans in memory as aggregates: self time (duration minus
// the nested spans' durations) per kind, per kind and 10 ms step, and
// the count of each parent->child edge. A nil *tracer records nothing,
// so untraced runs pay one nil check per boundary.
type tracer struct {
	stack []openSpan
	step  int // id of the current sim.step span

	self     [numSpans]time.Duration
	calls    [numSpans]uint64
	edges    [numSpans + 1][numSpans]uint64 // [parent or numSpans for root][child]
	stepSelf [][numSpans]time.Duration

	// Burst deliveries seen by the rx wrapper: how many bursts and how
	// many packets they carried (fabric.burst_len_mean).
	bursts, burstPkts uint64
}

func newTracer() *tracer { return &tracer{stack: make([]openSpan, 0, 16)} }

// reset drops everything recorded so far, so the aggregates cover the
// timed window only.
func (t *tracer) reset() {
	if t != nil {
		*t = tracer{stack: t.stack[:0]}
	}
}

func (t *tracer) begin(k spanKind) {
	if t == nil {
		return
	}
	parent := spanKind(numSpans)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].kind
	}
	t.edges[parent][k]++
	if k == spanStep {
		t.step = len(t.stepSelf)
		t.stepSelf = append(t.stepSelf, [numSpans]time.Duration{})
	}
	t.stack = append(t.stack, openSpan{kind: k, start: time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := time.Since(s.start)
	self := dur - s.child
	t.self[s.kind] += self
	t.calls[s.kind]++
	if len(t.stepSelf) > 0 {
		t.stepSelf[t.step][s.kind] += self
	}
	if n > 0 {
		t.stack[n-1].child += dur
	}
}

// summary describes the recorded spans: per kind, the calls and the
// parents they nested in; then the mean self time per kind over all
// steps and over the slowest 1% of steps, where the step-time tail
// comes from.
func (t *tracer) summary() []string {
	var out []string
	for k := spanKind(0); k < numSpans; k++ {
		line := fmt.Sprintf("span %s calls=%d parents:", spanNames[k], t.calls[k])
		for p := spanKind(0); p <= numSpans; p++ {
			if n := t.edges[p][k]; n > 0 {
				name := "root"
				if p < numSpans {
					name = spanNames[p]
				}
				line += fmt.Sprintf(" %s=%d", name, n)
			}
		}
		out = append(out, line)
	}
	totals := make([]float64, len(t.stepSelf))
	for i, st := range t.stepSelf {
		for _, d := range st {
			totals[i] += float64(d)
		}
	}
	cut := quantile(totals, 0.99)
	mean := func(slow bool) string {
		var sum [numSpans]float64
		n := 0
		for i, st := range t.stepSelf {
			if slow && totals[i] < cut {
				continue
			}
			n++
			for k, d := range st {
				sum[k] += float64(d)
			}
		}
		line := fmt.Sprintf("n=%d mean self ms:", n)
		for k := range sum {
			line += fmt.Sprintf(" %s=%.3f", spanNames[k], sum[k]/float64(max(n, 1))/1e6)
		}
		return line
	}
	return append(out, "steps all "+mean(false), "steps slowest1% "+mean(true))
}
