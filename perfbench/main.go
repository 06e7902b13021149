// Command perfbench is the simulator benchmark: it runs one named
// workload at one seed, prints every metric by name with its unit, and
// checks that the simulation's outputs are correct.
//
//	bash perfbench/run.sh --workload crr_offload --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	crr_offload          TCP_CRR at 20 000 CPS on 24 scaled vSwitches; offload and scale-outs in the window
//	persistent_fastpath  4 x 4096 established flows, keepalive bursts every 40 ms on the fast path
//	chaos_soak           consecutive seeded chaos campaigns in the nightly soak configuration
//
// Every number is host time (the simulator's own running time) unless
// it is a simulated count, which is exact for a seed. With --trace 0 the
// result carries the end-to-end metrics from untraced runs; with
// --trace 1 it carries the per-layer metrics from alternating untraced
// and traced runs (spans around the layer boundaries plus a CPU
// profile), whose simulation digests must match.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed (correctness checks) and metrics. Earlier lines give
// the machine fingerprint, sim_digest and a readable copy of the
// metrics. The exit code is 0 when every check passed, 1 when one
// failed, 2 on bad arguments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// result is what one benchmark run produced.
type result struct {
	values map[string]float64 // metric name -> value
	ck     checks
	digest uint64
	notes  []string
}

func (r *result) set(name string, v float64) {
	if r.values == nil {
		r.values = make(map[string]float64)
	}
	r.values[name] = v
}

func (r *result) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checks counts correctness checks attempted and failed, keeping the
// first failure's description.
type checks struct {
	attempted, failed int
	first             string
}

func (c *checks) check(ok bool, format string, args ...interface{}) {
	c.attempted++
	if !ok {
		c.failed++
		if c.first == "" {
			c.first = fmt.Sprintf(format, args...)
		}
	}
}

func (c *checks) merge(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	if c.first == "" {
		c.first = o.first
	}
}

var workloads = map[string]func(seed int64, seconds time.Duration, trace bool) (result, error){
	"crr_offload": func(seed int64, sec time.Duration, trace bool) (result, error) {
		return runCluster(func(seed int64, tr *tracer) *rig { return buildCRR(seed, crrWindow, tr) }, seed, sec, trace)
	},
	"persistent_fastpath": func(seed int64, sec time.Duration, trace bool) (result, error) {
		return runCluster(func(seed int64, tr *tracer) *rig { return buildPersistent(seed, persistFull, tr) }, seed, sec, trace)
	},
	"chaos_soak": func(seed int64, sec time.Duration, trace bool) (result, error) {
		return runSoak(seed, sec, trace, nil)
	},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: crr_offload, persistent_fastpath or chaos_soak")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 30, "host seconds to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload crr_offload|persistent_fastpath|chaos_soak, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}

	fp, _ := json.Marshal(fingerprint(*name, *seed, *trace))
	fmt.Printf("fingerprint %s\n", fp)
	res, err := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("sim_digest %#016x\n", res.digest)
	fmt.Printf("checks attempted=%d failed=%d\n", res.ck.attempted, res.ck.failed)
	if res.ck.first != "" {
		fmt.Printf("first_failure %s\n", res.ck.first)
	}
	for _, n := range res.notes {
		fmt.Printf("note %s\n", n)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := map[string]map[string]interface{}{}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", d.name)
			os.Exit(1)
		}
		fmt.Printf("metric %-28s %16.6g %s\n", d.name, v, d.unit)
		out[d.name] = map[string]interface{}{"value": v, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]interface{}{
		"correct":   res.ck.failed == 0,
		"attempted": res.ck.attempted,
		"failed":    res.ck.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if res.ck.failed > 0 {
		os.Exit(1)
	}
}

// fingerprint describes the machine and the run.
func fingerprint(name string, seed int64, trace int) map[string]interface{} {
	return map[string]interface{}{
		"workload":   name,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
