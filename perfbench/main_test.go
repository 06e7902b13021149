package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"nezha/internal/chaos"
	"nezha/internal/sim"
)

// benchFile is the part of BENCHMARK.json the benchmark must agree with.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return f
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	f := readBenchFile(t)
	check := func(kind string, got []benchMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			w := benchMetric{Name: want[i].name, Unit: want[i].unit, Better: want[i].better}
			if got[i] != w {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], w)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)

	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("workloads: BENCHMARK.json %v, benchmark %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Fatalf("workloads: BENCHMARK.json %v, benchmark %v", names, have)
		}
	}
}

// printedNames checks a result sets exactly the metrics of defs.
func printedNames(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.values) != len(defs) {
		t.Errorf("set %d metrics, want %d", len(res.values), len(defs))
	}
	for _, d := range defs {
		if _, ok := res.values[d.name]; !ok {
			t.Errorf("metric %s not set", d.name)
		}
	}
}

// Tiny sizes: each run builds the minimum two worlds (seconds = 0).
var tiny = map[string]func(seed int64, trace bool) (result, error){
	"crr_offload": func(seed int64, trace bool) (result, error) {
		return runCluster(func(seed int64, tr *tracer) *rig {
			return buildCRR(seed, 2500*sim.Millisecond, tr)
		}, seed, 0, trace)
	},
	"persistent_fastpath": func(seed int64, trace bool) (result, error) {
		return runCluster(func(seed int64, tr *tracer) *rig {
			return buildPersistent(seed, persistSize{flows: 256, window: 200 * sim.Millisecond}, tr)
		}, seed, 0, trace)
	},
	"chaos_soak": func(seed int64, trace bool) (result, error) {
		return runSoak(seed, 0, trace, nil)
	},
}

func TestTinyWorkloadsPassChecks(t *testing.T) {
	for name, run := range tiny {
		for _, trace := range []bool{false, true} {
			res, err := run(3, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.ck.attempted == 0 || res.ck.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed; first: %s", name, trace, res.ck.failed, res.ck.attempted, res.ck.first)
			}
			if trace {
				printedNames(t, res, perLayer)
			} else {
				printedNames(t, res, endToEnd)
				for n, v := range res.values {
					if !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, v)
					}
				}
			}
		}
	}
}

// The seed reaches the inputs: two seeds of the Poisson workload
// simulate different worlds.
func TestSeedChangesDigest(t *testing.T) {
	a, err := tiny["crr_offload"](1, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tiny["crr_offload"](2, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest == b.digest {
		t.Fatalf("seeds 1 and 2 gave the same sim_digest %#x", a.digest)
	}
}

// The negative control: a campaign with the deliberate conservation
// bug must fail its checks and raise fail_frac above 0.
func TestUnaccountedDropsRaiseFailFrac(t *testing.T) {
	res, err := runSoak(1, 0, false, func(c *chaos.CampaignConfig) { c.UnaccountedDrops = true })
	if err != nil {
		t.Fatal(err)
	}
	if f := failFrac(res.ck); !(f > 0) {
		t.Fatalf("fail_frac = %v with UnaccountedDrops, want > 0", f)
	}
}
