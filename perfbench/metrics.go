package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"nezha/internal/chaos"
)

// metricDef names a metric, its unit and which direction is better.
// BENCHMARK.json lists the same names; a test keeps the two in step.
type metricDef struct{ name, unit, better string }

// endToEnd is what --trace 0 prints.
var endToEnd = []metricDef{
	{"sim_pkts_per_s", "pkts/s", "higher"},
	{"allocs_per_pkt", "allocs/pkt", "lower"},
	{"alloc_bytes_per_pkt", "B/pkt", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"step_ms_p50", "ms", "lower"},
}

// perLayer is what --trace 1 prints.
var perLayer = func() []metricDef {
	ds := []metricDef{
		{"fail_frac", "ratio", "lower"},
		{"step_ms_p99", "ms", "lower"},
		{"sim.events_per_pkt", "events/pkt", "lower"},
		{"sim.pending_max", "events", "lower"},
		{"sim.self_ns_per_pkt", "ns/pkt", "lower"},
		{"sim.event_ns", "ns", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_cpu_frac", "ratio", "lower"},
		{"runtime.malloc_frac", "ratio", "lower"},
		{"vswitch.slowpath_frac", "ratio", "lower"},
		{"vswitch.drop_frac", "ratio", "lower"},
		{"vswitch.tx_ns_per_pkt", "ns/pkt", "lower"},
		{"vswitch.rx_ns_per_pkt", "ns/pkt", "lower"},
		{"flowcache.sessions_max", "count", "lower"},
		{"flowcache.mem_mb_max", "MB", "lower"},
		{"flowcache.hit_ns", "ns", "lower"},
		{"flowcache.insert_ns", "ns", "lower"},
		{"tables.lookup_ns", "ns", "lower"},
		{"nic.be_util", "ratio", "lower"},
		{"nic.cpu_drops", "count", "lower"},
		{"nic.submit_ns", "ns", "lower"},
		{"fabric.deliveries_per_pkt", "ratio", "lower"},
		{"fabric.burst_len_mean", "pkts", "higher"},
		{"workload.completed", "count", "higher"},
		{"workload.lat_p99_us", "us", "lower"},
		{"workload.deliver_ns_per_pkt", "ns/pkt", "lower"},
		{"controller.txns", "count", "lower"},
		{"ctrlrpc.sent", "count", "lower"},
		{"trace.overhead_frac", "ratio", "lower"},
		{"layer_sum.unexplained_frac", "ratio", "lower"},
		{"chaos.violation_frac", "ratio", "lower"},
	}
	for _, l := range cpuLayers {
		ds = append(ds, metricDef{"cpu." + l, "ratio", "lower"})
	}
	return ds
}()

// timings are the host-time samples of a run's untraced worlds (on
// chaos_soak: untraced campaign runs), one entry per world.
type timings struct {
	pps, nsPerPkt, allocs, bytes, live, gcCycles, gcFrac, host []float64
	setup                                                      []float64 // one per set-up
	steps                                                      []float64 // host ns per 10 ms virtual slice
}

func (t *timings) add(pkts, hostNs float64, rt rtDelta, liveMB float64) {
	t.pps = append(t.pps, pkts/(hostNs/1e9))
	t.nsPerPkt = append(t.nsPerPkt, hostNs/pkts)
	t.allocs = append(t.allocs, rt.allocs/pkts)
	t.bytes = append(t.bytes, rt.bytes/pkts)
	t.live = append(t.live, liveMB)
	t.gcCycles = append(t.gcCycles, rt.gcCycles)
	t.gcFrac = append(t.gcFrac, rt.gcCPU/rt.totalCPU)
	t.host = append(t.host, hostNs)
}

func (t *timings) setEndToEnd(res *result) {
	res.note("fail_frac=%g", failFrac(res.ck))
	res.set("sim_pkts_per_s", median(t.pps))
	res.set("allocs_per_pkt", median(t.allocs))
	res.set("alloc_bytes_per_pkt", median(t.bytes))
	res.set("live_heap_mb", median(t.live))
	res.set("setup_s", median(t.setup))
	res.set("step_ms_p50", quantile(t.steps, 0.50)/1e6)
}

// setCommonLayers sets the per-layer metrics both kinds of workload
// measure the same way. traced holds the traced (or profiled) runs'
// host times; ops are the per-packet operation counts of the layer-sum
// prediction.
func setCommonLayers(res *result, t *timings, traced []float64, charge *cpuCharge, m micro, ops layerOps) {
	res.set("fail_frac", failFrac(res.ck))
	res.set("step_ms_p99", quantile(t.steps, 0.99)/1e6)
	res.set("sim.event_ns", m.eventNs)
	res.set("runtime.gc_cycles", median(t.gcCycles))
	res.set("runtime.gc_cpu_frac", median(t.gcFrac))
	res.set("runtime.malloc_frac", safeDiv(float64(charge.malloc), float64(charge.total)))
	res.set("flowcache.hit_ns", m.hitNs)
	res.set("flowcache.insert_ns", m.insertNs)
	res.set("tables.lookup_ns", m.lookupNs)
	res.set("nic.submit_ns", m.submitNs)
	res.set("trace.overhead_frac", median(traced)/median(t.host)-1)
	measured := median(t.nsPerPkt)
	predicted := ops.predict(m)
	res.set("layer_sum.unexplained_frac", 1-predicted/measured)
	res.note("layer_sum measured_ns_per_pkt=%.1f predicted_ns_per_pkt=%.1f", measured, predicted)
	for _, l := range cpuLayers {
		res.set("cpu."+l, charge.frac(l))
	}
	res.note("cpu_profile samples=%d", charge.total)
}

// layerOps are per-packet operation counts: scheduler events, CPU-model
// submissions, fast-path hits and slow-path misses.
type layerOps struct{ events, submits, fast, slow float64 }

// predict is the layer-sum prediction of host ns per packet: each
// count times its layer's micro-cost, a slow-path miss costed as a
// session insert plus a rule lookup.
func (o layerOps) predict(m micro) float64 {
	return o.events*m.eventNs + o.submits*m.submitNs + o.fast*m.hitNs + o.slow*(m.insertNs+m.lookupNs)
}

func failFrac(c checks) float64 { return safeDiv(float64(c.failed), float64(c.attempted)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// micro-cost inputs: session keys are capped so one pass stays cheap.
const microKeys = 1 << 15

// runCluster measures a cluster workload: fresh worlds built from the
// same seed, each driven through its timed window, until the time is
// up (at least two). With trace, every second world is traced and
// profiled.
func runCluster(build func(seed int64, tr *tracer) *rig, seed int64, seconds time.Duration, trace bool) (result, error) {
	var (
		res      result
		t        timings
		first    window
		traced   []float64
		self     [numSpans]float64
		bursts   [2]uint64 // bursts and their packets, over the traced worlds
		last     *rig
		rt0, rt1 = newRTSample(), newRTSample()
		charge   = newCPUCharge()
		began    = time.Now()
	)
	for i := 0; i < 2 || time.Since(began) < seconds; i++ {
		var tr *tracer
		if trace && i%2 == 1 {
			tr = newTracer()
		}
		runtime.GC()
		t0 := time.Now()
		r := build(seed, tr)
		setup := time.Since(t0).Seconds()
		var prof bytes.Buffer
		if tr != nil {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return res, fmt.Errorf("cpu profile: %w", err)
			}
		}
		rt0.read()
		w := r.run(tr)
		rt1.read()
		if tr != nil {
			pprof.StopCPUProfile()
			if err := charge.add(prof.Bytes()); err != nil {
				return res, err
			}
		}
		live := liveHeapMB(rt1)

		d := r.digest(&w)
		if i == 0 {
			first, res.digest = w, d
			if w.work.pkts == 0 {
				return res, fmt.Errorf("no packets entered a vSwitch in the window")
			}
		}
		res.ck.merge(w.ledger)
		res.ck.check(d == res.digest, "world %d (traced=%v): sim_digest %#x, world 0 gave %#x", i, tr != nil, d, res.digest)
		err := r.sanity()
		res.ck.check(err == nil, "%v", err)
		if tr != nil {
			if len(traced) == 0 {
				res.notes = append(res.notes, tr.summary()...)
			}
			traced = append(traced, w.hostNs)
			for k := range self {
				self[k] += float64(tr.self[k].Nanoseconds())
			}
			bursts[0] += tr.bursts
			bursts[1] += tr.burstPkts
		} else {
			t.add(float64(w.work.pkts), w.hostNs, deltaOf(rt0, rt1), live)
			t.setup = append(t.setup, setup)
			t.steps = append(t.steps, w.stepNs...)
		}
		last = r
	}
	work := first.work
	pkts := float64(work.pkts)
	res.note("worlds untraced=%d traced=%d steps=%d window=%v pkts/world=%d", len(t.host), len(traced), len(t.steps), last.end-last.start, work.pkts)
	res.note("sim_pkts_per_s by world: %.4g", t.pps)
	if !trace {
		t.setEndToEnd(&res)
		return res, nil
	}

	var completed uint64
	var latP99 float64
	for _, vm := range last.clients {
		completed += vm.Completed
		latP99 = max(latP99, vm.Latency.P99())
	}
	e := last.c.Ctrl.Stats
	tracedPkts := pkts * float64(len(traced))
	keys, sets := last.microInputs(microKeys)
	m := measureMicro(keys, sets, last.cores, last.hz)

	res.set("sim.events_per_pkt", float64(work.events)/pkts)
	res.set("sim.pending_max", float64(first.pendingMax))
	res.set("sim.self_ns_per_pkt", self[spanStep]/tracedPkts)
	res.set("vswitch.slowpath_frac", float64(work.slow)/pkts)
	res.set("vswitch.drop_frac", float64(work.drops)/pkts)
	res.set("vswitch.tx_ns_per_pkt", self[spanTX]/tracedPkts)
	res.set("vswitch.rx_ns_per_pkt", self[spanRX]/tracedPkts)
	res.set("flowcache.sessions_max", float64(first.sessionsMax))
	res.set("flowcache.mem_mb_max", float64(first.memMax)/1e6)
	res.set("nic.be_util", float64(first.beBusy)/float64(last.be.CPU().Cores())/float64(last.end-last.start))
	res.set("nic.cpu_drops", float64(work.cpuDrops))
	res.set("fabric.deliveries_per_pkt", float64(work.delivered)/pkts)
	res.set("fabric.burst_len_mean", safeDiv(float64(bursts[1]), float64(bursts[0])))
	res.set("workload.completed", float64(completed))
	res.set("workload.lat_p99_us", latP99)
	res.set("workload.deliver_ns_per_pkt", self[spanDeliver]/tracedPkts)
	res.set("controller.txns", float64(e.Offloads+e.Fallbacks+e.ScaleOuts+e.ScaleIns+e.Aborts))
	res.set("ctrlrpc.sent", float64(last.c.Ctrl.RPCStats().Sent))
	res.set("chaos.violation_frac", 0)
	setCommonLayers(&res, &t, traced, charge, m, layerOps{
		events: float64(work.events) / pkts, submits: float64(work.processed) / pkts,
		fast: float64(work.fast) / pkts, slow: float64(work.slow) / pkts,
	})
	return res, nil
}

// runSoak measures chaos_soak: campaigns with seeds derived from seed,
// each run twice back to back (with trace, the second run is
// profiled), until the time is up (at least two seeds). The checks:
// no campaign breaks the packet-conservation invariant (the ledger the
// cluster workloads check per step) and every campaign moves traffic;
// the two runs of a seed give the same Digest, TraceDigest and
// verdict. Campaigns that break any other invariant are reported by
// seed and counted in chaos.violation_frac. mutate, when non-nil,
// edits every campaign's configuration.
func runSoak(seed int64, seconds time.Duration, trace bool, mutate func(*chaos.CampaignConfig)) (result, error) {
	var (
		res                result
		t                  timings
		traced             []float64
		sum                snapCounts // over the seeds' first runs
		profPkts           float64
		completed          uint64
		latP99, sessionMax float64
		violating          int
		dg                 = newDigest()
		rt0, rt1           = newRTSample(), newRTSample()
		charge             = newCPUCharge()
		began              = time.Now()
	)
	for j := 0; j < 2 || time.Since(began) < seconds; j++ {
		s := campaignSeed(seed, j)
		runtime.GC()
		t0 := time.Now()
		world := buildSoakWorld(soakConfig(s))
		t.setup = append(t.setup, time.Since(t0).Seconds())
		runtime.KeepAlive(world)

		a, err := runCampaign(s, mutate, rt0, rt1)
		if err != nil {
			return res, err
		}
		var prof bytes.Buffer
		if trace {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return res, fmt.Errorf("cpu profile: %w", err)
			}
		}
		b, err := runCampaign(s, mutate, rt0, rt1)
		if trace {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return res, err
		}
		runs := []campaign{a, b}
		if trace {
			if err := charge.add(prof.Bytes()); err != nil {
				return res, err
			}
			traced = append(traced, b.hostNs)
			profPkts += b.counts.pkts
			runs = runs[:1]
		}
		for _, c := range runs {
			t.add(c.counts.pkts, c.hostNs, c.rt, c.liveMB)
			t.steps = append(t.steps, c.hostNs/float64(c.virtual/stepLen))
		}

		for _, c := range []campaign{a, b} {
			res.ck.check(conserved(c.rep) && c.rep.Completed > 0, "campaign seed %d: %s (%d completed)",
				s, verdict(c.rep), c.rep.Completed)
		}
		res.ck.check(a.rep.Digest == b.rep.Digest && a.rep.TraceDigest == b.rep.TraceDigest && verdict(a.rep) == verdict(b.rep),
			"campaign seed %d: digests %#x/%#x then %#x/%#x", s, a.rep.Digest, a.rep.TraceDigest, b.rep.Digest, b.rep.TraceDigest)
		if a.rep.Failed() {
			violating++
			res.note("campaign seed %d: %s", s, verdict(a.rep))
		}
		if j < 2 {
			dg.add(a.rep.Digest, a.rep.TraceDigest, uint64(a.counts.pkts))
		}
		completed += a.rep.Completed
		latP99 = max(latP99, float64(a.rep.SLOWorstP99)/1e3)
		sessionMax = max(sessionMax, a.counts.sessions)
		sum = sum.plus(a.counts)
	}
	res.digest = dg.sum
	if sum.pkts == 0 {
		return res, fmt.Errorf("no packets entered a vSwitch in any campaign")
	}
	res.note("campaigns untraced=%d profiled=%d seeds=%d", len(t.host), len(traced), len(t.setup))
	if !trace {
		t.setEndToEnd(&res)
		return res, nil
	}

	keys, sets := soakMicroInputs(soakConfig(seed))
	m := measureMicro(keys, sets, 2, 500_000_000)

	// The campaign builds its world internally: the loop, the span
	// wrappers and the per-step gauges are out of reach. Span times come
	// from the CPU profile (CPU time under the innermost boundary
	// frame), counts from the final snapshots, and the rest read 0.
	res.set("sim.events_per_pkt", 0)
	res.set("sim.pending_max", 0)
	res.set("sim.self_ns_per_pkt", float64(charge.spanNs[spanStep])/profPkts)
	res.set("vswitch.slowpath_frac", sum.slow/sum.pkts)
	res.set("vswitch.drop_frac", sum.drops/sum.pkts)
	res.set("vswitch.tx_ns_per_pkt", float64(charge.spanNs[spanTX])/profPkts)
	res.set("vswitch.rx_ns_per_pkt", float64(charge.spanNs[spanRX])/profPkts)
	res.set("flowcache.sessions_max", sessionMax)
	res.set("flowcache.mem_mb_max", 0)
	res.set("nic.be_util", 0)
	res.set("nic.cpu_drops", 0)
	res.set("fabric.deliveries_per_pkt", sum.delivered/sum.pkts)
	res.set("fabric.burst_len_mean", 0)
	res.set("workload.completed", float64(completed))
	res.set("workload.lat_p99_us", latP99)
	res.set("workload.deliver_ns_per_pkt", float64(charge.spanNs[spanDeliver])/profPkts)
	res.set("controller.txns", sum.txns)
	res.set("ctrlrpc.sent", sum.rpcSent)
	res.set("chaos.violation_frac", float64(violating)/float64(len(t.setup)))
	// No event or submit counts: the layer sum covers the flow cache
	// and rule tables only.
	setCommonLayers(&res, &t, traced, charge, m, layerOps{fast: sum.fast / sum.pkts, slow: sum.slow / sum.pkts})
	return res, nil
}
