package main

import (
	"time"

	"nezha/internal/flowcache"
	"nezha/internal/nic"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
)

// microOps is how many calls one micro-cost trial times; each cost is
// the median of microTrials trials.
const (
	microOps    = 200_000
	microTrials = 5
)

// lookupSet pairs a vNIC's rule set with TX tuples its VM (at ip)
// sends.
type lookupSet struct {
	rs     *tables.RuleSet
	ip     packet.IPv4
	tuples []packet.FiveTuple
}

// micro holds the host cost of one call into each layer, in ns.
type micro struct {
	eventNs, submitNs, hitNs, insertNs, lookupNs float64
}

// lookupSink keeps rule-table lookups from being optimised away.
var lookupSink tables.LookupResult

// measureMicro times single public calls on the workload's own session
// keys and rule sets: Loop.At+Run (sim), CPU.Submit (nic),
// Table.LookupH and Table.GetOrCreateH (flowcache), RuleSet.Lookup
// (tables). cores/hz size the CPU like the workload's vSwitches.
func measureMicro(keys []packet.SessionKey, sets []lookupSet, cores int, hz uint64) micro {
	var m micro
	m.eventNs = trial(func() (int, time.Duration) {
		loop := sim.NewLoop(1)
		noop := func() {}
		t0 := time.Now()
		for i := 0; i < microOps; i++ {
			loop.At(sim.Time(i), noop)
		}
		loop.RunAll()
		return microOps, time.Since(t0)
	})
	m.submitNs = trial(func() (int, time.Duration) {
		loop := sim.NewLoop(1)
		cpu := nic.NewCPU(loop, cores, hz, nic.DefaultMaxQueueDelay)
		done := func(bool, sim.Time) {}
		var d time.Duration
		for n := 0; n < microOps; n += 1000 {
			t0 := time.Now()
			for i := 0; i < 1000; i++ {
				cpu.Submit(100, done)
			}
			d += time.Since(t0)
			loop.RunAll()
		}
		return microOps, d
	})
	if len(keys) > 0 {
		hashes := make([]uint64, len(keys))
		for i, k := range keys {
			hashes[i] = k.Hash()
		}
		var tab *flowcache.Table
		m.insertNs = trial(func() (int, time.Duration) {
			var d time.Duration
			n := 0
			for n < microOps {
				tab = flowcache.New(flowcache.Config{})
				t0 := time.Now()
				for i, k := range keys {
					_, _ = tab.GetOrCreateH(k, hashes[i], k.VNIC, 0)
				}
				d += time.Since(t0)
				n += len(keys)
			}
			return n, d
		})
		m.hitNs = trial(func() (int, time.Duration) {
			n := 0
			t0 := time.Now()
			for n < microOps {
				for i, k := range keys {
					tab.LookupH(k, hashes[i], 1)
				}
				n += len(keys)
			}
			return n, time.Since(t0)
		})
	}
	var total int
	for _, s := range sets {
		total += len(s.tuples)
	}
	if total > 0 {
		m.lookupNs = trial(func() (int, time.Duration) {
			n := 0
			t0 := time.Now()
			for n < microOps {
				for _, s := range sets {
					for _, ft := range s.tuples {
						lookupSink = s.rs.Lookup(ft)
					}
				}
				n += total
			}
			return n, time.Since(t0)
		})
	}
	return m
}

// trial runs f microTrials times and returns the median ns per op.
func trial(f func() (int, time.Duration)) float64 {
	per := make([]float64, microTrials)
	for i := range per {
		n, d := f()
		per[i] = float64(d.Nanoseconds()) / float64(n)
	}
	return median(per)
}
