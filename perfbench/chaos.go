package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"nezha/internal/chaos"
	"nezha/internal/cluster"
	"nezha/internal/controller"
	"nezha/internal/journal"
	"nezha/internal/monitor"
	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/slo"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
	"nezha/internal/workload"
)

// soakConfig is the nightly soak configuration for one campaign: the
// nezha-chaos defaults (8 servers, 3 clients x 250 CPS, 12 fault
// episodes, invariants every 20 ms, flight tracing at sample rate 1.0)
// plus -ctrl-crash and -slo 100ms. No dump directory is set, so a
// campaign writes no files.
func soakConfig(seed int64) chaos.CampaignConfig {
	return chaos.CampaignConfig{
		Seed:          seed,
		Duration:      8 * sim.Second,
		Servers:       8,
		Clients:       3,
		RatePerClient: 250,
		Events:        12,
		CheckEvery:    20 * sim.Millisecond,
		Obs:           true,
		ObsSampleRate: 1.0,
		CtrlCrash:     true,
		CtrlOutage:    1500 * sim.Millisecond,
		SLO:           true,
		SLOObjective:  100 * sim.Millisecond,
	}
}

// campaignSeed derives the i-th campaign seed of a benchmark seed.
func campaignSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// campaign is one measured RunCampaign call.
type campaign struct {
	rep     chaos.Report
	hostNs  float64
	rt      rtDelta
	counts  snapCounts
	liveMB  float64
	virtual sim.Time // virtual time the campaign simulated
}

// snapCounts are the simulated totals read from a campaign's final
// registry snapshot through CampaignConfig.Hist, which leaves digests
// unchanged.
type snapCounts struct {
	pkts, slow, fast, drops, delivered, sessions, txns, rpcSent float64
}

func (a snapCounts) plus(b snapCounts) snapCounts {
	return snapCounts{
		pkts: a.pkts + b.pkts, slow: a.slow + b.slow, fast: a.fast + b.fast, drops: a.drops + b.drops,
		delivered: a.delivered + b.delivered, sessions: a.sessions + b.sessions,
		txns: a.txns + b.txns, rpcSent: a.rpcSent + b.rpcSent,
	}
}

func readSnap(h *obs.History) snapCounts {
	var n snapCounts
	s := h.Latest()
	if s == nil {
		return n
	}
	for _, p := range s.Points {
		switch p.Name {
		case "vswitch_from_vm_total", "vswitch_from_net_total":
			n.pkts += p.Value
		case "vswitch_slowpath_total":
			n.slow += p.Value
		case "vswitch_fastpath_total":
			n.fast += p.Value
		case "vswitch_drops_total":
			n.drops += p.Value
		case "fabric_delivered_total":
			n.delivered += p.Value
		case "vswitch_sessions":
			n.sessions += p.Value
		case "controller_offloads_total", "controller_fallbacks_total", "controller_scaleouts_total",
			"controller_scaleins_total", "controller_aborts_total":
			n.txns += p.Value
		case "ctrlrpc_attempts_total":
			n.rpcSent += p.Value
		}
	}
	return n
}

// runCampaign runs one campaign and measures its host time and
// allocations. mutate, when non-nil, edits the configuration first
// (the negative control uses it).
func runCampaign(seed int64, mutate func(*chaos.CampaignConfig), rt0, rt1 *rtSample) (campaign, error) {
	cfg := soakConfig(seed)
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.Hist = obs.NewHistory(obs.HistoryOptions{})
	rt0.read()
	t0 := time.Now()
	rep, err := chaos.RunCampaign(cfg)
	host := float64(time.Since(t0).Nanoseconds())
	rt1.read()
	if err != nil {
		return campaign{}, fmt.Errorf("campaign seed %d: %w", seed, err)
	}
	c := campaign{
		rep:    rep,
		hostNs: host,
		rt:     deltaOf(rt0, rt1),
		counts: readSnap(cfg.Hist),
		// RunCampaign runs the schedule, then quiesces for 2 s.
		virtual: cfg.Duration + 2*sim.Second,
	}
	c.liveMB = liveHeapMB(rt1)
	runtime.KeepAlive(cfg.Hist)
	return c, nil
}

// buildSoakWorld assembles the world a soak campaign runs in, through
// the same public constructors RunCampaign uses: the cluster with
// scaled vSwitches, telemetry and the SLO tracker, the server and
// client VMs with their generators, the journal, and the controller
// started with the forced offload. It stops where the campaign's timed
// run begins; the fault engine is not built. Timing it is chaos_soak's
// set-up time.
func buildSoakWorld(cfg chaos.CampaignConfig) *cluster.Cluster {
	monCfg := monitor.DefaultConfig(cluster.MonitorAddr)
	monCfg.ProbeInterval = 200 * sim.Millisecond
	ctrlCfg := controller.DefaultConfig()
	ctrlCfg.PrepareQuorumFrac = 0.5
	c := cluster.New(cluster.Options{
		Servers: cfg.Servers,
		Seed:    cfg.Seed,
		VSwitch: func(i int, vc *vswitch.Config) {
			vc.Cores = 2
			vc.CoreHz = 500_000_000
		},
		Controller: ctrlCfg,
		Monitor:    monCfg,
		Obs:        obs.New(obs.Options{Seed: cfg.Seed, SampleRate: cfg.ObsSampleRate}),
		SLO:        slo.NewTracker(slo.Config{Objective: int64(cfg.SLOObjective)}),
	})
	_, err := c.AddVM(cluster.VMSpec{
		Server: 0, VNIC: serverVNIC, VPC: vpc, IP: serverIP, VCPUs: 64,
		MakeRules: func() *tables.RuleSet {
			rs := tables.NewRuleSet(serverVNIC, vpc)
			for i := 0; i < cfg.Clients; i++ {
				rs.Route.Add(tables.MakePrefix(clientIP(i), 32), packet.IPv4(uint32(i+1)))
			}
			return rs
		},
	})
	must(err)
	for i := 0; i < cfg.Clients; i++ {
		vnic := uint32(i + 1)
		vm, err := c.AddVM(cluster.VMSpec{
			Server: i + 1, VNIC: vnic, VPC: vpc, IP: clientIP(i), VCPUs: 8,
			MakeRules: cluster.TwoSubnetRules(vnic, vpc, serverNet, serverVNIC),
		})
		must(err)
		workload.NewCRR(c.Loop, c.Loop.Rand(), vm, serverIP, cfg.RatePerClient).Start()
	}
	c.Ctrl.AttachJournal(journal.NewMem())
	c.Start()
	must(c.Ctrl.ForceOffload(serverVNIC))
	return c
}

// soakMicroInputs builds the soak rig's rule sets with the same
// constructors the campaign uses, and TCP_CRR session keys like the
// ones its clients open.
func soakMicroInputs(cfg chaos.CampaignConfig) ([]packet.SessionKey, []lookupSet) {
	server := tables.NewRuleSet(serverVNIC, vpc)
	sets := []lookupSet{{rs: server, ip: serverIP}}
	var keys []packet.SessionKey
	for i := 0; i < cfg.Clients; i++ {
		vnic := uint32(i + 1)
		server.Route.Add(tables.MakePrefix(clientIP(i), 32), packet.IPv4(vnic))
		client := lookupSet{rs: tables.NewRuleSet(vnic, vpc), ip: clientIP(i)}
		client.rs.Route.Add(serverNet, packet.IPv4(serverVNIC))
		for sport := 1025; sport < 1025+4096; sport++ {
			ft := packet.FiveTuple{SrcIP: clientIP(i), DstIP: serverIP, SrcPort: uint16(sport),
				DstPort: workload.ServerPort, Proto: packet.ProtoTCP}
			client.tuples = append(client.tuples, ft)
			sets[0].tuples = append(sets[0].tuples, ft.Reverse())
			for _, v := range []uint32{vnic, serverVNIC} {
				k, _ := packet.SessionKeyOf(v, vpc, ft)
				keys = append(keys, k)
			}
		}
		sets = append(sets, client)
	}
	return keys, sets
}

// conserved reports whether a campaign kept the packet-conservation
// invariant.
func conserved(r chaos.Report) bool {
	for _, v := range r.Violations {
		if v.Invariant == "packet-conservation" {
			return false
		}
	}
	return true
}

// verdict lists a campaign's violations, or "clean".
func verdict(r chaos.Report) string {
	if !r.Failed() {
		return "clean"
	}
	var b strings.Builder
	for i, v := range r.Violations {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(v.String())
	}
	return b.String()
}
