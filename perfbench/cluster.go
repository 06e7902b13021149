package main

import (
	"fmt"
	"time"

	"nezha/internal/cluster"
	"nezha/internal/controller"
	"nezha/internal/flowcache"
	"nezha/internal/nic"
	"nezha/internal/packet"
	"nezha/internal/sim"
	"nezha/internal/tables"
	"nezha/internal/vswitch"
	"nezha/internal/workload"
)

// stepLen is the virtual length of one timed Loop.Run slice.
const stepLen = 10 * sim.Millisecond

const (
	serverVNIC = 100
	vpc        = 7
)

var (
	serverIP  = packet.MakeIP(10, 0, 100, 1)
	serverNet = tables.MakePrefix(packet.MakeIP(10, 0, 100, 0), 24)
)

func clientIP(i int) packet.IPv4 { return packet.MakeIP(10, 0, byte(1+i), 1) }

// rig is one simulated world of a cluster workload, built and driven
// only through the program's public API. The timed window runs the
// loop from start to end in stepLen slices.
type rig struct {
	c       *cluster.Cluster
	clients []*workload.VM
	server  *workload.VM
	be      *vswitch.VSwitch // the server VM's home vSwitch
	sets    []lookupSet      // each VM's rule set, for the tables micro-cost
	cores   int              // vSwitch CPU shape, for the nic micro-cost
	hz      uint64
	byAddr  map[packet.IPv4]map[uint32]*workload.VM
	start   sim.Time
	end     sim.Time
	// sanity checks the workload did what it is meant to exercise;
	// it runs once after the window.
	sanity func() error
}

func newRig(opts cluster.Options) *rig {
	return &rig{c: cluster.New(opts), byAddr: make(map[packet.IPv4]map[uint32]*workload.VM)}
}

func (r *rig) addVM(spec cluster.VMSpec) *workload.VM {
	vm, err := r.c.AddVM(spec)
	if err != nil {
		panic(fmt.Sprintf("perfbench: add VM %d: %v", spec.VNIC, err))
	}
	r.sets = append(r.sets, lookupSet{rs: spec.MakeRules(), ip: spec.IP})
	addr := r.c.Switch(spec.Server).Addr()
	if r.byAddr[addr] == nil {
		r.byAddr[addr] = make(map[uint32]*workload.VM)
	}
	r.byAddr[addr][spec.VNIC] = vm
	return vm
}

// addServer homes the 64-vCPU server VM on server idx with a /32
// route back to each of n clients.
func (r *rig) addServer(idx, n int) {
	mk := func() *tables.RuleSet {
		rs := tables.NewRuleSet(serverVNIC, vpc)
		for i := 0; i < n; i++ {
			rs.Route.Add(tables.MakePrefix(clientIP(i), 32), packet.IPv4(uint32(i+1)))
		}
		return rs
	}
	r.server = r.addVM(cluster.VMSpec{Server: idx, VNIC: serverVNIC, VPC: vpc, IP: serverIP, VCPUs: 64, MakeRules: mk})
	r.be = r.c.Switch(idx)
}

func (r *rig) addClient(i, vcpus int) *workload.VM {
	vnic := uint32(i + 1)
	vm := r.addVM(cluster.VMSpec{
		Server: i, VNIC: vnic, VPC: vpc, IP: clientIP(i), VCPUs: vcpus,
		MakeRules: cluster.TwoSubnetRules(vnic, vpc, serverNet, serverVNIC),
	})
	r.clients = append(r.clients, vm)
	return vm
}

// installTrace wraps each vSwitch's fabric handlers (vswitch.rx) and
// its delivery callback (workload.deliver) in spans. The delivery
// wrapper dispatches by vNIC exactly as the cluster's own callback
// does, so the simulation is unchanged.
func (r *rig) installTrace(tr *tracer) {
	for _, vs := range r.c.Switches {
		vs := vs
		addr := vs.Addr()
		byVNIC := r.byAddr[addr]
		must(r.c.Fab.SetHandler(addr, func(p *packet.Packet) {
			tr.begin(spanRX)
			vs.HandleUnderlay(p)
			tr.end()
		}))
		must(r.c.Fab.SetBurstHandler(addr, func(ps []*packet.Packet) {
			tr.bursts++
			tr.burstPkts += uint64(len(ps))
			tr.begin(spanRX)
			vs.HandleUnderlayBurst(ps)
			tr.end()
		}))
		vs.SetDelivery(func(vnic uint32, p *packet.Packet, lat sim.Time) {
			tr.begin(spanDeliver)
			if vm, ok := byVNIC[vnic]; ok {
				vm.OnDeliver(vnic, p, lat)
			}
			tr.end()
		})
	}
}

func must(err error) {
	if err != nil {
		panic("perfbench: " + err.Error())
	}
}

// counts is the simulated work a world has done: the sums the
// per-packet ratios are built from.
type counts struct {
	pkts, slow, fast, drops, events, processed, cpuDrops, delivered uint64
}

func (r *rig) counts() counts {
	var n counts
	for _, vs := range r.c.Switches {
		s := &vs.Stats
		n.pkts += s.FromVM + s.FromNet
		n.slow += s.SlowPath
		n.fast += s.FastPath
		n.drops += s.TotalDrops()
		n.processed += vs.CPU().Processed()
		n.cpuDrops += vs.CPU().Dropped()
	}
	n.events = r.c.Loop.Fired()
	n.delivered = r.c.Fab.Delivered
	return n
}

func (a counts) minus(b counts) counts {
	return counts{
		pkts: a.pkts - b.pkts, slow: a.slow - b.slow, fast: a.fast - b.fast,
		drops: a.drops - b.drops, events: a.events - b.events,
		processed: a.processed - b.processed, cpuDrops: a.cpuDrops - b.cpuDrops,
		delivered: a.delivered - b.delivered,
	}
}

// window is what one timed window measured.
type window struct {
	stepNs      []float64 // host ns per Loop.Run slice
	hostNs      float64   // sum of stepNs
	work        counts    // simulated work inside the window
	pendingMax  int
	sessionsMax int
	memMax      int
	beBusy      sim.Time // BE vSwitch CPU busy time inside the window
	ledger      checks
}

// run drives the timed window. Host time covers the Loop.Run calls
// only; between slices every vSwitch's packet ledger is checked:
//
//	FromVM + FromNet == Sent + Delivered + TotalDrops + Absorbed + InFlightCPU
func (r *rig) run(tr *tracer) window {
	w := window{stepNs: make([]float64, 0, int((r.end-r.start)/stepLen)+1)}
	before := r.counts()
	busy0 := r.be.CPU().BusyTime()
	tr.reset()
	for t := r.start; t < r.end; {
		next := t + stepLen
		if next > r.end {
			next = r.end
		}
		t0 := time.Now()
		tr.begin(spanStep)
		r.c.Loop.Run(next)
		tr.end()
		dt := float64(time.Since(t0).Nanoseconds())
		w.stepNs = append(w.stepNs, dt)
		w.hostNs += dt
		if p := r.c.Loop.Pending(); p > w.pendingMax {
			w.pendingMax = p
		}
		var sess, mem int
		for i, vs := range r.c.Switches {
			s := &vs.Stats
			in := s.FromVM + s.FromNet
			out := s.Sent + s.Delivered + s.TotalDrops() + s.Absorbed + uint64(vs.InFlightCPU())
			w.ledger.check(in == out, "t=%v switch %d ledger: in %d != out %d", next, i, in, out)
			sess += vs.Sessions().Len()
			mem += vs.Sessions().MemBytes()
		}
		if sess > w.sessionsMax {
			w.sessionsMax = sess
		}
		if mem > w.memMax {
			w.memMax = mem
		}
		t = next
	}
	w.work = r.counts().minus(before)
	w.beBusy = r.be.CPU().BusyTime() - busy0
	return w
}

// digest folds every simulated count the world exposes.
func (r *rig) digest(w *window) uint64 {
	d := newDigest()
	c := r.c
	d.add(c.Loop.Fired(), uint64(c.Loop.Now()), uint64(w.pendingMax), uint64(w.sessionsMax), uint64(w.memMax))
	d.add(c.Fab.Sends, c.Fab.Delivered, c.Fab.Lost, c.Fab.ChaosLost, c.Fab.BytesSent)
	for _, vs := range c.Switches {
		s := vs.Stats
		d.add(s.FromVM, s.FromNet, s.Delivered, s.Sent, s.Absorbed, s.SlowPath, s.FastPath,
			s.NotifySent, s.NotifyRecv, s.ProbesSeen, s.Mirrored, s.FlowLogged, s.NATRewrites)
		for _, n := range s.Drops {
			d.add(n)
		}
		cpu := vs.CPU()
		d.add(uint64(vs.Sessions().Len()), uint64(vs.Sessions().MemBytes()),
			cpu.Processed(), cpu.Dropped(), uint64(cpu.BusyTime()), uint64(vs.InFlightCPU()))
	}
	e := c.Ctrl.Stats
	d.add(e.Offloads, e.Fallbacks, e.ScaleOuts, e.ScaleIns, e.Failovers, e.FEsAdded,
		e.Aborts, e.Rollbacks, e.DegradedEnters, e.DegradedExits, e.RepairRuns)
	rs := c.Ctrl.RPCStats()
	d.add(rs.Sent, rs.Retries, rs.Acked, rs.Nacked, rs.Expired, rs.DupAcks)
	d.add(c.Mon.ProbesSent.Load(), c.Mon.PongsSeen.Load(), c.Mon.Declared.Load())
	for _, vm := range append(append([]*workload.VM(nil), r.clients...), r.server) {
		d.add(vm.Started, vm.Completed, vm.Accepted, vm.KernelDrops, vm.Latency.Count(), uint64(vm.Latency.Sum()))
	}
	return d.sum
}

// crrGen is an open-loop TCP_CRR generator: Poisson connection opens
// at a fixed rate in virtual time, each entering the client's vSwitch
// through VM.OpenCB (the vswitch.tx span).
type crrGen struct {
	loop  *sim.Loop
	rng   *sim.Rand
	vm    *workload.VM
	rate  float64
	sport uint16
	tr    *tracer
	fire  func()
}

func startCRR(loop *sim.Loop, vm *workload.VM, rate float64, tr *tracer) {
	g := &crrGen{loop: loop, rng: loop.Rand(), vm: vm, rate: rate, sport: 1024, tr: tr}
	g.fire = func() {
		g.sport++
		if g.sport < 1024 {
			g.sport = 1024
		}
		g.tr.begin(spanTX)
		g.vm.OpenCB(g.sport, serverIP, workload.ServerPort, nil)
		g.tr.end()
		g.arm()
	}
	g.arm()
}

func (g *crrGen) arm() {
	gap := sim.Time(g.rng.ExpFloat64() / g.rate * float64(sim.Second))
	if gap < 1 {
		gap = 1
	}
	g.loop.Schedule(gap, g.fire)
}

// crrWindow is crr_offload's timed window: long enough for the offload
// and both scale-outs.
const crrWindow = 7 * sim.Second

// buildCRR is the paper's CPS workload in the nezha-sim default shape:
// 24 servers on one ToR with scaled vSwitches (2 cores x 500 MHz), a
// 64-vCPU server VM on server 8, and 8 client VMs opening TCP_CRR
// connections at 20 000 CPS in total. The controller is started, so
// the offload and scale-outs happen inside the window, which starts at
// virtual t=0.
func buildCRR(seed int64, window sim.Time, tr *tracer) *rig {
	const servers, nClients, cps = 24, 8, 20000.0
	r := newRig(cluster.Options{
		Servers: servers, ServersPerToR: servers, Seed: seed,
		Controller: controller.DefaultConfig(),
		VSwitch: func(i int, cfg *vswitch.Config) {
			cfg.Cores = 2
			cfg.CoreHz = 500_000_000
		},
	})
	r.cores, r.hz = 2, 500_000_000
	r.addServer(nClients, nClients)
	for i := 0; i < nClients; i++ {
		r.addClient(i, 16)
	}
	if tr != nil {
		r.installTrace(tr)
	}
	for _, vm := range r.clients {
		startCRR(r.c.Loop, vm, cps/nClients, tr)
	}
	r.c.Start()
	r.start, r.end = 0, window
	r.sanity = func() error {
		var done uint64
		for _, vm := range r.clients {
			done += vm.Completed
		}
		if r.c.Ctrl.Stats.Offloads == 0 || done == 0 {
			return fmt.Errorf("crr_offload: offloads=%d completed=%d, want both > 0", r.c.Ctrl.Stats.Offloads, done)
		}
		return nil
	}
	return r
}

// persistSize shapes persistent_fastpath; the benchmark uses
// persistFull, tests fewer flows and a shorter window.
type persistSize struct {
	flows  int // established flows per client
	window sim.Time
}

var persistFull = persistSize{flows: 4096, window: sim.Second}

// buildPersistent holds long-lived flows on the established fast path:
// 4 client VMs each open sz.flows persistent flows to one server VM on
// default-size vSwitches, then send a keepalive burst over all of them
// every 40 ms through FromVMBurst, the clients staggered by 10 ms. The
// server VM answers each keepalive through its kernel model. The
// controller is not started. Opening and establishing the flows is
// set-up; source ports and burst order come from the seed.
func buildPersistent(seed int64, sz persistSize, tr *tracer) *rig {
	const nClients = 4
	// Opens go out in chunks of 64 SYNs per client every 5 ms, the
	// clients 1.25 ms apart: slow-path set-up costs tens of thousands
	// of cycles per flow, and bigger chunks overflow the vSwitch CPU's
	// queueing bound.
	const chunk, chunkGap = 64, 5 * sim.Millisecond
	r := newRig(cluster.Options{Servers: nClients + 1, ServersPerToR: nClients + 1, Seed: seed})
	r.cores, r.hz = nic.DefaultCores, nic.DefaultCoreHz
	r.addServer(nClients, nClients)
	rng := sim.NewRand(seed ^ 0x70657273) // "pers"
	loop := r.c.Loop
	type holder struct {
		vm     *workload.VM
		vs     *vswitch.VSwitch
		tuples []packet.FiveTuple
	}
	hs := make([]*holder, nClients)
	for i := range hs {
		vm := r.addClient(i, 16)
		h := &holder{vm: vm, vs: r.c.Switch(i)}
		for _, sport := range distinctPorts(rng, sz.flows) {
			h.tuples = append(h.tuples, packet.FiveTuple{
				SrcIP: vm.IP, DstIP: serverIP, SrcPort: sport, DstPort: workload.ServerPort, Proto: packet.ProtoTCP,
			})
		}
		hs[i] = h
	}
	if tr != nil {
		r.installTrace(tr)
	}
	send := func(h *holder, tuples []packet.FiveTuple, flags packet.TCPFlags, payload int) {
		burst := make([]*packet.Packet, len(tuples))
		for j, ft := range tuples {
			r.c.IDGen++
			burst[j] = packet.GetStamped(int64(loop.Now()), r.c.IDGen, vpc, h.vm.VNIC, ft, packet.DirTX, flags, payload)
		}
		tr.begin(spanTX)
		h.vs.FromVMBurst(burst)
		tr.end()
	}

	// Each chunk's handshake completes with an ACK burst 20 ms later.
	var openEnd sim.Time
	for i, h := range hs {
		h := h
		for off := 0; off < len(h.tuples); off += chunk {
			part := h.tuples[off:min(off+chunk, len(h.tuples))]
			at := sim.Time(off/chunk)*chunkGap + sim.Time(i)*chunkGap/nClients
			loop.At(at, func() { send(h, part, packet.FlagSYN, 0) })
			loop.At(at+20*sim.Millisecond, func() { send(h, part, packet.FlagACK, 0) })
			openEnd = max(openEnd, at+20*sim.Millisecond)
		}
	}
	r.start = (openEnd/sim.Millisecond + 100) * sim.Millisecond
	r.end = r.start + sz.window
	loop.Run(r.start)

	// Keepalive bursts in a seeded flow order, one client every 10 ms.
	for i, h := range hs {
		h := h
		order := append([]packet.FiveTuple(nil), h.tuples...)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		var tick func()
		tick = func() {
			send(h, order, packet.FlagACK, 32)
			loop.Schedule(40*sim.Millisecond, tick)
		}
		loop.At(r.start+sim.Time(i)*10*sim.Millisecond, tick)
	}

	want := uint64(nClients * sz.flows)
	accepted := r.server.Accepted
	drops := r.counts().drops
	sessions := r.be.Sessions().Len()
	r.sanity = func() error {
		if accepted != want || sessions != int(want) || drops != 0 {
			return fmt.Errorf("persistent_fastpath set-up: accepted=%d sessions=%d drops=%d, want %d/%d/0",
				accepted, sessions, drops, want, want)
		}
		if d := r.counts().drops; d != 0 {
			return fmt.Errorf("persistent_fastpath: %d drops in the window, want 0", d)
		}
		return nil
	}
	return r
}

// distinctPorts draws n distinct source ports from [1024, 65535].
func distinctPorts(rng *sim.Rand, n int) []uint16 {
	ports := make([]uint16, 65536-1024)
	for i := range ports {
		ports[i] = uint16(1024 + i)
	}
	rng.Shuffle(len(ports), func(a, b int) { ports[a], ports[b] = ports[b], ports[a] })
	return ports[:n]
}

// microInputs collects the world's own session keys (up to limit) and
// pairs each VM's rule set with the TX tuples of the sessions it sends
// on.
func (r *rig) microInputs(limit int) ([]packet.SessionKey, []lookupSet) {
	var keys []packet.SessionKey
	seen := make(map[packet.SessionKey]bool)
	for _, vs := range r.c.Switches {
		vs.Sessions().Range(func(e *flowcache.Entry) bool {
			if !seen[e.Key] {
				seen[e.Key] = true
				keys = append(keys, e.Key)
			}
			return len(keys) < limit
		})
		if len(keys) >= limit {
			break
		}
	}
	sets := append([]lookupSet(nil), r.sets...)
	for i := range sets {
		for _, k := range keys {
			ft := k.Tuple
			if ft.SrcIP != sets[i].ip {
				ft = ft.Reverse()
			}
			if ft.SrcIP == sets[i].ip && len(sets[i].tuples) < 4096 {
				sets[i].tuples = append(sets[i].tuples, ft)
			}
		}
	}
	return keys, sets
}
