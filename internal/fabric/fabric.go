// Package fabric simulates the datacenter underlay: servers attached
// to ToR switches under an aggregation layer, links with realistic
// latency, and the gateway that owns the global vNIC-server mapping
// table which vSwitches learn from on demand (§4.2.1).
//
// Delivery is event-driven on the shared simulation loop. The fabric
// itself never drops packets (the paper assumes a well-provisioned
// 100 Gbps+ underlay); loss happens only at overloaded or crashed
// vSwitches.
package fabric

import (
	"fmt"

	"nezha/internal/obs"
	"nezha/internal/packet"
	"nezha/internal/sim"
)

// Link latencies: one-way delay between two servers. Values follow
// typical intra-DC numbers; the paper's "extra hop adds a few tens of
// microseconds" emerges from these.
const (
	LatencySameToR  = 5 * sim.Microsecond
	LatencyInterToR = 15 * sim.Microsecond
	LinkBandwidth   = 100e9 / 8 // bytes/sec (100 Gbps)
)

// Handler receives packets delivered to a node.
type Handler func(p *packet.Packet)

// BurstHandler receives a coalesced burst: packets that arrived on the
// same link at the same instant, in send order. Nodes without one get
// the burst unrolled through their per-packet Handler.
type BurstHandler func(ps []*packet.Packet)

// FaultVerdict is a fault injector's decision for one send.
type FaultVerdict struct {
	// Drop loses the packet at the link.
	Drop bool
	// SkipAccounting suppresses the ChaosLost counter for this drop.
	// It exists solely so chaos tests can deliberately break packet
	// conservation and prove the invariant checker catches it; real
	// fault models must leave it false.
	SkipAccounting bool
	// Jitter is added to the link latency (delivery reordering relative
	// to other flows emerges from per-packet jitter).
	Jitter sim.Time
}

// FaultInjector is consulted once per sent packet after the
// reachability checks. It must be deterministic given the simulation
// state (seed its randomness from sim.Rand, never the wall clock).
type FaultInjector func(from, to packet.IPv4, p *packet.Packet) FaultVerdict

type node struct {
	addr    packet.IPv4
	tor     int
	handler Handler
	burst   BurstHandler
}

// Fabric is the underlay network.
type Fabric struct {
	loop  *sim.Loop
	nodes map[packet.IPv4]*node
	// partitions holds failed server pairs (normalized low,high):
	// rare in practice thanks to fast-failover groups, but exactly
	// the case the FE–BE mutual ping exists for (Appendix C.1).
	partitions map[[2]packet.IPv4]bool

	// wireMode forces every packet through the real wire encoding
	// (Marshal at send, Unmarshal at delivery): anything the datapath
	// needs but the wire format does not carry becomes a loud test
	// failure instead of a silent simulation convenience.
	wireMode bool

	// faults, when set, injects stochastic loss and latency jitter per
	// link (the chaos engine's hook point).
	faults FaultInjector

	// tr, when set by EnableObs, records wire hops for sampled packets.
	tr *obs.FlightTracer

	// inFlight counts packets accepted for sending whose delivery event
	// has not yet resolved (delivered or lost).
	inFlight uint64

	// groupFree recycles same-deadline delivery groups. Each group is
	// retained by its delivery event until the event fires, so this
	// must be a freelist — several groups are in flight at once.
	groupFree [][]*packet.Packet

	// taskFree recycles delivery events (deliverTask) the same way, so
	// the non-wire burst path schedules deliveries without allocating a
	// closure per group.
	taskFree *deliverTask

	// serMemo caches the serialization-delay computation for the last
	// size seen: burst traffic is near-uniform, so the float math runs
	// once per size run instead of once per packet. The zero value is
	// correct (size 0 serializes in 0 time).
	serMemoSize int
	serMemoVal  sim.Time

	// Sends counts every packet handed to Send or SendBurst. Delivered
	// counts packets handed to node handlers; Lost counts packets sent
	// to unregistered destinations, across partitions (at send or
	// delivery time), or failing wire decode; ChaosLost counts packets
	// the fault injector dropped. At any event boundary Sends ==
	// Delivered + Lost + ChaosLost + InFlight() — the
	// packet-conservation ledger chaos invariants check. BytesSent
	// totals wire bytes offered to the fabric — the §6.4 BE–FE
	// bandwidth-overhead accounting.
	Sends     uint64
	Delivered uint64
	Lost      uint64
	ChaosLost uint64
	BytesSent uint64
}

// New builds an empty fabric on loop.
func New(loop *sim.Loop) *Fabric {
	return &Fabric{
		loop:       loop,
		nodes:      make(map[packet.IPv4]*node),
		partitions: make(map[[2]packet.IPv4]bool),
	}
}

func pairKey(a, b packet.IPv4) [2]packet.IPv4 {
	if a > b {
		a, b = b, a
	}
	return [2]packet.IPv4{a, b}
}

// Partition severs connectivity between two servers (both ways).
func (f *Fabric) Partition(a, b packet.IPv4) { f.partitions[pairKey(a, b)] = true }

// Heal restores a severed pair.
func (f *Fabric) Heal(a, b packet.IPv4) { delete(f.partitions, pairKey(a, b)) }

// Partitioned reports whether the pair is severed.
func (f *Fabric) Partitioned(a, b packet.IPv4) bool { return f.partitions[pairKey(a, b)] }

// SetWireMode toggles full wire serialization on every delivery.
func (f *Fabric) SetWireMode(on bool) { f.wireMode = on }

// SetFaultInjector installs (or with nil, removes) the per-send fault
// model.
func (f *Fabric) SetFaultInjector(fn FaultInjector) { f.faults = fn }

// InFlight reports packets accepted for sending that have neither been
// delivered nor lost yet.
func (f *Fabric) InFlight() uint64 { return f.inFlight }

// Register attaches a server at addr under ToR tor with a delivery
// handler. Re-registering an address replaces its handler.
func (f *Fabric) Register(addr packet.IPv4, tor int, h Handler) {
	f.nodes[addr] = &node{addr: addr, tor: tor, handler: h}
}

// Unregister detaches a server (a crashed SmartNIC stops receiving).
func (f *Fabric) Unregister(addr packet.IPv4) {
	delete(f.nodes, addr)
}

// SetHandler swaps a node's handler in place.
func (f *Fabric) SetHandler(addr packet.IPv4, h Handler) error {
	n, ok := f.nodes[addr]
	if !ok {
		return fmt.Errorf("fabric: no node at %v", addr)
	}
	n.handler = h
	return nil
}

// SetBurstHandler installs a coalesced-delivery handler for a node.
// Every delivery event hands it its whole same-instant group (a Send
// arrives as a group of one); without one, the plain Handler gets the
// group packet by packet.
func (f *Fabric) SetBurstHandler(addr packet.IPv4, h BurstHandler) error {
	n, ok := f.nodes[addr]
	if !ok {
		return fmt.Errorf("fabric: no node at %v", addr)
	}
	n.burst = h
	return nil
}

// ToROf returns the ToR a server sits under; -1 if unknown.
func (f *Fabric) ToROf(addr packet.IPv4) int {
	if n, ok := f.nodes[addr]; ok {
		return n.tor
	}
	return -1
}

// SameToR reports whether two servers share a ToR.
func (f *Fabric) SameToR(a, b packet.IPv4) bool {
	na, oka := f.nodes[a]
	nb, okb := f.nodes[b]
	return oka && okb && na.tor == nb.tor
}

// Latency returns the one-way delay between two registered servers
// for a packet of size bytes.
func (f *Fabric) Latency(from, to packet.IPv4, size int) sim.Time {
	return f.propDelay(from, to) + f.serTime(size)
}

// propDelay returns the propagation delay between two servers.
func (f *Fabric) propDelay(from, to packet.IPv4) sim.Time {
	if f.SameToR(from, to) {
		return LatencySameToR
	}
	return LatencyInterToR
}

// serTime returns the link serialization delay for size bytes, memoized
// on the last size seen.
func (f *Fabric) serTime(size int) sim.Time {
	if size != f.serMemoSize {
		f.serMemoSize = size
		f.serMemoVal = sim.Time(float64(size) / LinkBandwidth * float64(sim.Second))
	}
	return f.serMemoVal
}

func (f *Fabric) getGroup() []*packet.Packet {
	if n := len(f.groupFree); n > 0 {
		g := f.groupFree[n-1]
		f.groupFree = f.groupFree[:n-1]
		return g
	}
	return make([]*packet.Packet, 0, 32)
}

func (f *Fabric) putGroup(g []*packet.Packet) {
	f.groupFree = append(f.groupFree, g[:0])
}

// Send delivers p from one server to another: it is SendBurst with a
// burst of one, with the same loss, fault-injection, ownership and
// wire-mode contract.
func (f *Fabric) Send(from, to packet.IPv4, p *packet.Packet) {
	one := [1]*packet.Packet{p}
	f.SendBurst(from, to, one[:])
}

// SendBurst delivers a batch of packets from one server to another
// after the link latency (plus any injected jitter). Sending to an
// unregistered destination counts as lost, as does a partition active
// at either end of the flight: a partition raised mid-flight kills the
// frames already on the wire. Each packet's hop counter advances on
// delivery. Consecutive packets that land at the same instant share
// one delivery event and, with a BurstHandler, one call; delivery is
// in slice order.
//
// Ownership: SendBurst takes every packet in ps. Packets lost at the
// link, dropped by the fault injector, or lost in flight are released
// back to the pool here; delivered packets pass ownership to the
// handler. In wire mode the handler gets decoded copies, and each
// original and its wire buffer are released when the flight resolves.
// The caller must not touch ps or its packets afterward (the slice
// itself is not retained).
func (f *Fabric) SendBurst(from, to packet.IPv4, ps []*packet.Packet) {
	// The destination, partition state, and propagation delay cannot
	// change mid-call: fault injectors are pure per-send draws (the
	// FaultInjector contract) and no events run inside one burst, so
	// the reachability checks run once per burst.
	if _, ok := f.nodes[to]; !ok || f.partitions[pairKey(from, to)] {
		for _, p := range ps {
			p.CheckLive()
			f.Sends++
			f.Lost++
			f.traceHop(p.ID, from, "wire-lost", to)
			p.Release()
		}
		return
	}
	prop := f.propDelay(from, to)
	group := f.getGroup()
	var groupLat sim.Time
	for _, p := range ps {
		p.CheckLive()
		f.Sends++
		lat := prop + f.serTime(p.SizeBytes)
		if f.faults != nil {
			v := f.faults(from, to, p)
			if v.Drop {
				if !v.SkipAccounting {
					f.ChaosLost++
				}
				f.traceHop(p.ID, from, "chaos-lost", to)
				p.Release()
				continue
			}
			if v.Jitter > 0 {
				lat += v.Jitter
			}
		}
		f.BytesSent += uint64(p.SizeBytes)
		if len(group) > 0 && lat != groupLat {
			f.deliverBurst(from, to, group, groupLat)
			group = f.getGroup()
		}
		groupLat = lat
		group = append(group, p)
	}
	if len(group) > 0 {
		f.deliverBurst(from, to, group, groupLat)
	} else {
		f.putGroup(group)
	}
}

// deliverBurst schedules one delivery event for a group of packets
// sharing a deadline. Reachability is re-checked at delivery time. In
// wire mode each packet is marshaled now and decoded at delivery,
// before its original is released, so a copy never reuses its
// original's pooled struct. The group slice returns to the freelist
// once the event resolves — the handlers take the packets, never the
// slice.
func (f *Fabric) deliverBurst(from, to packet.IPv4, group []*packet.Packet, lat sim.Time) {
	dst := f.nodes[to]
	f.inFlight += uint64(len(group))
	if !f.wireMode {
		t := f.taskFree
		if t == nil {
			t = &deliverTask{f: f}
		} else {
			f.taskFree = t.next
			t.next = nil
		}
		t.from, t.to, t.dst, t.group = from, to, dst, group
		f.loop.AtTask(f.loop.Now()+lat, t)
		return
	}
	// Wire mode is a debugging mode, so the closure-per-group cost
	// stays acceptable.
	wires := make([][]byte, len(group))
	for i, p := range group {
		wires[i] = p.Marshal()
	}
	f.loop.Schedule(lat, func() {
		f.inFlight -= uint64(len(group))
		if !f.reachable(from, to, dst) {
			for i, p := range group {
				packet.PutBuf(wires[i])
				f.lose(from, to, p)
			}
			f.putGroup(group)
			return
		}
		deliver := group[:0]
		for i, p := range group {
			q, err := packet.Unmarshal(wires[i])
			packet.PutBuf(wires[i])
			if err != nil {
				f.lose(from, to, p)
				continue
			}
			p.Release()
			deliver = append(deliver, q)
		}
		f.handOver(from, to, dst, deliver)
		f.putGroup(group)
	})
}

// reachable reports whether a flight from one server to another that
// was sent to node dst can still land: the destination may have
// crashed, or the pair partitioned, while in flight.
func (f *Fabric) reachable(from, to packet.IPv4, dst *node) bool {
	cur, ok := f.nodes[to]
	return ok && cur == dst && (cur.handler != nil || cur.burst != nil) && !f.partitions[pairKey(from, to)]
}

// lose counts and releases a packet lost on the wire.
func (f *Fabric) lose(from, to packet.IPv4, p *packet.Packet) {
	f.Lost++
	f.traceHop(p.ID, from, "wire-lost", to)
	p.Release()
}

// handOver delivers a resolved group to its node: the burst handler
// when there is one, else the per-packet handler in order.
func (f *Fabric) handOver(from, to packet.IPv4, n *node, group []*packet.Packet) {
	for _, q := range group {
		q.Hops++
		f.Delivered++
		f.traceHop(q.ID, from, "wire", to)
	}
	if n.burst != nil {
		n.burst(group)
		return
	}
	for _, q := range group {
		n.handler(q)
	}
}

// deliverTask is one scheduled non-wire delivery group, pooled on the
// fabric and scheduled via sim.Loop.AtTask so a burst's delivery event
// allocates nothing. It re-checks reachability at delivery time.
type deliverTask struct {
	f        *Fabric
	from, to packet.IPv4
	dst      *node
	group    []*packet.Packet
	next     *deliverTask
}

// Run fires the delivery. The task recycles itself before touching the
// fabric — fields are copied out first, so handlers that reenter
// SendBurst can reuse the struct safely.
func (t *deliverTask) Run() {
	f, from, to, dst, group := t.f, t.from, t.to, t.dst, t.group
	t.dst, t.group = nil, nil
	t.next = f.taskFree
	f.taskFree = t
	f.inFlight -= uint64(len(group))
	if !f.reachable(from, to, dst) {
		for _, p := range group {
			f.lose(from, to, p)
		}
	} else {
		f.handOver(from, to, dst, group)
	}
	f.putGroup(group)
}

// Nodes returns the registered addresses (order unspecified).
func (f *Fabric) Nodes() []packet.IPv4 {
	out := make([]packet.IPv4, 0, len(f.nodes))
	for a := range f.nodes {
		out = append(out, a)
	}
	return out
}
