package vswitch

// The vSwitch datapath (DESIGN.md §10, §15) is one plan/act pipeline
// per Nezha pipeline (Fig 5), and a scalar packet is a burst of one.
// FromVM, FromVMBurst, HandleUnderlay and HandleUnderlayBurst all
// plan a run of same-pipeline packets in arrival order (datapath.go),
// submit the planned acts to the CPU model as one burst, and execute
// each act at its CPU completion through a pooled burstRun sink. What
// a longer run amortizes is per-arrival bookkeeping: the vNIC lookup,
// the CPU scheduler events (one per completion wave, via
// nic.CPU.SubmitBurstTo), and the fabric events (one per
// same-deadline group, via fabric.SendBurst). A run of one takes one
// CPU event and one fabric event.

import (
	"nezha/internal/packet"
	"nezha/internal/prof"
	"nezha/internal/sim"
	"nezha/internal/tables"
)

// burstAct is the planned egress side effect of one CPU-submitted
// packet. The pre-CPU stages (lookup, state, admission) run at plan
// time, at the packet's arrival; the act executes when the CPU
// completes the packet.
type burstAct struct {
	p      *packet.Packet
	cycles uint64
	kind   uint8
	policy tables.StatsPolicy // actNotify: the stats policy to install
	strip  bool               // strip the Nezha header before egress
	to     packet.IPv4        // actForward / actRelay destination
	peer   uint32             // actForward peer-vNIC rewrite
	vnic   uint32             // actDeliver target vNIC
}

const (
	actForward uint8 = iota // overlay rewrite + encap + fabric send
	actRelay                // encap + fabric send (BE→FE, FE→BE relays)
	actDeliver              // hand to the local VM
	actNotify               // absorb a notify packet, install its policy
	actDropACL
	actDropNoRoute
)

// pendSend is an egress waiting for the end of its completion wave,
// when all same-destination sends of the wave leave as one fabric
// burst.
type pendSend struct {
	to packet.IPv4
	p  *packet.Packet
}

// FromVMBurst injects a batch of TX packets from local VMs, taking
// ownership of each exactly as FromVM does. Packets are processed in
// slice order; consecutive same-vNIC packets share one vNIC lookup and
// one CPU/fabric event stream.
func (vs *VSwitch) FromVMBurst(ps []*packet.Packet) {
	for i := 0; i < len(ps); {
		j := i + 1
		for j < len(ps) && ps[j].VNIC == ps[i].VNIC {
			j++
		}
		vs.fromVMRun(ps[i:j])
		i = j
	}
}

// fromVMRun is FromVM for a run of same-vNIC packets.
func (vs *VSwitch) fromVMRun(ps []*packet.Packet) {
	vs.Stats.FromVM += uint64(len(ps))
	if vs.ob != nil {
		for _, p := range ps {
			p.CheckLive()
			vs.hop(p, "ingress-vm")
		}
	}
	if vs.crashed {
		for _, p := range ps {
			vs.drop(p, DropCrashed)
		}
		return
	}
	vn, ok := vs.vnics[ps[0].VNIC]
	if !ok {
		for _, p := range ps {
			vs.drop(p, DropNoRules)
		}
		return
	}
	// VM-level rate admission runs over the whole batch in arrival
	// order before planning — the limiter is a strictly order-sensitive
	// shared bucket.
	admitted := vs.admitBuf[:0]
	for _, p := range ps {
		if vs.rateAdmit(vn, p) {
			admitted = append(admitted, p)
		}
	}
	vs.admitBuf = admitted[:0]
	if len(admitted) == 0 {
		return
	}
	switch {
	case vn.offloaded && len(vn.fes) > 0:
		vs.runPipeline(pipeBeTX, vn, nil, admitted)
	case vn.rules != nil:
		vs.runPipeline(pipeLocalTX, vn, nil, admitted)
	default:
		for _, p := range admitted {
			vs.drop(p, DropNoRules)
		}
	}
}

// HandleUnderlayBurst receives a coalesced fabric burst. Runs of
// consecutive packets that classify to the same RX pipeline (hosted-FE
// RX, monolithic RX) move as a unit; everything else — probes, pongs,
// control RPCs, Nezha-typed relays — goes through HandleUnderlay
// packet by packet, in order.
func (vs *VSwitch) HandleUnderlayBurst(ps []*packet.Packet) {
	if vs.crashed || len(ps) == 1 {
		for _, p := range ps {
			vs.HandleUnderlay(p)
		}
		return
	}
	for i := 0; i < len(ps); {
		cls, vnic := vs.classifyRX(ps[i])
		j := i + 1
		if cls != classOther {
			// Extending the run needs no classify map lookups: a packet
			// with the same vNIC, no Nezha metadata, and no flow-direct
			// port classifies identically by construction.
			for j < len(ps) && vs.sameRXClass(ps[j], vnic) {
				j++
			}
		}
		run := ps[i:j]
		switch cls {
		case classFeRX:
			vs.Stats.FromNet += uint64(len(run))
			vs.runPipeline(pipeFeRX, nil, vs.fes[vnic], run)
		case classLocalRX:
			vs.Stats.FromNet += uint64(len(run))
			vs.runPipeline(pipeLocalRX, vs.vnics[vnic], nil, run)
		default:
			vs.HandleUnderlay(run[0])
		}
		i = j
	}
}

const (
	classOther uint8 = iota // HandleUnderlay dispatches it alone
	classFeRX
	classLocalRX
)

// classifyRX decides which batched RX pipeline (if any) an underlay
// packet belongs to. It mirrors HandleUnderlay's dispatch order.
func (vs *VSwitch) classifyRX(p *packet.Packet) (uint8, uint32) {
	if p.Tuple.Proto == packet.ProtoUDP &&
		(p.Tuple.DstPort == ProbePort || p.Tuple.DstPort == mutualPort || p.Tuple.DstPort == CtrlPort) {
		return classOther, 0
	}
	if p.Nezha != nil && p.Nezha.Type != packet.NezhaNone {
		return classOther, 0
	}
	if _, ok := vs.fes[p.VNIC]; ok {
		return classFeRX, p.VNIC
	}
	if vn, ok := vs.vnics[p.VNIC]; ok && vn.rules != nil {
		return classLocalRX, p.VNIC
	}
	return classOther, 0
}

// sameRXClass reports whether p classifies to the same non-Other class
// as an already-classified packet of vNIC vnic, without touching the
// FE/vNIC maps.
func (vs *VSwitch) sameRXClass(p *packet.Packet, vnic uint32) bool {
	if p.VNIC != vnic {
		return false
	}
	if p.Tuple.Proto == packet.ProtoUDP &&
		(p.Tuple.DstPort == ProbePort || p.Tuple.DstPort == mutualPort || p.Tuple.DstPort == CtrlPort) {
		return false
	}
	return p.Nezha == nil || p.Nezha.Type == packet.NezhaNone
}

// runPipeline plans a run of same-pipeline packets in arrival order
// and submits the planned acts to the CPU as one burst. vn is set for
// the resident-vNIC pipelines, fe for the hosted-FE ones, whose work
// counts as remote.
func (vs *VSwitch) runPipeline(pipe uint8, vn *vnicState, fe *feInstance, ps []*packet.Packet) {
	var vp *prof.VNICProf
	if fe != nil {
		vp = vs.profFE(fe)
	} else {
		vp = vs.profVNIC(vn)
	}
	r := vs.getRun()
	acts := r.one[:0]
	if len(ps) > 1 {
		acts = vs.getActs(len(ps))
	}
	var a burstAct
	for _, p := range ps {
		key, hash, _ := p.SessionKeyHashed()
		if vs.planPacket(pipe, vn, fe, vp, p, key, hash, &a) {
			acts = append(acts, a)
		}
	}
	r.acts = acts
	r.remaining = len(acts)
	if len(acts) == 0 {
		vs.putRun(r)
		return
	}
	costs := vs.burstCosts[:0]
	for i := range acts {
		costs = append(costs, acts[i].cycles)
		if fe != nil {
			vs.cyclesRemote += acts[i].cycles
		} else {
			vs.cyclesLocal += acts[i].cycles
		}
	}
	vs.burstCosts = costs
	vs.inFlightCPU += len(acts)
	vs.cpu.SubmitBurstTo(costs, r)
}

// getActs takes a pooled act buffer for a multi-packet run; the run
// returns it when its last completion fires, so several runs can be in
// flight with their own buffers.
func (vs *VSwitch) getActs(n int) []burstAct {
	if m := len(vs.actsFree); m > 0 {
		a := vs.actsFree[m-1]
		vs.actsFree = vs.actsFree[:m-1]
		return a[:0]
	}
	return make([]burstAct, 0, n)
}

// burstRun is one submitted run's nic.BurstSink: it executes each act
// at its CPU completion and recycles itself (and a pooled act buffer)
// when the run's last item resolves. Runs are pooled on the vSwitch,
// and a run of one plans into the inline slot, so submitting a run
// allocates nothing.
type burstRun struct {
	vs        *VSwitch
	acts      []burstAct
	one       [1]burstAct // acts' backing for a run of one
	remaining int
	next      *burstRun
}

func (vs *VSwitch) getRun() *burstRun {
	r := vs.runFree
	if r == nil {
		return &burstRun{vs: vs}
	}
	vs.runFree = r.next
	r.next = nil
	return r
}

// putRun recycles r, and its act buffer unless that is the inline slot.
func (vs *VSwitch) putRun(r *burstRun) {
	if cap(r.acts) > 1 {
		vs.actsFree = append(vs.actsFree, r.acts)
	}
	r.acts = nil
	r.one[0] = burstAct{}
	r.next = vs.runFree
	vs.runFree = r
}

// Complete implements nic.BurstSink: the act stage of one packet,
// executed at CPU completion (or a synchronous overload drop).
func (r *burstRun) Complete(i int, ok bool, d sim.Time) {
	vs := r.vs
	vs.inFlightCPU--
	a := &r.acts[i]
	if !ok {
		vs.drop(a.p, DropOverload)
	} else {
		if vs.ob != nil {
			vs.hopCPU(a.p, a.cycles, d)
		}
		switch a.kind {
		case actForward:
			a.p.VNIC = a.peer
			a.p.Dir = packet.DirRX
			a.p.Encap(vs.cfg.Addr, a.to)
			vs.Stats.Sent++
			vs.pend = append(vs.pend, pendSend{to: a.to, p: a.p})
		case actRelay:
			a.p.Encap(vs.cfg.Addr, a.to)
			vs.Stats.Sent++
			vs.pend = append(vs.pend, pendSend{to: a.to, p: a.p})
		case actDeliver:
			if a.strip {
				vs.stripNezha(a.p)
			}
			vs.deliverToVM(a.vnic, a.p)
		case actNotify:
			vs.Stats.Absorbed++
			key, hash, _ := a.p.SessionKeyHashed()
			a.p.Release()
			if cur := vs.sessions.PeekH(key, hash); cur != nil {
				st := cur.State
				st.Policy = a.policy
				_ = vs.sessions.SetState(cur, st)
			}
		case actDropACL:
			vs.drop(a.p, DropACL)
		case actDropNoRoute:
			vs.drop(a.p, DropNoRoute)
		}
	}
	r.remaining--
	if r.remaining == 0 {
		vs.putRun(r)
	}
}

// WaveEnd implements nic.BurstSink: flush the wave's coalesced sends.
// Safe even after the run recycled itself in its final Complete — the
// vSwitch pointer survives recycling, and no new run can claim this
// struct before this call returns (flushPend only schedules events).
func (r *burstRun) WaveEnd([]int32) { r.vs.flushPend() }

// flushPend ships the wave's accumulated sends, one fabric burst per
// run of consecutive same-destination packets.
func (vs *VSwitch) flushPend() {
	pend := vs.pend
	vs.pend = vs.pend[:0]
	for i := 0; i < len(pend); {
		j := i + 1
		for j < len(pend) && pend[j].to == pend[i].to {
			j++
		}
		buf := vs.sendBuf[:0]
		for k := i; k < j; k++ {
			buf = append(buf, pend[k].p)
		}
		vs.sendBuf = buf[:0]
		vs.fab.SendBurst(vs.cfg.Addr, pend[i].to, buf)
		i = j
	}
}
