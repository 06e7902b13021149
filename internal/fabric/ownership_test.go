//go:build simdebug

package fabric

import (
	"testing"

	"nezha/internal/packet"
	"nezha/internal/sim"
)

// These tests only exist under -tags simdebug, where a double Release
// panics. Send and SendBurst take ownership of their packets: every
// packet they lose must already be back in the pool, so the caller's
// stray second Release trips the guard.

func pooledPkt(id uint64) *packet.Packet {
	return packet.Get(id, 1, 1, packet.FiveTuple{
		SrcIP: ip(10, 0, 0, 1), DstIP: ip(10, 0, 0, 2),
		SrcPort: 1, DstPort: 80, Proto: packet.ProtoTCP,
	}, packet.DirTX, 0, 100)
}

func mustDoubleRelease(t *testing.T, name string, p *packet.Packet) {
	t.Helper()
	defer func() {
		if r := recover(); r != "packet: double release" {
			t.Fatalf("%s: second Release of a lost packet: got panic %v, want double release", name, r)
		}
	}()
	p.Release()
}

func TestSendReleasesLostPackets(t *testing.T) {
	a, b := ip(1, 0, 0, 1), ip(1, 0, 0, 2)
	for _, tc := range []struct {
		name  string
		burst bool // send three packets with SendBurst instead of one with Send
		setup func(f *Fabric)
		after func(f *Fabric) // runs between the send and the flight resolving
	}{
		{name: "unreachable", setup: func(f *Fabric) { f.Unregister(b) }},
		{name: "partition", setup: func(f *Fabric) { f.Partition(a, b) }},
		{name: "chaos-drop", setup: func(f *Fabric) {
			f.SetFaultInjector(func(from, to packet.IPv4, p *packet.Packet) FaultVerdict {
				return FaultVerdict{Drop: true}
			})
		}},
		{name: "in-flight", after: func(f *Fabric) { f.Unregister(b) }},
		{name: "in-flight-wire", setup: func(f *Fabric) { f.SetWireMode(true) }, after: func(f *Fabric) { f.Partition(a, b) }},
		{name: "delivered-wire-original", setup: func(f *Fabric) { f.SetWireMode(true) }},
		{name: "burst-chaos-drop-one-in-three", burst: true, setup: func(f *Fabric) {
			n := 0
			f.SetFaultInjector(func(from, to packet.IPv4, p *packet.Packet) FaultVerdict {
				n++
				return FaultVerdict{Drop: n%3 == 2}
			})
		}},
		{name: "burst-in-flight-wire", burst: true, setup: func(f *Fabric) { f.SetWireMode(true) }, after: func(f *Fabric) { f.Partition(a, b) }},
	} {
		loop := sim.NewLoop(1)
		f := New(loop)
		f.Register(a, 0, nil)
		f.Register(b, 0, func(p *packet.Packet) { p.Release() })
		if tc.setup != nil {
			tc.setup(f)
		}
		ps := []*packet.Packet{pooledPkt(1)}
		if tc.burst {
			ps = append(ps, pooledPkt(2), pooledPkt(3))
			f.SendBurst(a, b, append([]*packet.Packet(nil), ps...))
		} else {
			f.Send(a, b, ps[0])
		}
		if tc.after != nil {
			tc.after(f)
		}
		loop.RunAll()
		if f.InFlight() != 0 {
			t.Fatalf("%s: %d packets still in flight", tc.name, f.InFlight())
		}
		for _, p := range ps {
			mustDoubleRelease(t, tc.name, p)
		}
	}
}
