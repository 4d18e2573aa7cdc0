// Package topo holds the pieces of a simulated topology that hide
// something: the delivery Demux (the one owner of pooled-packet release),
// the access-point assembly (queue + both radio links + the Attachment
// seam a solution plugs into), the Station association that handover
// re-points, the cell-to-shard Partition, and NewQdisc. Wired segments and
// routers are plain netem.Link and netem.Router values; the scenario
// package wires everything together directly, in build order, and the
// datapath is direct Receiver calls.
//
// The package is deliberately solution-agnostic: it knows how to assemble
// the AP's queue and radio links, but the mechanism under test (Zhuge,
// FastAck, ABC) is injected by the caller through the Attachment
// interface, keeping topo free of dependencies on core and baseline.
package topo

import "github.com/zhuge-project/zhuge/internal/netem"

// Demux is a terminal delivery point: where a packet's simulated life
// ends and an endpoint's logic runs. It fans packets out to registered
// receivers by flow key (optionally reversed, for server-side demuxing of
// uplink traffic), runs delivery taps first, and Releases every packet
// afterwards — endpoints copy what they need; the pooled packet never
// escapes delivery.
//
// One Demux instance serves any number of upstream links: the AP downlink
// and every secondary station deliver into the same client demux, so taps
// (metrics, FastAck) observe all air deliveries uniformly.
type Demux struct {
	reverse bool
	dst     map[netem.FlowKey]netem.Receiver
	taps    []func(p *netem.Packet)
}

// NewDemux builds a delivery demux. With reverse set, packets are looked
// up under Flow.Reverse() — the server-side convention, where receivers
// register under their downlink flow but consume uplink packets.
func NewDemux(reverse bool) *Demux {
	return &Demux{reverse: reverse, dst: make(map[netem.FlowKey]netem.Receiver)}
}

// Register binds the receiver for a flow. Registration keys are always
// the downlink flow; a reverse demux translates on receive.
func (d *Demux) Register(flow netem.FlowKey, r netem.Receiver) { d.dst[flow] = r }

// AddTap registers a function invoked on every packet before delivery.
// Taps added after wiring still see all later packets.
func (d *Demux) AddTap(tap func(p *netem.Packet)) { d.taps = append(d.taps, tap) }

// Receive implements netem.Receiver: run taps, deliver, Release.
func (d *Demux) Receive(p *netem.Packet) {
	for _, tap := range d.taps {
		tap(p)
	}
	key := p.Flow
	if d.reverse {
		key = key.Reverse()
	}
	if dst, ok := d.dst[key]; ok {
		dst.Receive(p)
	}
	p.Release()
}
