// Package netem provides the network-emulation primitives shared by every
// component of the simulator: the packet model and its free lists, flow
// identification, fixed-rate serialising links, the flow Router that
// handover re-points, the delivery Demux, and Held, the one rule every hop
// that keeps a packet across events applies. The wireless bottleneck link
// lives in internal/wireless; queue disciplines in internal/queue.
package netem

import (
	"fmt"
	"sync"
	"time"

	"github.com/zhuge-project/zhuge/internal/sim"
)

// FlowKey is the 5-tuple Zhuge uses to identify flows (§5.2: "Zhuge only
// looks at the 5-tuple ... and views the sequence and ACK streams as
// blackboxes").
type FlowKey struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Reverse returns the key of the opposite direction of the same flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{
		SrcIP: k.DstIP, DstIP: k.SrcIP,
		SrcPort: k.DstPort, DstPort: k.SrcPort,
		Proto: k.Proto,
	}
}

// String formats the key for logs.
func (k FlowKey) String() string {
	return fmt.Sprintf("%d.%d:%d>%d.%d:%d/%d",
		k.SrcIP>>16, k.SrcIP&0xffff, k.SrcPort,
		k.DstIP>>16, k.DstIP&0xffff, k.DstPort, k.Proto)
}

// MarshalText lets FlowKey serve as a JSON map key (encoding/json renders
// text-marshaling keys sorted), so per-flow maps export deterministically.
func (k FlowKey) MarshalText() ([]byte, error) {
	return []byte(k.String()), nil
}

// Hash is a cheap mixing hash for flow classification (FQ-CoDel buckets).
func (k FlowKey) Hash() uint32 {
	h := uint32(2166136261)
	mix := func(v uint32) {
		h ^= v
		h *= 16777619
	}
	mix(k.SrcIP)
	mix(k.DstIP)
	mix(uint32(k.SrcPort)<<16 | uint32(k.DstPort))
	mix(uint32(k.Proto))
	// Murmur3 finalizer: avalanche high bits into low bits so bucket
	// selection (hash mod N) sees every input bit.
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// Kind classifies packets for components that treat data and feedback
// differently (the Feedback Updater delays ACKs, not data).
type Kind uint8

// Packet kinds.
const (
	KindData Kind = iota
	KindAck
	KindFeedback // in-band feedback (e.g. RTCP)
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindFeedback:
		return "feedback"
	default:
		return "unknown"
	}
}

// Packet is the simulator's unit of transmission. Payload carries the
// protocol-specific view (a TCP segment, an RTP packet, ...) which only the
// endpoints interpret; in-network elements see size, flow and kind, exactly
// the visibility a real AP has into (possibly encrypted) traffic.
type Packet struct {
	Flow FlowKey
	Kind Kind

	// ABCMark carries the one-bit accelerate/brake mark of the ABC
	// baseline (it models ABC's reuse of an ECN-like header bit).
	ABCMark uint8

	// released is set by Release and cleared by NewPacket, so that a second
	// Release panics instead of pooling one struct twice.
	released bool
	// gen counts the struct's Releases. NewPacket keeps it, so a Held taken
	// in one life of the struct does not match a later life.
	gen uint32

	Size int // bytes on the wire, headers included

	// Seq is a transport-scoped identifier used only by endpoints and
	// debug output; in-network elements must not interpret it. Aux is a
	// second header word only endpoints read: a TCP ACK's timestamp echo, a
	// QUIC packet's stream offset.
	Seq uint64
	Aux uint64

	SentAt     sim.Time // stamped by the original sender
	EnqueuedAt sim.Time // stamped by the bottleneck qdisc on enqueue

	// APArrival and Predicted are stamped by the Zhuge AP on downlink
	// data packets: when the packet reached the AP and the Fortune
	// Teller's total-delay prediction for it. The experiment harness
	// compares Predicted against the actual AP-to-client delay
	// (Figure 19 prediction accuracy).
	APArrival sim.Time
	Predicted time.Duration

	// visit is the Visit this packet counts toward while it lives in a
	// cell it was sent into across a cut edge; nil everywhere else.
	visit *Visit
	// home is the free list of the endpoint that made the packet, nil for
	// one from the shared pool.
	home *Maker

	Payload any
}

// Maker is the free list of one endpoint that makes packets: a packet comes
// back to it, with its payload, when it dies untagged, in its maker's cell.
// A Maker serves one simulator, or the live relay under its mutex, so what a
// run allocates does not depend on the host.
type Maker struct{ free []*Packet }

// NewPacket returns a packet from the list, zeroed but for Payload (its last
// life's, for the endpoint to reuse or overwrite; nil for a new packet).
// Fill it field by field (a whole-struct assignment would overwrite its
// generation) and hand it into the topology; ownership transfers with it.
func (m *Maker) NewPacket() *Packet {
	n := len(m.free)
	if n == 0 {
		return &Packet{home: m}
	}
	p := m.free[n-1]
	m.free = m.free[:n-1]
	p.released = false
	return p
}

// packetPool holds the packets no Maker takes back: copies (Clone), packets
// that died in a cell they were sent into across a cut edge, and those of
// callers without a list (the live relay's client feedback, tests).
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket returns a zeroed packet from the shared pool, for callers that
// own no Maker; see Maker.NewPacket for how to fill it.
func NewPacket() *Packet {
	p := packetPool.Get().(*Packet)
	p.released = false
	return p
}

// payloadReleaser is satisfied by payload types that refuse a second
// Release (packet.FeedbackBuf, rtp.Payload), released with the packet that
// carried it. The interface is structural so netem does not import the
// payload's package.
type payloadReleaser interface{ Release() }

// Release ends a packet's life. Only the hop where a packet's life ends may
// call it: the delivery Demux; a qdisc or wireless.Link dropping it (an
// enqueue reject, a CoDel drop, air loss); core.InbandUpdater absorbing a
// client TWCC packet; the live relay once it has written a packet out.
// After the call every reference to p is invalid, including its Payload,
// and a hop still holding p panics when it hands p on (Held). An untagged
// packet goes back to its Maker; a visit-tagged one may die in a cell
// other than its maker's, which runs in parallel with it, so it goes to the
// shared pool and its payload to the collector. Releasing any packet twice
// would hand one struct to two owners, and panics.
func (p *Packet) Release() {
	if p.released {
		panic("netem: Packet released twice")
	}
	if r, ok := p.Payload.(payloadReleaser); ok {
		r.Release()
	}
	home := p.home
	if p.visit != nil {
		p.visit.out++
		home = nil
	}
	if home == nil {
		*p = Packet{released: true, gen: p.gen + 1}
		packetPool.Put(p)
		return
	}
	*p = Packet{released: true, gen: p.gen + 1, home: home, Payload: p.Payload}
	home.free = append(home.free, p)
}

// Clone returns a copy of p's fields from the shared pool. The copy keeps
// its own generation, carries no visit (it was never counted into one) and
// belongs to no Maker.
func (p *Packet) Clone() *Packet {
	cp := NewPacket()
	gen := cp.gen
	*cp = *p
	cp.released, cp.gen, cp.visit, cp.home = false, gen, nil, nil
	return cp
}

// Held is a packet kept by a hop across events (a qdisc's buffer, a link's
// packets in flight, a pacer's queue, a delayed ACK, a cut edge's inbox):
// the pointer and the generation it had when the hop took it. A hop that
// took a packet owns it until it hands it on, so a Release in between is
// the fault of whoever kept a reference, and the hop panics with its own
// name instead of handing a recycled struct downstream.
type Held struct {
	p   *Packet
	gen uint32
}

// Hold records p for the hop named holder. It panics if p is released.
func Hold(p *Packet, holder string) Held {
	if p.released {
		heldPanic("netem: released packet handed to ", holder)
	}
	return Held{p, p.gen}
}

// Packet returns the held packet, for holder to read or hand on. It panics
// if the packet was released since Hold, even when NewPacket has recycled
// the struct since.
func (h Held) Packet(holder string) *Packet {
	if h.p.gen != h.gen {
		heldPanic("netem: packet released while held by ", holder)
	}
	return h.p
}

// heldPanic reports a released packet at the hop named holder.
func heldPanic(msg, holder string) { panic(msg + holder) }

// Visit counts what one roamed station has alive in the cell it visits:
// the packets its home cell sent there across a cut edge (Enter), plus any
// state in that cell still derived from them (Hold). Every such packet dies
// through Release, which counts it out, so the visit has drained when Live
// reads zero. The sharded runtime keeps the visit's return edge armed until
// then: nothing of the visit can cross back home after it.
//
// The count has two fields so that each has one writer across a parallel
// window: in is written only by the sending cell's events, out only by the
// visited cell's (and by barrier code). Live reads both, so it may only be
// called at a barrier, when no cell is running.
type Visit struct {
	in  int64
	out int64
}

// Enter tags p as sent into the visited cell and counts it in. The sending
// cell calls it before handing p to the cut edge.
func (v *Visit) Enter(p *Packet) {
	v.in++
	p.visit = v
}

// Hold keeps the visit live for state in the visited cell that outlives
// the packet it came from. Give the hold back with Unhold, or hand it to a
// packet with SetVisit, whose Release then gives it back.
func (v *Visit) Hold() { v.out-- }

// Unhold gives back one Hold.
func (v *Visit) Unhold() { v.out++ }

// Live returns how many packets and holds of the visit are outstanding.
// Barrier-only: the two counts are written by different cells in a window.
func (v *Visit) Live() int64 { return v.in - v.out }

// Visit returns the visit p counts toward, or nil.
func (p *Packet) Visit() *Visit { return p.visit }

// SetVisit re-tags p without counting anything in: pass a held visit to let
// p carry the hold until its Release.
func (p *Packet) SetVisit(v *Visit) { p.visit = v }

// Receiver consumes packets. Every hop in a topology is a Receiver.
type Receiver interface {
	Receive(p *Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(p *Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(p *Packet) { f(p) }

// Sink discards packets; useful as a default destination in tests.
var Sink Receiver = ReceiverFunc(func(*Packet) {})

// Link is a fixed-rate, fixed-propagation-delay serialising link with an
// unbounded implicit queue. It models the stable segments of the path: the
// WAN between sender and AP, and the AP's Ethernet uplink (§2.3: "the
// latency of the uplink queue at the AP and the latency of WAN is usually
// stable").
type Link struct {
	sim       *sim.Simulator
	rate      float64 // bits per second; 0 means infinite
	delay     time.Duration
	dst       Receiver
	busyUntil sim.Time

	// extra is added to every future delivery time (a chaos latency
	// spike). When it shrinks mid-flight, lastAt clamps new deliveries to
	// the latest one already scheduled: the delay line below panics on a
	// delivery time earlier than the one before it.
	extra  time.Duration
	lastAt sim.Time

	// inflight holds the packets on the wire, in sending order, behind one
	// timer for the whole line rather than one event per packet. Each
	// fires exactly where its own event would have: busyUntil only grows
	// and lastAt clamps extra-delay shrinkage, so delivery times never
	// decrease. Each entry keeps the dst in effect when it was sent, so a
	// SetDst mid-flight redirects only later packets.
	inflight *sim.Line[linkDelivery]
}

type linkDelivery struct {
	h   Held
	dst Receiver
}

// NewLink returns a link serialising at rate bps with the given one-way
// propagation delay, delivering to dst.
func NewLink(s *sim.Simulator, rate float64, delay time.Duration, dst Receiver) *Link {
	l := &Link{sim: s, rate: rate, delay: delay, dst: dst}
	l.inflight = sim.NewLine(s, func(d linkDelivery) { d.dst.Receive(d.h.Packet("netem.Link")) })
	return l
}

// SetDst changes the delivery destination (used while wiring topologies).
func (l *Link) SetDst(dst Receiver) { l.dst = dst }

// Delay returns the link's one-way propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// SetExtraDelay adds d to every future delivery — a chaos latency spike on
// the otherwise-stable wired segment. Packets already in flight keep their
// scheduled times; when the spike clears, new deliveries are clamped to the
// latest already-scheduled one so FIFO order and the nondecreasing delivery
// invariant both hold.
func (l *Link) SetExtraDelay(d time.Duration) { l.extra = d }

// ExtraDelay returns the current chaos extra delay.
func (l *Link) ExtraDelay() time.Duration { return l.extra }

// Receive serialises p and schedules delivery after transmission +
// propagation. Packets share the link in FIFO order.
func (l *Link) Receive(p *Packet) {
	now := l.sim.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	var tx time.Duration
	if l.rate > 0 {
		tx = time.Duration(float64(p.Size*8) / l.rate * float64(time.Second))
	}
	l.busyUntil = start + tx
	deliverAt := l.busyUntil + l.delay + l.extra
	if deliverAt < l.lastAt {
		deliverAt = l.lastAt
	}
	l.lastAt = deliverAt
	l.inflight.Push(deliverAt, linkDelivery{h: Hold(p, "netem.Link"), dst: l.dst})
}
