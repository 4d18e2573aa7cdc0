// Package netem provides the network-emulation primitives shared by every
// component of the simulator: the packet model and its pool, flow
// identification, fixed-rate serialising links, the flow Router that
// handover re-points, and the delivery Demux where pooled packets are
// released. The wireless bottleneck link lives in internal/wireless; queue
// disciplines in internal/queue.
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

	Size int // bytes on the wire, headers included

	// Seq is a transport-scoped identifier used only by endpoints and
	// debug output; in-network elements must not interpret it.
	Seq uint64

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

	Payload any
}

// packetPool recycles Packet structs across flows and (when experiments run
// in parallel) across concurrently running simulations. Endpoints allocate
// every data/ACK/feedback packet they send; recycling them at the points
// where packets provably die — final demux delivery, qdisc drops — removes
// the per-packet allocation from the enqueue hot path.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// NewPacket returns a zeroed Packet from the pool. Callers populate it and
// hand it into the topology; ownership transfers with it.
func NewPacket() *Packet {
	p := packetPool.Get().(*Packet)
	p.released = false
	return p
}

// payloadReleaser is satisfied by pooled payload types (packet.FeedbackBuf);
// their backing storage returns to its own pool together with the packet
// that carried it. The interface is structural so netem does not import the
// payload's package.
type payloadReleaser interface{ Release() }

// Release returns a packet to the pool. Only the component that consumes a
// packet terminally — the delivery demux, or a qdisc dropping it — may call
// Release; after the call every reference to p is invalid, including its
// Payload (pooled payloads are recycled with the packet). Releasing a packet
// that was not pool-allocated is harmless (it simply joins the pool);
// releasing any packet twice would hand one struct to two owners, and panics.
func (p *Packet) Release() {
	if p.released {
		panic("netem: Packet released twice")
	}
	if p.visit != nil {
		p.visit.out++
	}
	if r, ok := p.Payload.(payloadReleaser); ok {
		r.Release()
	}
	*p = Packet{released: true}
	packetPool.Put(p)
}

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
// p carry the hold until its Release, or nil to clear the tag of a copy that
// leaves the visited cell.
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
	p   *Packet
	dst Receiver
}

// NewLink returns a link serialising at rate bps with the given one-way
// propagation delay, delivering to dst.
func NewLink(s *sim.Simulator, rate float64, delay time.Duration, dst Receiver) *Link {
	l := &Link{sim: s, rate: rate, delay: delay, dst: dst}
	l.inflight = sim.NewLine(s, func(d linkDelivery) { d.dst.Receive(d.p) })
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
	l.inflight.Push(deliverAt, linkDelivery{p: p, dst: l.dst})
}
