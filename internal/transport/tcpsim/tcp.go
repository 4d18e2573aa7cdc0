// Package tcpsim implements a simulation TCP: a byte-stream sender with
// pluggable congestion control (internal/cca), cumulative acknowledgements,
// duplicate-ACK fast retransmit, retransmission timeouts with exponential
// backoff and RFC 6298 RTT estimation, and a receiver with out-of-order
// reassembly and ABC mark echo. It models what the paper's TCP evaluation
// needs — CCA reaction dynamics over a lossy, delaying path — not full
// RFC 793 conformance (no handshake, no flow control window).
package tcpsim

import (
	"sort"
	"time"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/transport/ackclock"
)

// Header overheads, matching common practice (IPv4 + TCP + timestamps).
const (
	dataOverhead = 52
	ackSize      = 64
)

// Segment is the header of a simulated TCP data packet. It rides in the
// packet's own fields (Seq, SentAt, and Size less the header bytes); the
// payload is a zero-size tag, which boxing does not allocate.
type Segment struct {
	Seq    uint64 // first byte offset
	Len    int
	SentAt sim.Time // send (or retransmit) timestamp, echoed by the receiver
}

// AckInfo is the header of a simulated TCP ACK packet, riding in its Seq,
// Aux and ABCMark fields under a zero-size tag.
type AckInfo struct {
	Ack     uint64   // cumulative: next expected byte
	Echo    sim.Time // SentAt of the segment that triggered this ack
	ABCMark uint8
}

type segmentTag struct{}
type ackTag struct{}

// Put makes p a data packet carrying s.
func (s Segment) Put(p *netem.Packet) {
	p.Kind, p.Size, p.Seq, p.SentAt, p.Payload = netem.KindData, s.Len+dataOverhead, s.Seq, s.SentAt, segmentTag{}
}

// SegmentOf returns the segment p carries, if it is a TCP data packet.
func SegmentOf(p *netem.Packet) (Segment, bool) {
	_, ok := p.Payload.(segmentTag)
	return Segment{Seq: p.Seq, Len: p.Size - dataOverhead, SentAt: p.SentAt}, ok
}

// Put makes p an ACK carrying a.
func (a AckInfo) Put(p *netem.Packet) {
	p.Kind, p.Size, p.Seq, p.Aux, p.ABCMark, p.Payload = netem.KindAck, ackSize, a.Ack, uint64(a.Echo), a.ABCMark, ackTag{}
}

// AckOf returns the ACK p carries, if it is a TCP ACK.
func AckOf(p *netem.Packet) (AckInfo, bool) {
	_, ok := p.Payload.(ackTag)
	return AckInfo{Ack: p.Seq, Echo: sim.Time(p.Aux), ABCMark: p.ABCMark}, ok
}

// Sender is the TCP sending endpoint. The embedded ACK clock holds the
// application's bytes, paces and windows the sends, and owns the RTO and the
// RTT estimate; Sender adds the cumulative-ACK bookkeeping and fast recovery.
type Sender struct {
	ackclock.Sender

	sndUna uint64

	// segs holds the in-flight segments in Seq order: a new segment goes
	// on the back, an acknowledged one comes off the front, and a
	// retransmission refreshes its segment where it sits.
	segs sim.Deque[Segment]

	dupAcks   int
	recover   uint64 // end of fast-recovery: highest seq sent at loss time
	inRecover bool

	retransmits int
}

// NewSender builds a TCP sender for flow using controller cc, transmitting
// into out (the first hop toward the receiver).
func NewSender(s *sim.Simulator, flow netem.FlowKey, cc cca.TCP, out netem.Receiver) *Sender {
	t := &Sender{}
	t.Init(s, flow, cc, out, dataOverhead, ackclock.Hooks{
		InFlight:    t.InFlight,
		LostWaiting: func() bool { return false }, // a loss is resent at once
		Send:        func() int { return t.push(t.Take()) },
		Timeout:     t.onRTO,
	})
	return t
}

// Retransmits returns the cumulative retransmission count.
func (t *Sender) Retransmits() int { return t.retransmits }

// InFlight returns the number of unacknowledged bytes.
func (t *Sender) InFlight() int { return int(t.Sent() - t.sndUna) }

// Acked returns the cumulative acknowledged byte count.
func (t *Sender) Acked() uint64 { return t.sndUna }

// push sends a segment that starts past every one in flight, so it goes on
// the back, and returns its length.
func (t *Sender) push(seq uint64, n int) int {
	seg := Segment{Seq: seq, Len: n, SentAt: t.Sim.Now()}
	t.segs.PushBack(seg)
	t.Emit(seq, 0, n, segmentTag{})
	return n
}

// onRTO leaves fast recovery and resends the first unacknowledged segment.
func (t *Sender) onRTO() {
	t.inRecover = false
	t.dupAcks = 0
	t.retransmitFirst()
}

func (t *Sender) retransmitFirst() {
	segs := t.segs.Items()
	i := sort.Search(len(segs), func(i int) bool { return segs[i].Seq >= t.sndUna })
	if i < len(segs) {
		t.retransmits++
		segs[i].SentAt = t.Sim.Now()
		t.Emit(segs[i].Seq, 0, segs[i].Len, segmentTag{})
		return
	}
	// No segment starts at or past sndUna (an ACK ended mid-segment):
	// resend from sndUna, which is past every segment left.
	if n := min(t.InFlight(), cca.MSS); n > 0 {
		t.retransmits++
		t.push(t.sndUna, n)
	}
}

// Receive implements netem.Receiver: ACK packets from the network.
func (t *Sender) Receive(p *netem.Packet) {
	ack, ok := AckOf(p)
	if !ok {
		return
	}
	now := t.Sim.Now()

	if ack.Ack > t.sndUna {
		newly := int(ack.Ack - t.sndUna)
		t.sndUna = ack.Ack
		t.dupAcks = 0
		for t.segs.Len() > 0 && t.segs.Front().Seq+uint64(t.segs.Front().Len) <= t.sndUna {
			t.segs.PopFront()
		}
		var rtt time.Duration
		if ack.Echo > 0 {
			rtt = now - ack.Echo
			t.Sample(now, rtt)
		}
		if t.inRecover && ack.Ack >= t.recover {
			t.inRecover = false
		}
		t.NewDataAcked(now, newly, rtt, ack.ABCMark, t.sndUna)
	} else if ack.Ack == t.sndUna && t.InFlight() > 0 {
		t.dupAcks++
		if t.dupAcks == 3 && !t.inRecover {
			t.inRecover = true
			t.recover = t.Sent()
			t.CC.OnLoss(now)
			t.retransmitFirst()
		}
	}
	t.TrySend()
}

// Receiver is the TCP receiving endpoint: it reassembles the byte stream,
// acknowledges every data packet, and echoes ABC marks.
type Receiver struct {
	s    *sim.Simulator
	out  netem.Receiver // toward the sender
	flow netem.FlowKey  // the reverse (ack) flow key

	rcvNxt uint64
	ooo    map[uint64]Segment
	pkts   netem.Maker

	// OnDeliver, if set, fires as in-order bytes become available.
	OnDeliver func(now sim.Time, upTo uint64)

	// OnAck, if set, fires at every ACK departure. For baseline solutions
	// this is where the congestion feedback originates — the client end of
	// the long control loop — so the loop recorder taps it as both the
	// observation and the feedback-departure instant (they coincide: TCP
	// acknowledges each arrival immediately).
	OnAck func(now sim.Time)
}

// NewReceiver builds a receiver whose ACKs travel into out with ackFlow.
func NewReceiver(s *sim.Simulator, ackFlow netem.FlowKey, out netem.Receiver) *Receiver {
	return &Receiver{s: s, out: out, flow: ackFlow, ooo: make(map[uint64]Segment)}
}

// Delivered returns the next expected byte (total in-order bytes received).
func (r *Receiver) Delivered() uint64 { return r.rcvNxt }

// Receive implements netem.Receiver: data packets from the network.
func (r *Receiver) Receive(p *netem.Packet) {
	seg, ok := SegmentOf(p)
	if !ok {
		return
	}
	if seg.Seq == r.rcvNxt {
		r.rcvNxt += uint64(seg.Len)
		// Drain contiguous out-of-order segments.
		for {
			next, ok := r.ooo[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt += uint64(next.Len)
		}
		if r.OnDeliver != nil {
			r.OnDeliver(r.s.Now(), r.rcvNxt)
		}
	} else if seg.Seq > r.rcvNxt {
		r.ooo[seg.Seq] = seg
	}
	// Acknowledge every arrival (duplicate ACKs signal gaps).
	if r.OnAck != nil {
		r.OnAck(r.s.Now())
	}
	ack := r.pkts.NewPacket()
	ack.Flow = r.flow
	ack.SentAt = r.s.Now()
	AckInfo{Ack: r.rcvNxt, Echo: seg.SentAt, ABCMark: p.ABCMark}.Put(ack)
	r.out.Receive(ack)
}
