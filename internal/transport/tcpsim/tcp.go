// Package tcpsim implements a simulation TCP: a byte-stream sender with
// pluggable congestion control (internal/cca), cumulative acknowledgements,
// duplicate-ACK fast retransmit, retransmission timeouts with exponential
// backoff and RFC 6298 RTT estimation, and a receiver with out-of-order
// reassembly and ABC mark echo. It models what the paper's TCP evaluation
// needs — CCA reaction dynamics over a lossy, delaying path — not full
// RFC 793 conformance (no handshake, no flow control window).
package tcpsim

import (
	"time"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// Header overheads, matching common practice (IPv4 + TCP + timestamps).
const (
	dataOverhead = 52
	ackSize      = 64
)

// Segment is the payload of a simulated TCP data packet.
type Segment struct {
	Seq    uint64 // first byte offset
	Len    int
	SentAt sim.Time // send (or retransmit) timestamp, echoed by the receiver
}

// AckInfo is the payload of a simulated TCP ACK packet.
type AckInfo struct {
	Ack     uint64   // cumulative: next expected byte
	Echo    sim.Time // SentAt of the segment that triggered this ack
	ABCMark uint8
}

// Sender is the TCP sending endpoint.
type Sender struct {
	s    *sim.Simulator
	cc   cca.TCP
	out  netem.Receiver
	flow netem.FlowKey

	sndUna uint64
	sndNxt uint64
	appEnd uint64 // bytes the application has made available

	segs []Segment // in-flight segments ordered by Seq

	dupAcks   int
	recover   uint64 // end of fast-recovery: highest seq sent at loss time
	inRecover bool

	srtt, rttvar time.Duration
	rto          time.Duration
	rtoTimer     *sim.Timer
	rtoBackoff   int

	pacingNext sim.Time
	sendTimer  *sim.Timer

	// OnRTT, if set, receives every RTT sample (the paper's network-RTT
	// metric is measured at the sender, §7.2).
	OnRTT func(now sim.Time, rtt time.Duration)
	// OnAcked, if set, fires when sndUna advances; the video-
	// over-TCP layer uses it to detect frame completion at the receiver.
	OnAcked func(now sim.Time, upTo uint64)

	retransmits int
	timeouts    int
}

// NewSender builds a TCP sender for flow using controller cc, transmitting
// into out (the first hop toward the receiver).
func NewSender(s *sim.Simulator, flow netem.FlowKey, cc cca.TCP, out netem.Receiver) *Sender {
	return &Sender{s: s, cc: cc, out: out, flow: flow, rto: time.Second}
}

// Retransmits returns the cumulative retransmission count.
func (t *Sender) Retransmits() int { return t.retransmits }

// Timeouts returns the cumulative RTO count.
func (t *Sender) Timeouts() int { return t.timeouts }

// InFlight returns the number of unacknowledged bytes.
func (t *Sender) InFlight() int { return int(t.sndNxt - t.sndUna) }

// Acked returns the cumulative acknowledged byte count.
func (t *Sender) Acked() uint64 { return t.sndUna }

// Write makes n more application bytes available and tries to send.
func (t *Sender) Write(n int) {
	t.appEnd += uint64(n)
	t.trySend()
}

// Pending returns application bytes not yet transmitted.
func (t *Sender) Pending() int { return int(t.appEnd - t.sndNxt) }

func (t *Sender) trySend() {
	now := t.s.Now()
	if t.sendTimer != nil && !t.sendTimer.Stopped() {
		return // a paced send is already scheduled
	}
	for t.sndNxt < t.appEnd && t.InFlight() < t.cc.CWND() {
		if rate := t.cc.PacingRate(now); rate > 0 && t.pacingNext > now {
			// Pace: schedule the next send.
			t.sendTimer = t.s.At(t.pacingNext, func() {
				t.sendTimer = nil
				t.trySend()
			})
			return
		}
		n := int(t.appEnd - t.sndNxt)
		if n > cca.MSS {
			n = cca.MSS
		}
		t.sendSegment(Segment{Seq: t.sndNxt, Len: n, SentAt: now})
		t.sndNxt += uint64(n)
		if rate := t.cc.PacingRate(now); rate > 0 {
			gap := time.Duration(float64(n+dataOverhead) * 8 / rate * float64(time.Second))
			if t.pacingNext < now {
				t.pacingNext = now
			}
			t.pacingNext += gap
		}
	}
}

func (t *Sender) sendSegment(seg Segment) {
	t.insertSegment(seg)
	p := netem.NewPacket()
	*p = netem.Packet{
		Flow:    t.flow,
		Kind:    netem.KindData,
		Size:    seg.Len + dataOverhead,
		Seq:     seg.Seq,
		SentAt:  seg.SentAt,
		Payload: seg,
	}
	t.out.Receive(p)
	t.armRTO()
}

// insertSegment records an in-flight segment, replacing any same-seq entry
// (retransmissions refresh SentAt).
func (t *Sender) insertSegment(seg Segment) {
	for i := range t.segs {
		if t.segs[i].Seq == seg.Seq {
			t.segs[i] = seg
			return
		}
		if t.segs[i].Seq > seg.Seq {
			t.segs = append(t.segs, Segment{})
			copy(t.segs[i+1:], t.segs[i:])
			t.segs[i] = seg
			return
		}
	}
	t.segs = append(t.segs, seg)
}

func (t *Sender) armRTO() {
	if t.rtoTimer != nil {
		t.rtoTimer.Stop()
	}
	backoff := t.rto << t.rtoBackoff
	if backoff > time.Minute {
		backoff = time.Minute
	}
	t.rtoTimer = t.s.After(backoff, t.onRTO)
}

func (t *Sender) onRTO() {
	if t.sndUna >= t.sndNxt {
		return // nothing outstanding
	}
	t.timeouts++
	t.rtoBackoff++
	t.cc.OnRTO(t.s.Now())
	t.inRecover = false
	t.dupAcks = 0
	// Retransmit the first unacknowledged segment.
	t.retransmitFirst()
}

func (t *Sender) retransmitFirst() {
	now := t.s.Now()
	for _, seg := range t.segs {
		if seg.Seq >= t.sndUna {
			t.retransmits++
			t.sendSegment(Segment{Seq: seg.Seq, Len: seg.Len, SentAt: now})
			return
		}
	}
	// Segment list lost its head (should not happen); resend from sndUna.
	n := int(t.sndNxt - t.sndUna)
	if n > cca.MSS {
		n = cca.MSS
	}
	if n > 0 {
		t.retransmits++
		t.sendSegment(Segment{Seq: t.sndUna, Len: n, SentAt: now})
	}
}

// Receive implements netem.Receiver: ACK packets from the network.
func (t *Sender) Receive(p *netem.Packet) {
	ack, ok := p.Payload.(AckInfo)
	if !ok {
		return
	}
	now := t.s.Now()

	if ack.Ack > t.sndUna {
		newly := int(ack.Ack - t.sndUna)
		t.sndUna = ack.Ack
		t.dupAcks = 0
		t.rtoBackoff = 0
		t.dropAckedSegments()

		var rtt time.Duration
		if ack.Echo > 0 {
			rtt = now - ack.Echo
			t.updateRTO(rtt)
			if t.OnRTT != nil {
				t.OnRTT(now, rtt)
			}
		}
		if t.inRecover && ack.Ack >= t.recover {
			t.inRecover = false
		}
		t.cc.OnAck(cca.AckEvent{
			Now:        now,
			AckedBytes: newly,
			RTT:        rtt,
			InFlight:   t.InFlight(),
			ABCMark:    ack.ABCMark,
			AppLimited: t.Pending() == 0 && t.InFlight() < t.cc.CWND()*3/4,
		})
		if t.OnAcked != nil {
			t.OnAcked(now, t.sndUna)
		}
		if t.sndUna >= t.sndNxt {
			if t.rtoTimer != nil {
				t.rtoTimer.Stop()
			}
		} else {
			t.armRTO()
		}
	} else if ack.Ack == t.sndUna && t.sndNxt > t.sndUna {
		t.dupAcks++
		if t.dupAcks == 3 && !t.inRecover {
			t.inRecover = true
			t.recover = t.sndNxt
			t.cc.OnLoss(now)
			t.retransmitFirst()
		}
	}
	t.trySend()
}

func (t *Sender) dropAckedSegments() {
	i := 0
	for i < len(t.segs) && t.segs[i].Seq+uint64(t.segs[i].Len) <= t.sndUna {
		i++
	}
	if i > 0 {
		t.segs = append(t.segs[:0], t.segs[i:]...)
	}
}

// updateRTO implements RFC 6298 with a 200ms floor (Linux default).
func (t *Sender) updateRTO(rtt time.Duration) {
	if t.srtt == 0 {
		t.srtt = rtt
		t.rttvar = rtt / 2
	} else {
		d := t.srtt - rtt
		if d < 0 {
			d = -d
		}
		t.rttvar = (3*t.rttvar + d) / 4
		t.srtt = (7*t.srtt + rtt) / 8
	}
	t.rto = t.srtt + 4*t.rttvar
	if t.rto < 200*time.Millisecond {
		t.rto = 200 * time.Millisecond
	}
	if t.rto > time.Minute {
		t.rto = time.Minute
	}
}

// SRTT returns the smoothed RTT estimate.
func (t *Sender) SRTT() time.Duration { return t.srtt }

// Receiver is the TCP receiving endpoint: it reassembles the byte stream,
// acknowledges every data packet, and echoes ABC marks.
type Receiver struct {
	s    *sim.Simulator
	out  netem.Receiver // toward the sender
	flow netem.FlowKey  // the reverse (ack) flow key

	rcvNxt uint64
	ooo    map[uint64]Segment

	// OnDeliver, if set, fires as in-order bytes become available.
	OnDeliver func(now sim.Time, upTo uint64)

	// OnAck, if set, fires at every ACK departure. For baseline solutions
	// this is where the congestion feedback originates — the client end of
	// the long control loop — so the loop recorder taps it as both the
	// observation and the feedback-departure instant (they coincide: TCP
	// acknowledges each arrival immediately).
	OnAck func(now sim.Time)

	received int
}

// NewReceiver builds a receiver whose ACKs travel into out with ackFlow.
func NewReceiver(s *sim.Simulator, ackFlow netem.FlowKey, out netem.Receiver) *Receiver {
	return &Receiver{s: s, out: out, flow: ackFlow, ooo: make(map[uint64]Segment)}
}

// Delivered returns the next expected byte (total in-order bytes received).
func (r *Receiver) Delivered() uint64 { return r.rcvNxt }

// Receive implements netem.Receiver: data packets from the network.
func (r *Receiver) Receive(p *netem.Packet) {
	seg, ok := p.Payload.(Segment)
	if !ok {
		return
	}
	r.received++
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
	ack := netem.NewPacket()
	*ack = netem.Packet{
		Flow:    r.flow,
		Kind:    netem.KindAck,
		Size:    ackSize,
		Seq:     r.rcvNxt,
		SentAt:  r.s.Now(),
		Payload: AckInfo{Ack: r.rcvNxt, Echo: seg.SentAt, ABCMark: p.ABCMark},
	}
	r.out.Receive(ack)
}
