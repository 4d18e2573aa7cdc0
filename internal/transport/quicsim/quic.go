// Package quicsim implements a simulation QUIC transport: monotonically
// increasing packet numbers (no retransmission ambiguity), ACK frames with
// ranges, packet- and time-threshold loss detection (RFC 9002), and stream
// data carried in freshly numbered packets on retransmission.
//
// Its purpose in this repository is the §6 deployability claim: QUIC
// encrypts everything above the UDP header, so an AP can read nothing but
// the 5-tuple — and Zhuge's out-of-band Feedback Updater needs nothing
// else. The simulator enforces the same opacity: in-network elements see
// netem.Packet{Flow, Kind, Size} only; the payload here is never inspected
// outside the endpoints.
package quicsim

import (
	"sort"
	"time"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

const (
	dataOverhead = 45 // IPv4 + UDP + QUIC short header + frame headers
	ackSize      = 70

	// RFC 9002 loss-detection thresholds.
	packetThreshold = 3
	timeThresholdN  = 9.0 / 8.0
)

// dataPacket is the payload of one QUIC data packet (opaque to the network).
type dataPacket struct {
	PktNum uint64
	Offset uint64 // stream offset
	Len    int
	SentAt sim.Time
}

// ackFrame is the payload of an ACK packet: the largest received packet
// number and ranges of received packet numbers below it.
type ackFrame struct {
	Largest   uint64
	Ranges    []ackRange // descending, including the range holding Largest
	LargestAt sim.Time   // receive time of Largest (ack-delay accounting)
}

type ackRange struct {
	Lo, Hi uint64 // inclusive
}

// Sender is the QUIC sending endpoint.
type Sender struct {
	s    *sim.Simulator
	cc   cca.TCP
	out  netem.Receiver
	flow netem.FlowKey

	nextPktNum uint64
	streamNext uint64 // next stream byte to transmit for the first time
	appEnd     uint64

	// retransmission queue of stream chunks declared lost
	retxQueue []streamChunk

	inflight      map[uint64]dataPacket
	inflightBytes int

	largestAcked uint64
	haveAcked    bool

	srtt, rttvar time.Duration
	rto          time.Duration
	rtoTimer     *sim.Timer
	rtoBackoff   int

	pacingNext sim.Time
	sendTimer  *sim.Timer

	// delivered tracking for app-level frame completion
	ackedRanges *rangeSet

	// OnRTT receives every RTT sample.
	OnRTT func(now sim.Time, rtt time.Duration)
	// OnAckedBytes fires when the contiguous acknowledged prefix advances.
	OnAcked func(now sim.Time, upTo uint64)

	lostPackets int
	timeouts    int
}

type streamChunk struct {
	Offset uint64
	Len    int
}

// NewSender builds a QUIC sender for flow with controller cc.
func NewSender(s *sim.Simulator, flow netem.FlowKey, cc cca.TCP, out netem.Receiver) *Sender {
	return &Sender{
		s: s, cc: cc, out: out, flow: flow,
		inflight:    make(map[uint64]dataPacket),
		rto:         time.Second,
		ackedRanges: newRangeSet(),
	}
}

// CC returns the congestion controller.
func (t *Sender) CC() cca.TCP { return t.cc }

// LostPackets returns the count of packets declared lost.
func (t *Sender) LostPackets() int { return t.lostPackets }

// Timeouts returns the PTO count.
func (t *Sender) Timeouts() int { return t.timeouts }

// InFlight returns unacknowledged bytes in the network.
func (t *Sender) InFlight() int { return t.inflightBytes }

// Acked returns the length of the contiguous acknowledged stream prefix.
func (t *Sender) Acked() uint64 { return t.ackedRanges.contiguous() }

// SRTT returns the smoothed RTT.
func (t *Sender) SRTT() time.Duration { return t.srtt }

// Pending returns stream bytes not yet transmitted for the first time.
func (t *Sender) Pending() int { return int(t.appEnd - t.streamNext) }

// Write makes n more application bytes available.
func (t *Sender) Write(n int) {
	t.appEnd += uint64(n)
	t.trySend()
}

func (t *Sender) trySend() {
	now := t.s.Now()
	if t.sendTimer != nil && !t.sendTimer.Stopped() {
		return
	}
	for t.inflightBytes < t.cc.CWND() {
		if rate := t.cc.PacingRate(now); rate > 0 && t.pacingNext > now {
			t.sendTimer = t.s.At(t.pacingNext, func() {
				t.sendTimer = nil
				t.trySend()
			})
			return
		}
		var chunk streamChunk
		if len(t.retxQueue) > 0 {
			chunk = t.retxQueue[0]
			t.retxQueue = t.retxQueue[1:]
		} else if t.streamNext < t.appEnd {
			n := int(t.appEnd - t.streamNext)
			if n > cca.MSS {
				n = cca.MSS
			}
			chunk = streamChunk{Offset: t.streamNext, Len: n}
			t.streamNext += uint64(n)
		} else {
			return
		}
		t.sendData(chunk)
		if rate := t.cc.PacingRate(now); rate > 0 {
			gap := time.Duration(float64(chunk.Len+dataOverhead) * 8 / rate * float64(time.Second))
			if t.pacingNext < now {
				t.pacingNext = now
			}
			t.pacingNext += gap
		}
	}
}

func (t *Sender) sendData(chunk streamChunk) {
	now := t.s.Now()
	dp := dataPacket{PktNum: t.nextPktNum, Offset: chunk.Offset, Len: chunk.Len, SentAt: now}
	t.nextPktNum++
	t.inflight[dp.PktNum] = dp
	t.inflightBytes += dp.Len
	p := netem.NewPacket()
	*p = netem.Packet{
		Flow:    t.flow,
		Kind:    netem.KindData,
		Size:    dp.Len + dataOverhead,
		Seq:     dp.PktNum,
		SentAt:  now,
		Payload: dp,
	}
	t.out.Receive(p)
	t.armPTO()
}

func (t *Sender) armPTO() {
	if t.rtoTimer != nil {
		t.rtoTimer.Stop()
	}
	backoff := t.rto << t.rtoBackoff
	if backoff > time.Minute {
		backoff = time.Minute
	}
	t.rtoTimer = t.s.After(backoff, t.onPTO)
}

// onPTO is the probe timeout: re-send the oldest in-flight chunk.
func (t *Sender) onPTO() {
	if len(t.inflight) == 0 {
		return
	}
	t.timeouts++
	t.rtoBackoff++
	t.cc.OnRTO(t.s.Now())
	// Declare the oldest packet lost and probe with its data immediately,
	// bypassing the congestion window (RFC 9002 §7.5: probe packets may
	// exceed the window — the in-flight packets blocking it are exactly
	// the ones presumed lost).
	oldest := uint64(1<<63 - 1)
	for pn := range t.inflight {
		if pn < oldest {
			oldest = pn
		}
	}
	t.declareLost(oldest)
	if len(t.retxQueue) > 0 {
		chunk := t.retxQueue[0]
		t.retxQueue = t.retxQueue[1:]
		t.sendData(chunk)
	}
	t.trySend()
	t.armPTO()
}

func (t *Sender) declareLost(pn uint64) {
	dp, ok := t.inflight[pn]
	if !ok {
		return
	}
	delete(t.inflight, pn)
	t.inflightBytes -= dp.Len
	t.lostPackets++
	t.retxQueue = append(t.retxQueue, streamChunk{Offset: dp.Offset, Len: dp.Len})
}

// Receive implements netem.Receiver: ACK packets from the network.
func (t *Sender) Receive(p *netem.Packet) {
	ack, ok := p.Payload.(ackFrame)
	if !ok {
		return
	}
	now := t.s.Now()

	newlyAcked := 0
	var largestNewlyAcked *dataPacket
	for _, r := range ack.Ranges {
		for pn := r.Lo; pn <= r.Hi; pn++ {
			dp, ok := t.inflight[pn]
			if !ok {
				continue
			}
			delete(t.inflight, pn)
			t.inflightBytes -= dp.Len
			newlyAcked += dp.Len
			t.ackedRanges.add(dp.Offset, dp.Offset+uint64(dp.Len))
			if largestNewlyAcked == nil || dp.PktNum > largestNewlyAcked.PktNum {
				cp := dp
				largestNewlyAcked = &cp
			}
		}
	}
	if newlyAcked == 0 {
		return
	}
	if ack.Largest > t.largestAcked || !t.haveAcked {
		t.largestAcked = ack.Largest
		t.haveAcked = true
	}
	t.rtoBackoff = 0

	var rtt time.Duration
	if largestNewlyAcked != nil && largestNewlyAcked.PktNum == ack.Largest {
		rtt = now - largestNewlyAcked.SentAt
		t.updateRTT(rtt)
		if t.OnRTT != nil {
			t.OnRTT(now, rtt)
		}
	}

	// Loss detection (RFC 9002): packet threshold and time threshold.
	lossDelay := time.Duration(timeThresholdN * float64(max64(t.srtt, rtt)))
	if lossDelay <= 0 {
		lossDelay = 200 * time.Millisecond
	}
	var lost []uint64
	for pn, dp := range t.inflight {
		if pn+packetThreshold <= t.largestAcked || (dp.SentAt+lossDelay < now && pn < t.largestAcked) {
			lost = append(lost, pn)
		}
	}
	if len(lost) > 0 {
		sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
		for _, pn := range lost {
			t.declareLost(pn)
		}
		t.cc.OnLoss(now)
	}

	t.cc.OnAck(cca.AckEvent{
		Now:        now,
		AckedBytes: newlyAcked,
		RTT:        rtt,
		InFlight:   t.inflightBytes,
		AppLimited: t.Pending() == 0 && len(t.retxQueue) == 0 && t.inflightBytes < t.cc.CWND()*3/4,
	})
	if t.OnAcked != nil {
		t.OnAcked(now, t.Acked())
	}
	if len(t.inflight) == 0 {
		if t.rtoTimer != nil {
			t.rtoTimer.Stop()
		}
	} else {
		t.armPTO()
	}
	t.trySend()
}

func (t *Sender) updateRTT(rtt time.Duration) {
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
}

func max64(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// Receiver is the QUIC receiving endpoint: it tracks received packet
// numbers, acknowledges every packet with ranges, and reassembles the
// stream.
type Receiver struct {
	s    *sim.Simulator
	out  netem.Receiver
	flow netem.FlowKey

	received *rangeSet // packet numbers
	stream   *rangeSet // stream bytes

	largest   uint64
	largestAt sim.Time

	// OnDeliver fires as the contiguous in-order stream prefix advances.
	OnDeliver func(now sim.Time, upTo uint64)
}

// NewReceiver builds a receiver whose ACKs travel into out with ackFlow.
func NewReceiver(s *sim.Simulator, ackFlow netem.FlowKey, out netem.Receiver) *Receiver {
	return &Receiver{
		s: s, out: out, flow: ackFlow,
		received: newRangeSet(),
		stream:   newRangeSet(),
	}
}

// Delivered returns the contiguous in-order stream bytes received.
func (r *Receiver) Delivered() uint64 { return r.stream.contiguous() }

// Receive implements netem.Receiver.
func (r *Receiver) Receive(p *netem.Packet) {
	dp, ok := p.Payload.(dataPacket)
	if !ok {
		return
	}
	now := r.s.Now()
	r.received.add(dp.PktNum, dp.PktNum+1)
	if dp.PktNum >= r.largest {
		r.largest = dp.PktNum
		r.largestAt = now
	}
	before := r.stream.contiguous()
	r.stream.add(dp.Offset, dp.Offset+uint64(dp.Len))
	if after := r.stream.contiguous(); after > before && r.OnDeliver != nil {
		r.OnDeliver(now, after)
	}
	// Acknowledge immediately (RTC tuning: no ack delay).
	ack := netem.NewPacket()
	*ack = netem.Packet{
		Flow:    r.flow,
		Kind:    netem.KindAck,
		Size:    ackSize,
		Seq:     r.largest,
		SentAt:  now,
		Payload: ackFrame{Largest: r.largest, Ranges: r.received.descendingRanges(32), LargestAt: r.largestAt},
	}
	r.out.Receive(ack)
}

// rangeSet tracks a set of [lo, hi) uint64 ranges.
type rangeSet struct {
	ranges []ackRange // ascending, non-overlapping, Hi inclusive form internally [Lo, Hi]
}

func newRangeSet() *rangeSet { return &rangeSet{} }

// add inserts [lo, hi) into the set.
func (rs *rangeSet) add(lo, hi uint64) {
	if hi <= lo {
		return
	}
	hiIncl := hi - 1
	out := rs.ranges[:0:0]
	inserted := false
	for _, r := range rs.ranges {
		switch {
		case r.Hi+1 < lo:
			out = append(out, r)
		case hiIncl+1 < r.Lo:
			if !inserted {
				out = append(out, ackRange{lo, hiIncl})
				inserted = true
			}
			out = append(out, r)
		default:
			// overlap or adjacency: merge
			if r.Lo < lo {
				lo = r.Lo
			}
			if r.Hi > hiIncl {
				hiIncl = r.Hi
			}
		}
	}
	if !inserted {
		out = append(out, ackRange{lo, hiIncl})
	}
	rs.ranges = out
}

// contiguous returns the length of the prefix starting at 0.
func (rs *rangeSet) contiguous() uint64 {
	if len(rs.ranges) == 0 || rs.ranges[0].Lo != 0 {
		return 0
	}
	return rs.ranges[0].Hi + 1
}

// descendingRanges returns up to n ranges, highest first (ACK frame form).
func (rs *rangeSet) descendingRanges(n int) []ackRange {
	out := make([]ackRange, 0, n)
	for i := len(rs.ranges) - 1; i >= 0 && len(out) < n; i-- {
		out = append(out, rs.ranges[i])
	}
	return out
}
