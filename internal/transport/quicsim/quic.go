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
	Largest uint64
	Ranges  []ackRange // descending, including the range holding Largest
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
	retxQueue sim.Deque[streamChunk]

	// window is the send window: one slot per packet number from base, the
	// oldest packet still in flight, to nextPktNum-1, so item i holds packet
	// base+i. Packet numbers are never reused, so a packet is found by
	// subtraction. A slot goes dead when its packet is acknowledged or
	// declared lost; trimWindow then drops the dead front, so outside
	// Receive and onPTO the front is live or the window is empty.
	window        sim.Deque[sentPacket]
	base          uint64
	inflightBytes int

	largestAcked uint64
	haveAcked    bool

	srtt, rttvar time.Duration
	rto          time.Duration
	// Both timers are held for life, their callbacks bound once: armPTO
	// moves the PTO, and sendTimer is pending while a paced send waits.
	rtoTimer   *sim.Timer
	rtoBackoff int

	pacingNext sim.Time
	sendTimer  *sim.Timer

	// delivered tracking for app-level frame completion
	ackedRanges *rangeSet

	// OnRTT receives every RTT sample.
	OnRTT func(now sim.Time, rtt time.Duration)
	// OnAcked fires when the contiguous acknowledged prefix advances.
	OnAcked func(now sim.Time, upTo uint64)

	lostPackets int
	timeouts    int
}

type streamChunk struct {
	Offset uint64
	Len    int
}

// sentPacket is one slot of the send window.
type sentPacket struct {
	dataPacket
	live bool // still in flight: neither acknowledged nor declared lost
}

// NewSender builds a QUIC sender for flow with controller cc.
func NewSender(s *sim.Simulator, flow netem.FlowKey, cc cca.TCP, out netem.Receiver) *Sender {
	t := &Sender{
		s: s, cc: cc, out: out, flow: flow,
		rto:         time.Second,
		ackedRanges: newRangeSet(),
	}
	t.rtoTimer = s.NewTimer(t.onPTO)
	t.sendTimer = s.NewTimer(t.trySend)
	return t
}

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
	if t.sendTimer.Pending() {
		return
	}
	for t.inflightBytes < t.cc.CWND() {
		if rate := t.cc.PacingRate(now); rate > 0 && t.pacingNext > now {
			t.sendTimer.Reset(t.pacingNext)
			return
		}
		var chunk streamChunk
		if t.retxQueue.Len() > 0 {
			chunk = t.retxQueue.PopFront()
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
	t.window.PushBack(sentPacket{dataPacket: dp, live: true})
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
	backoff := t.rto << t.rtoBackoff
	if backoff > time.Minute {
		backoff = time.Minute
	}
	t.rtoTimer.Reset(t.s.Now() + backoff)
}

// onPTO is the probe timeout: re-send the oldest in-flight chunk.
func (t *Sender) onPTO() {
	if t.window.Len() == 0 {
		return
	}
	t.timeouts++
	t.rtoBackoff++
	t.cc.OnRTO(t.s.Now())
	// Declare the oldest packet lost and probe with its data immediately,
	// bypassing the congestion window (RFC 9002 §7.5: probe packets may
	// exceed the window — the in-flight packets blocking it are exactly
	// the ones presumed lost).
	t.declareLost(t.window.Front())
	t.trimWindow()
	if t.retxQueue.Len() > 0 {
		t.sendData(t.retxQueue.PopFront())
	}
	t.trySend()
	t.armPTO()
}

// declareLost takes a live packet out of flight and queues its stream data
// for retransmission under a new packet number.
func (t *Sender) declareLost(sp *sentPacket) {
	sp.live = false
	t.inflightBytes -= sp.Len
	t.lostPackets++
	t.retxQueue.PushBack(streamChunk{Offset: sp.Offset, Len: sp.Len})
}

// trimWindow drops resolved packets from the front of the window, making
// base the oldest packet in flight again. Receive calls it only once a whole
// ACK is processed, so slots do not move while ranges are being walked.
func (t *Sender) trimWindow() {
	for t.window.Len() > 0 && !t.window.Front().live {
		t.window.PopFront()
		t.base++
	}
}

// Receive implements netem.Receiver: ACK packets from the network.
func (t *Sender) Receive(p *netem.Packet) {
	ack, ok := p.Payload.(ackFrame)
	if !ok {
		return
	}
	window := t.window.Items()
	if len(window) == 0 {
		return // nothing in flight to acknowledge
	}
	now := t.s.Now()

	// Only packet numbers in [base, newest] can still be in flight, so each
	// range is clamped to the window: an ACK costs the slots it can resolve,
	// not every packet number the receiver has ever seen.
	newest := t.nextPktNum - 1
	newlyAcked := 0
	var largestNewlyAcked dataPacket // valid when newlyAcked > 0
	for _, r := range ack.Ranges {
		for pn := max(r.Lo, t.base); pn <= min(r.Hi, newest); pn++ {
			sp := &window[pn-t.base]
			if !sp.live {
				continue
			}
			sp.live = false
			t.inflightBytes -= sp.Len
			if newlyAcked == 0 || sp.PktNum > largestNewlyAcked.PktNum {
				largestNewlyAcked = sp.dataPacket
			}
			newlyAcked += sp.Len
			t.ackedRanges.add(sp.Offset, sp.Offset+uint64(sp.Len))
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
	if largestNewlyAcked.PktNum == ack.Largest {
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
	// Neither rule can fire at or above largestAcked, so one walk in packet
	// number order from base stops there and declares losses in ascending
	// order. Once an ACK is processed nothing more than two below
	// largestAcked is still live, so the next walk passes little more than
	// what its own ACK resolves.
	anyLost := false
	for i := range window {
		sp := &window[i]
		if sp.PktNum >= t.largestAcked {
			break
		}
		if sp.live && (sp.PktNum+packetThreshold <= t.largestAcked || sp.SentAt+lossDelay < now) {
			t.declareLost(sp)
			anyLost = true
		}
	}
	if anyLost {
		t.cc.OnLoss(now)
	}
	t.trimWindow()

	t.cc.OnAck(cca.AckEvent{
		Now:        now,
		AckedBytes: newlyAcked,
		RTT:        rtt,
		InFlight:   t.inflightBytes,
		AppLimited: t.Pending() == 0 && t.retxQueue.Len() == 0 && t.inflightBytes < t.cc.CWND()*3/4,
	})
	if t.OnAcked != nil {
		t.OnAcked(now, t.Acked())
	}
	if t.window.Len() == 0 {
		t.rtoTimer.Stop()
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

	largest uint64

	// OnDeliver fires as the contiguous in-order stream prefix advances.
	OnDeliver func(now sim.Time, upTo uint64)

	// OnAck, if set, fires at every ACK departure — the client end of the
	// baseline control loop, where observation and feedback coincide (every
	// arrival is acknowledged immediately). Same hook as tcpsim.Receiver's.
	OnAck func(now sim.Time)
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
	}
	before := r.stream.contiguous()
	r.stream.add(dp.Offset, dp.Offset+uint64(dp.Len))
	if after := r.stream.contiguous(); after > before && r.OnDeliver != nil {
		r.OnDeliver(now, after)
	}
	// Acknowledge immediately (RTC tuning: no ack delay).
	if r.OnAck != nil {
		r.OnAck(now)
	}
	ack := netem.NewPacket()
	*ack = netem.Packet{
		Flow:    r.flow,
		Kind:    netem.KindAck,
		Size:    ackSize,
		Seq:     r.largest,
		SentAt:  now,
		Payload: ackFrame{Largest: r.largest, Ranges: r.received.descendingRanges(32)},
	}
	r.out.Receive(ack)
}

// rangeSet tracks a set of [lo, hi) uint64 ranges.
type rangeSet struct {
	ranges []ackRange // ascending, non-overlapping, Hi inclusive form internally [Lo, Hi]
}

func newRangeSet() *rangeSet { return &rangeSet{} }

// add inserts [lo, hi) into the set, in place: it finds the run of ranges
// the new one overlaps or abuts, folds the run into one range and closes the
// gap. Extending the last range, what in-order arrival does, moves nothing.
func (rs *rangeSet) add(lo, hi uint64) {
	if hi <= lo {
		return
	}
	hi-- // inclusive, as stored
	// ranges[i:j] is the run: every range before i ends short of lo-1, every
	// range from j on starts beyond hi+1.
	i := sort.Search(len(rs.ranges), func(k int) bool { return rs.ranges[k].Hi+1 >= lo })
	j := i
	for j < len(rs.ranges) && rs.ranges[j].Lo <= hi+1 {
		j++
	}
	if i == j {
		rs.ranges = append(rs.ranges, ackRange{})
		copy(rs.ranges[i+1:], rs.ranges[i:])
		rs.ranges[i] = ackRange{lo, hi}
		return
	}
	rs.ranges[i] = ackRange{min(lo, rs.ranges[i].Lo), max(hi, rs.ranges[j-1].Hi)}
	rs.ranges = append(rs.ranges[:i+1], rs.ranges[j:]...)
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
	n = min(n, len(rs.ranges))
	out := make([]ackRange, n)
	for k := range out {
		out[k] = rs.ranges[len(rs.ranges)-1-k]
	}
	return out
}
