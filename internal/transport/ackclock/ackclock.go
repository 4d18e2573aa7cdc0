// Package ackclock is the ACK-clocked sender tcpsim and quicsim share: the
// application's bytes, the paced send loop under the congestion window, the
// RTO with capped exponential backoff, the RFC 6298 RTT estimator, and the
// controller call that ends every ACK of new data. A transport embeds Sender,
// binds its Hooks once at construction, and keeps only its own numbering,
// loss detection and ACK encoding.
package ackclock

import (
	"time"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/sim"
)

const (
	initialRTO = time.Second
	minRTO     = 200 * time.Millisecond // Linux's floor
	maxRTO     = time.Minute
	// maxBackoff stops the RTO doubling: minRTO<<9 already passes maxRTO,
	// and maxRTO<<16 is still far from overflowing a time.Duration.
	maxBackoff = 16
)

// Hooks are the transport's answers to what the clock asks of it.
type Hooks struct {
	InFlight    func() int  // bytes neither acknowledged nor declared lost
	LostWaiting func() bool // data declared lost waits to be sent again
	// Send puts one chunk on the wire with Emit (lost data first, else
	// Take's next chunk) and returns its length.
	Send func() int
	// Timeout runs once the clock has counted an RTO with data in flight,
	// backed off and told the controller: it resends what it presumes lost.
	Timeout func()
}

// Sender is the ACK clock a transport's sender embeds.
type Sender struct {
	Sim *sim.Simulator // read-only after Init, like CC
	CC  cca.TCP

	out      netem.Receiver
	flow     netem.FlowKey
	overhead int // header bytes added to every data packet
	hooks    Hooks
	pkts     netem.Maker

	appEnd uint64 // bytes the application has made available
	next   uint64 // first byte never sent

	srtt, rttvar time.Duration
	rto          time.Duration
	rtoBackoff   int
	rtoTimer     *sim.Timer // held for life: ArmRTO moves it

	pacingNext sim.Time
	sendTimer  *sim.Timer // pending while a paced send waits

	// OnRTT, if set, receives every RTT sample (the paper's network-RTT
	// metric is measured at the sender, §7.2).
	OnRTT func(now sim.Time, rtt time.Duration)
	// OnAcked, if set, fires at every ACK of new data with the end of the
	// contiguous acknowledged prefix (frame completion at the receiver).
	OnAcked func(now sim.Time, upTo uint64)

	timeouts int
}

// Init sets up the clock of a sender for flow, driven by cc, that sends data
// packets of overhead header bytes plus payload into out, its first hop.
func (c *Sender) Init(s *sim.Simulator, flow netem.FlowKey, cc cca.TCP, out netem.Receiver, overhead int, h Hooks) {
	*c = Sender{Sim: s, CC: cc, out: out, flow: flow, overhead: overhead, hooks: h, rto: initialRTO}
	c.rtoTimer = s.NewTimer(c.onRTO)
	c.sendTimer = s.NewTimer(c.TrySend)
}

// Write makes n more application bytes available and tries to send.
func (c *Sender) Write(n int) {
	c.appEnd += uint64(n)
	c.TrySend()
}

// Pending returns application bytes not yet sent for the first time.
func (c *Sender) Pending() int { return int(c.appEnd - c.next) }

// Sent returns the first byte never sent.
func (c *Sender) Sent() uint64 { return c.next }

// Take hands out the next chunk of never-sent bytes, at most one MSS, as its
// stream offset and length. Pending must be positive.
func (c *Sender) Take() (offset uint64, n int) {
	offset = c.next
	n = min(int(c.appEnd-c.next), cca.MSS)
	c.next += uint64(n)
	return offset, n
}

// SRTT returns the smoothed RTT estimate.
func (c *Sender) SRTT() time.Duration { return c.srtt }

// Timeouts returns the cumulative RTO count.
func (c *Sender) Timeouts() int { return c.timeouts }

// TrySend sends while there is data to send and the window has room, and
// waits on the pacing timer when the controller paces.
func (c *Sender) TrySend() {
	if c.sendTimer.Pending() {
		return // a paced send is already scheduled
	}
	now := c.Sim.Now()
	for (c.next < c.appEnd || c.hooks.LostWaiting()) && c.hooks.InFlight() < c.CC.CWND() {
		if rate := c.CC.PacingRate(now); rate > 0 && c.pacingNext > now {
			c.sendTimer.Reset(c.pacingNext)
			return
		}
		n := c.hooks.Send()
		if rate := c.CC.PacingRate(now); rate > 0 {
			gap := time.Duration(float64(n+c.overhead) * 8 / rate * float64(time.Second))
			c.pacingNext = max(c.pacingNext, now) + gap
		}
	}
}

// Emit puts a data packet of n payload bytes on the wire, stamped now, with
// header words seq and aux and the transport's tag for a payload, and
// re-arms the RTO.
func (c *Sender) Emit(seq, aux uint64, n int, tag any) {
	p := c.pkts.NewPacket()
	p.Flow = c.flow
	p.Kind = netem.KindData
	p.Size = n + c.overhead
	p.Seq = seq
	p.Aux = aux
	p.SentAt = c.Sim.Now()
	p.Payload = tag
	c.out.Receive(p)
	c.ArmRTO()
}

// ArmRTO moves the retransmission timer to the RTO, backed off, from now.
func (c *Sender) ArmRTO() {
	c.rtoTimer.Reset(c.Sim.Now() + min(c.rto<<c.rtoBackoff, maxRTO))
}

func (c *Sender) onRTO() {
	if c.hooks.InFlight() <= 0 {
		return // nothing outstanding
	}
	c.timeouts++
	c.rtoBackoff = min(c.rtoBackoff+1, maxBackoff)
	c.CC.OnRTO(c.Sim.Now())
	c.hooks.Timeout()
}

// Sample feeds one RTT sample to the RFC 6298 estimator (200 ms floor, one
// minute ceiling) and to OnRTT.
func (c *Sender) Sample(now sim.Time, rtt time.Duration) {
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		c.rttvar = (3*c.rttvar + (c.srtt - rtt).Abs()) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rto = min(max(c.srtt+4*c.rttvar, minRTO), maxRTO)
	if c.OnRTT != nil {
		c.OnRTT(now, rtt)
	}
}

// NewDataAcked ends an ACK that acknowledged bytes of new data, taking rtt
// (zero without a sample) and mark (the ABC echo) to the controller and upTo,
// the end of the contiguous acknowledged prefix, to OnAcked: the backoff
// resets, and the RTO stops once nothing is in flight.
func (c *Sender) NewDataAcked(now sim.Time, bytes int, rtt time.Duration, mark uint8, upTo uint64) {
	c.rtoBackoff = 0
	inFlight := c.hooks.InFlight()
	c.CC.OnAck(cca.AckEvent{
		Now:        now,
		AckedBytes: bytes,
		RTT:        rtt,
		InFlight:   inFlight,
		ABCMark:    mark,
		AppLimited: c.Pending() == 0 && !c.hooks.LostWaiting() && inFlight < c.CC.CWND()*3/4,
	})
	if c.OnAcked != nil {
		c.OnAcked(now, upTo)
	}
	if c.hooks.InFlight() > 0 {
		c.ArmRTO()
	} else {
		c.rtoTimer.Stop()
	}
}
