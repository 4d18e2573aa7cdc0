package cca

import (
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// Copa implements the delay-based controller of Arun & Balakrishnan
// (NSDI 2018) in its default mode. Copa drives the TCP-side evaluation of
// the paper (Figures 12 and 15): it targets a rate of 1/(delta*dq) where dq
// is the standing queuing delay, so it reacts to the per-packet delay
// patterns that Zhuge's delayed ACKs reproduce.
type Copa struct {
	cwnd float64 // packets (MSS units)

	delta float64

	rttMin *metrics.WindowedFilter // min over 10 s
	// rttStanding keeps 2 s of RTT samples; the standing RTT is their min
	// over srtt/2, read with Within as the window tracks srtt.
	rttStanding *metrics.WindowedFilter
	srtt        time.Duration

	// velocity state
	velocity     float64
	direction    int // +1 up, -1 down, 0 unknown
	lastCwnd     float64
	lastUpdateAt sim.Time
	sameCount    int

	inSlowStart bool
}

// NewCopa returns a Copa controller in default mode (delta = 0.5).
func NewCopa() *Copa {
	return &Copa{
		cwnd:        10,
		delta:       0.5,
		rttMin:      metrics.NewWindowedMin(10 * time.Second),
		rttStanding: metrics.NewWindowedMin(2 * time.Second),
		velocity:    1,
		inSlowStart: true,
	}
}

// Name implements TCP.
func (c *Copa) Name() string { return "copa" }

// OnAck implements TCP.
func (c *Copa) OnAck(ev AckEvent) {
	if ev.RTT <= 0 {
		return
	}
	now := ev.Now
	if c.srtt == 0 {
		c.srtt = ev.RTT
	} else {
		c.srtt = (7*c.srtt + ev.RTT) / 8
	}
	// The standing RTT window tracks srtt/2, clamped to keep a few samples.
	halfSrtt := c.srtt / 2
	if halfSrtt < 10*time.Millisecond {
		halfSrtt = 10 * time.Millisecond
	}
	c.rttMin.Add(now, float64(ev.RTT))
	c.rttStanding.Add(now, float64(ev.RTT))

	minV, _ := c.rttMin.Get(now)
	standingV, ok := c.rttStanding.Within(now, halfSrtt)
	if !ok {
		return
	}
	dq := time.Duration(standingV - minV)

	if c.inSlowStart {
		if !ev.AppLimited {
			c.cwnd += float64(ev.AckedBytes) / MSS
		}
		// Leave slow start once a standing queue appears.
		if dq > time.Duration(float64(time.Duration(minV))*0.1) && dq > time.Millisecond {
			c.inSlowStart = false
		}
		return
	}

	standing := time.Duration(standingV)
	var targetRate float64 // packets per second
	if dq <= 0 {
		targetRate = 1e12 // no queue: always increase
	} else {
		targetRate = 1 / (c.delta * dq.Seconds())
	}
	currentRate := c.cwnd / standing.Seconds()

	c.updateVelocity(now)
	step := c.velocity / (c.delta * c.cwnd) * float64(ev.AckedBytes) / MSS
	if currentRate < targetRate {
		// Do not grow an unused window (RFC 7661); decreases still apply
		// so a queued-up path pulls the window down even when app-limited.
		if !ev.AppLimited {
			c.cwnd += step
			c.noteDirection(+1)
		}
	} else {
		c.cwnd -= step
		c.noteDirection(-1)
	}
	if c.cwnd < 2 {
		c.cwnd = 2
	}
}

// updateVelocity doubles velocity when the window keeps moving in one
// direction for three consecutive srtt periods (the Copa velocity rule).
func (c *Copa) updateVelocity(now sim.Time) {
	if c.lastUpdateAt == 0 {
		c.lastUpdateAt = now
		c.lastCwnd = c.cwnd
		return
	}
	if now-c.lastUpdateAt < c.srtt {
		return
	}
	dir := 0
	if c.cwnd > c.lastCwnd {
		dir = 1
	} else if c.cwnd < c.lastCwnd {
		dir = -1
	}
	if dir != 0 && dir == c.direction {
		c.sameCount++
		if c.sameCount >= 3 {
			c.velocity *= 2
			if c.velocity > 64 {
				c.velocity = 64
			}
		}
	} else {
		c.velocity = 1
		c.sameCount = 0
	}
	c.direction = dir
	c.lastCwnd = c.cwnd
	c.lastUpdateAt = now
}

func (c *Copa) noteDirection(dir int) {
	if dir != c.direction {
		// Direction flip: reset velocity immediately (Copa's rule to
		// avoid overshooting around the equilibrium).
		if c.velocity > 1 {
			c.velocity = 1
			c.sameCount = 0
		}
	}
}

// OnLoss implements TCP. Default-mode Copa is nearly loss-agnostic; we
// apply the standard 1/2 reduction used by its TCP implementation when an
// actual retransmission happens.
func (c *Copa) OnLoss(now sim.Time) {
	c.cwnd /= 2
	if c.cwnd < 2 {
		c.cwnd = 2
	}
	c.velocity = 1
	c.sameCount = 0
	c.inSlowStart = false
}

// OnRTO implements TCP.
func (c *Copa) OnRTO(now sim.Time) {
	c.cwnd = 2
	c.velocity = 1
	c.sameCount = 0
	c.inSlowStart = false
}

// CWND implements TCP.
func (c *Copa) CWND() int { return clampCwnd(int(c.cwnd * MSS)) }

// PacingRate implements TCP: Copa paces at 2*cwnd/RTTstanding to spread
// packets.
func (c *Copa) PacingRate(now sim.Time) float64 {
	halfSrtt := c.srtt / 2
	if halfSrtt < 10*time.Millisecond {
		halfSrtt = 10 * time.Millisecond
	}
	if v, ok := c.rttStanding.Within(now, halfSrtt); ok && v > 0 {
		return 2 * c.cwnd * MSS * 8 / (time.Duration(v).Seconds())
	}
	return 0
}
