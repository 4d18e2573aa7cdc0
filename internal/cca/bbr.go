package cca

import (
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// BBR implements a simplified BBRv1 (Cardwell et al., 2016): windowed-max
// delivery rate and windowed-min RTT estimators, startup/drain/probe-bw
// state machine with the standard pacing-gain cycle. It is one of the
// latency-sensitive CCAs of Figure 4.
type BBR struct {
	state bbrState

	btlBw  *metrics.WindowedFilter // max delivery rate, bps, over 10 estimated RTTs
	rtProp *metrics.WindowedFilter // min RTT over 10 s
	srtt   time.Duration

	deliveredBytes *metrics.SlidingSum // acked bytes for delivery-rate samples

	pacingGain  float64
	cycleIndex  int
	cycleStamp  sim.Time
	fullBwCount int
	fullBw      float64

	cwndGain float64
	lastAck  sim.Time
}

type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
)

var bbrCycleGains = []float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// NewBBR returns a BBR controller.
func NewBBR() *BBR {
	return &BBR{
		state:          bbrStartup,
		btlBw:          metrics.NewWindowedMax(10 * time.Second),
		rtProp:         metrics.NewWindowedMin(10 * time.Second),
		deliveredBytes: metrics.NewSlidingSum(200 * time.Millisecond),
		pacingGain:     2.89, // 2/ln2 startup gain
		cwndGain:       2.89,
	}
}

// Name implements TCP.
func (b *BBR) Name() string { return "bbr" }

// OnAck implements TCP.
func (b *BBR) OnAck(ev AckEvent) {
	now := ev.Now
	b.lastAck = now
	if ev.RTT > 0 {
		b.rtProp.Add(now, float64(ev.RTT))
		if b.srtt == 0 {
			b.srtt = ev.RTT
		} else {
			b.srtt = (7*b.srtt + ev.RTT) / 8
		}
	}
	b.deliveredBytes.Add(now, float64(ev.AckedBytes))
	rate := b.deliveredBytes.Rate(now) * 8 // bps
	// App-limited delivery-rate samples under-estimate the path; BBR only
	// lets them raise the filter, never refresh a lower ceiling.
	if rate > 0 {
		if cur, ok := b.btlBw.Get(now); !ev.AppLimited || !ok || rate > cur {
			b.btlBw.Add(now, rate)
		}
	}

	switch b.state {
	case bbrStartup:
		bw, _ := b.btlBw.Get(now)
		if bw > b.fullBw*1.25 {
			b.fullBw = bw
			b.fullBwCount = 0
		} else {
			b.fullBwCount++
			if b.fullBwCount >= 3 {
				b.state = bbrDrain
				b.pacingGain = 1 / 2.89
				b.cwndGain = 2.0
			}
		}
	case bbrDrain:
		if float64(ev.InFlight) <= b.bdp(now) {
			b.enterProbeBW(now)
		}
	case bbrProbeBW:
		if b.srtt > 0 && now-b.cycleStamp > b.srtt {
			b.cycleIndex = (b.cycleIndex + 1) % len(bbrCycleGains)
			b.pacingGain = bbrCycleGains[b.cycleIndex]
			b.cycleStamp = now
		}
	}
}

func (b *BBR) enterProbeBW(now sim.Time) {
	b.state = bbrProbeBW
	b.cycleIndex = 0
	b.pacingGain = bbrCycleGains[0]
	b.cwndGain = 2.0
	b.cycleStamp = now
}

// bdp returns the bandwidth-delay product estimate in bytes.
func (b *BBR) bdp(now sim.Time) float64 {
	bw, okB := b.btlBw.Get(now)
	rt, okR := b.rtProp.Get(now)
	if !okB || !okR {
		return 10 * MSS
	}
	return bw / 8 * time.Duration(rt).Seconds()
}

// OnLoss implements TCP. BBRv1 ignores isolated losses by design.
func (b *BBR) OnLoss(now sim.Time) {}

// OnRTO implements TCP: conservatively restart.
func (b *BBR) OnRTO(now sim.Time) {
	b.state = bbrStartup
	b.pacingGain = 2.89
	b.cwndGain = 2.89
	b.fullBw = 0
	b.fullBwCount = 0
}

// CWND implements TCP: cwnd_gain x BDP, evaluated at the last ack time.
func (b *BBR) CWND() int {
	w := int(b.cwndGain * b.bdp(b.lastAck))
	return clampCwnd(w)
}

// PacingRate implements TCP: pacing_gain x btlBw.
func (b *BBR) PacingRate(now sim.Time) float64 {
	bw, ok := b.btlBw.Get(now)
	if !ok {
		return 0
	}
	return b.pacingGain * bw
}
