package cca

import (
	"math"
	"time"

	"github.com/zhuge-project/zhuge/internal/sim"
)

// PCC implements a simplified PCC Vivace (Dong et al., NSDI 2018), the
// learning-based controller Table 2 lists for QUIC-based RTC services.
// The sender runs monitor intervals (MIs) in probe pairs — one MI slightly
// above the base rate, one slightly below — scores each with the Vivace
// utility (throughput reward, RTT-gradient and loss penalties), and moves
// the rate along the empirical utility gradient.
type PCC struct {
	rate    float64 // base rate, bits per second
	minRate float64
	maxRate float64

	srtt time.Duration

	starting bool
	lastUtil float64

	// probe-pair state
	phase                 int // 0: probe up, 1: probe down
	miRate                float64
	miStart               sim.Time
	miEnd                 sim.Time
	miAcked               float64 // bytes
	miLosses              int
	miFirstRTT, miLastRTT time.Duration
	utilUp                float64

	stepCount int
}

// Vivace utility parameters (NSDI'18 defaults, rates in Mbps inside the
// utility function).
const (
	pccExponent = 0.9
	pccRTTCoef  = 900.0
	pccLossCoef = 11.35
	pccEpsilon  = 0.05
	pccMinStep  = 0.01 // Mbps
)

// NewPCC returns a PCC Vivace controller starting at startRate.
func NewPCC(startRate, minRate, maxRate float64) *PCC {
	return &PCC{
		rate:     startRate,
		minRate:  minRate,
		maxRate:  maxRate,
		starting: true,
		miRate:   startRate,
	}
}

// Name implements TCP.
func (p *PCC) Name() string { return "pcc" }

// OnAck implements TCP: accumulate MI statistics and advance the monitor
// state machine at MI boundaries.
func (p *PCC) OnAck(ev AckEvent) {
	now := ev.Now
	if ev.RTT > 0 {
		if p.srtt == 0 {
			p.srtt = ev.RTT
		} else {
			p.srtt = (7*p.srtt + ev.RTT) / 8
		}
		if p.miFirstRTT == 0 {
			p.miFirstRTT = ev.RTT
		}
		p.miLastRTT = ev.RTT
	}
	p.miAcked += float64(ev.AckedBytes)

	if p.miStart == 0 {
		p.startMI(now)
		return
	}
	if now >= p.miEnd {
		p.finishMI(now)
	}
}

// OnLoss implements TCP.
func (p *PCC) OnLoss(now sim.Time) { p.miLosses++ }

// OnRTO implements TCP: collapse and restart the search.
func (p *PCC) OnRTO(now sim.Time) {
	p.rate = math.Max(p.minRate, p.rate/2)
	p.starting = true
	p.lastUtil = 0
	p.startMI(now)
}

func (p *PCC) startMI(now sim.Time) {
	dur := p.srtt
	if dur < 50*time.Millisecond {
		dur = 50 * time.Millisecond
	}
	p.miStart = now
	p.miEnd = now + dur
	p.miAcked = 0
	p.miLosses = 0
	p.miFirstRTT = 0
	p.miLastRTT = 0
	switch {
	case p.starting:
		p.miRate = p.rate
	case p.phase == 0:
		p.miRate = p.rate * (1 + pccEpsilon)
	default:
		p.miRate = p.rate * (1 - pccEpsilon)
	}
}

// utility computes the Vivace utility of the finished MI.
func (p *PCC) utility() float64 {
	miDur := (p.miEnd - p.miStart).Seconds()
	if miDur <= 0 {
		return 0
	}
	xMbps := p.miAcked * 8 / miDur / 1e6
	lossRate := 0.0
	if pktEquiv := p.miAcked / MSS; pktEquiv > 0 {
		lossRate = float64(p.miLosses) / (pktEquiv + float64(p.miLosses))
	}
	rttGrad := 0.0
	if p.miFirstRTT > 0 && p.miLastRTT > 0 {
		rttGrad = (p.miLastRTT - p.miFirstRTT).Seconds() / miDur
	}
	if rttGrad < 0 {
		rttGrad = 0 // Vivace ignores decreasing RTT (latiency reward off)
	}
	return math.Pow(xMbps, pccExponent) - pccRTTCoef*xMbps*rttGrad - pccLossCoef*xMbps*lossRate
}

func (p *PCC) finishMI(now sim.Time) {
	u := p.utility()
	if p.starting {
		// Slow-start-like doubling while utility keeps improving.
		if u > p.lastUtil {
			p.lastUtil = u
			p.rate *= 2
		} else {
			p.rate /= 2
			p.starting = false
			p.lastUtil = 0
		}
		p.clamp()
		p.startMI(now)
		return
	}
	if p.phase == 0 {
		p.utilUp = u
		p.phase = 1
		p.startMI(now)
		return
	}
	// Both probes done: gradient step.
	utilDown := u
	grad := (p.utilUp - utilDown) / (2 * pccEpsilon * p.rate / 1e6) // per Mbps
	step := 0.05 * grad                                             // conversion rate theta
	maxStep := 0.1 * p.rate / 1e6
	if step > maxStep {
		step = maxStep
	}
	if step < -maxStep {
		step = -maxStep
	}
	if math.Abs(step) < pccMinStep {
		if step >= 0 {
			step = pccMinStep
		} else {
			step = -pccMinStep
		}
	}
	p.rate += step * 1e6
	p.clamp()
	p.phase = 0
	p.startMI(now)
	p.stepCount++
}

func (p *PCC) clamp() {
	if p.rate < p.minRate {
		p.rate = p.minRate
	}
	if p.rate > p.maxRate {
		p.rate = p.maxRate
	}
}

// CWND implements TCP: twice the rate-delay product, so pacing (not the
// window) is the binding control.
func (p *PCC) CWND() int {
	srtt := p.srtt
	if srtt == 0 {
		srtt = 100 * time.Millisecond
	}
	w := int(2 * p.miRate / 8 * srtt.Seconds())
	return clampCwnd(w)
}

// PacingRate implements TCP: the current monitor interval's rate.
func (p *PCC) PacingRate(sim.Time) float64 { return p.miRate }

// Rate returns the base (non-probe) rate for inspection.
func (p *PCC) Rate() float64 { return p.rate }
