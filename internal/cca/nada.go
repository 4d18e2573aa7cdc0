package cca

import (
	"math"
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// NADA implements Network-Assisted Dynamic Adaptation (RFC 8698), one of
// the in-band RTC rate controllers of Table 2. It aggregates per-packet
// one-way queuing delay and loss into a composite congestion signal and
// steers a reference rate with the RFC's gradual-update law, switching to
// accelerated ramp-up when the path shows no congestion. Like GCC it
// consumes TWCC feedback, so it composes with Zhuge's in-band updater
// unchanged.
type NADA struct {
	rate    float64
	minRate float64
	maxRate float64

	baseDelay time.Duration // min observed one-way delay (offset-tolerant)
	haveBase  bool

	xPrev    float64 // previous aggregate congestion signal, ms
	lastTick sim.Time

	received *metrics.SlidingSum
	lostWin  *metrics.SlidingSum
	totalWin *metrics.SlidingSum

	lastArrive time.Duration
	haveArrive bool
}

// RFC 8698 default parameters (§6.3), times in their RFC units.
const (
	nadaPrio     = 1.0
	nadaXRef     = 10.0  // ms, reference congestion signal
	nadaKappa    = 0.5   // scaling of the gradual update
	nadaEta      = 2.0   // scaling of the derivative term
	nadaTau      = 500.0 // ms, update time constant
	nadaQBound   = 50.0  // ms, queuing bound for accelerated ramp-up
	nadaGammaMax = 0.5   // max ramp-up step
	nadaDLoss    = 100.0 // ms, delay-equivalent penalty per unit loss ratio
	nadaQEps     = 2.0   // ms, queuing threshold for "no congestion"
	nadaRampRTT  = 50.0  // ms, RTT assumed by the ramp-up bound (no RTCP RTT is fed)
)

// NewNADA returns a NADA controller starting at startRate bits per second.
func NewNADA(startRate, minRate, maxRate float64) *NADA {
	return &NADA{
		rate:     startRate,
		minRate:  minRate,
		maxRate:  maxRate,
		received: metrics.NewSlidingSum(time.Second),
		lostWin:  metrics.NewSlidingSum(time.Second),
		totalWin: metrics.NewSlidingSum(time.Second),
	}
}

// Name implements Rate.
func (n *NADA) Name() string { return "nada" }

// Rate implements Rate.
func (n *NADA) Rate() float64 { return n.rate }

// OnFeedback implements Rate.
func (n *NADA) OnFeedback(now sim.Time, samples []FeedbackSample) {
	if len(samples) == 0 {
		return
	}
	lost, total := 0, 0
	var queueMS float64
	var nDelay int
	for _, s := range samples {
		total++
		if !s.Arrived {
			lost++
			continue
		}
		// One-way delay relative to the running minimum: clock offsets
		// between sender and receiver cancel in the difference.
		owd := s.ArriveAt - time.Duration(s.SendAt)
		if !n.haveBase || owd < n.baseDelay {
			n.baseDelay = owd
			n.haveBase = true
		}
		queueMS += float64(owd-n.baseDelay) / float64(time.Millisecond)
		nDelay++
		if s.ArriveAt >= n.lastArrive {
			if !n.haveArrive {
				n.haveArrive = true
			}
			n.received.Add(s.ArriveAt, float64(s.Size))
			n.lastArrive = s.ArriveAt
		}
	}
	n.lostWin.Add(now, float64(lost))
	n.totalWin.Add(now, float64(total))
	lossRatio := 0.0
	if tw := n.totalWin.Sum(now); tw > 0 {
		lossRatio = n.lostWin.Sum(now) / tw
	}

	dQueue := 0.0
	if nDelay > 0 {
		dQueue = queueMS / float64(nDelay)
	}
	// Aggregate congestion signal (RFC 8698 §4.2): queuing delay plus a
	// delay-equivalent loss penalty.
	xCurr := dQueue + nadaDLoss*lossRatio

	deltaMS := 100.0 // assumed feedback interval before the first tick
	if n.lastTick != 0 {
		deltaMS = (now - n.lastTick).Seconds() * 1000
		if deltaMS <= 0 {
			deltaMS = 1
		}
		if deltaMS > nadaTau {
			deltaMS = nadaTau
		}
	}
	n.lastTick = now

	rRecv := n.received.Rate(n.lastArrive) * 8

	if dQueue < nadaQEps && lossRatio == 0 {
		// Accelerated ramp-up (§4.3): jump toward a multiple of the
		// received rate bounded by how much standing queue the jump
		// could create.
		gamma := math.Min(nadaGammaMax, nadaQBound/(nadaRampRTT+deltaMS))
		if target := (1 + gamma) * rRecv; target > n.rate {
			n.rate = target
		}
	} else {
		// Gradual update (§4.3).
		xOffset := xCurr - nadaPrio*nadaXRef*(n.maxRate/n.rate)
		xDiff := xCurr - n.xPrev
		n.rate -= nadaKappa * (deltaMS / nadaTau) * (xOffset / nadaTau) * n.rate
		n.rate -= nadaKappa * nadaEta * (xDiff / nadaTau) * n.rate
	}
	n.xPrev = xCurr

	if n.rate < n.minRate {
		n.rate = n.minRate
	}
	if n.rate > n.maxRate {
		n.rate = n.maxRate
	}
}

var _ Rate = (*NADA)(nil)
var _ Rate = (*GCC)(nil)
