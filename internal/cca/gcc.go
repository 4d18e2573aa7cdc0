package cca

import (
	"math"
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// FeedbackSample describes one media packet covered by a TWCC feedback
// report, as reconstructed by the sender: when it was sent, when the
// receiver reports it arrived (zero when lost), and its size.
type FeedbackSample struct {
	Seq      uint16
	SendAt   sim.Time
	Arrived  bool
	ArriveAt time.Duration // receiver clock; only deltas are meaningful
	Size     int
}

// Rate is the interface between the RTP transport and a rate-based
// congestion controller (GCC, NADA).
type Rate interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// OnFeedback processes one TWCC feedback report; samples are in
	// transport-wide sequence order.
	OnFeedback(now sim.Time, samples []FeedbackSample)
	// Rate returns the current target sending rate in bits per second.
	Rate() float64
}

// GCC implements Google Congestion Control (Carlucci et al., 2017), the
// default CCA of WebRTC and the RTP-side controller of the evaluation. It
// combines a delay-gradient trendline estimator with adaptive thresholding
// (the delay-based controller) and a loss-based controller; the target rate
// is the minimum of the two.
type GCC struct {
	rate    float64
	minRate float64
	maxRate float64

	// Delay-based controller.
	trend        trendline
	threshold    float64 // adaptive gamma, in ms of modified trend
	lastThreshAt sim.Time
	overuseCount int
	state        gccState
	lastIncrease sim.Time
	lastDecrease sim.Time

	// Received-rate estimate from feedback.
	received *metrics.SlidingSum
	// Loss accounting over a sliding window (per-batch fractions are far
	// too noisy: one loss among four packets reads as 25%).
	lostWin  *metrics.SlidingSum
	totalWin *metrics.SlidingSum

	// Group tracking across feedback batches.
	havePrev   bool
	prevSend   sim.Time
	prevArrive time.Duration

	lastFeedback  sim.Time
	firstFeedback sim.Time
	lastArrive    time.Duration // latest reported receive timestamp
	firstArrive   time.Duration
	haveArrive    bool
}

type gccState int

const (
	gccIncrease gccState = iota
	gccHold
	gccDecrease
)

// GCC tuning constants, following the WebRTC implementation.
const (
	gccBeta            = 0.85
	gccThresholdInit   = 12.5 // ms
	gccThresholdMin    = 6.0
	gccThresholdMax    = 600.0
	gccKUp             = 0.01
	gccKDown           = 0.00018
	gccTrendGain       = 4.0
	gccMaxDeltas       = 60
	gccOveruseDebounce = 2 // consecutive overuse estimates before reacting
)

// NewGCC returns a GCC controller starting at startRate bits per second.
func NewGCC(startRate, minRate, maxRate float64) *GCC {
	return &GCC{
		rate:      startRate,
		minRate:   minRate,
		maxRate:   maxRate,
		threshold: gccThresholdInit,
		received:  metrics.NewSlidingSum(time.Second),
		lostWin:   metrics.NewSlidingSum(time.Second),
		totalWin:  metrics.NewSlidingSum(time.Second),
		state:     gccIncrease,
		trend:     newTrendline(20),
	}
}

// Name identifies the controller in experiment tables.
func (g *GCC) Name() string { return "gcc" }

// Rate returns the current target sending rate in bits per second.
func (g *GCC) Rate() float64 { return g.rate }

// OnFeedback processes one TWCC feedback report. samples must be in
// transport-wide sequence order.
func (g *GCC) OnFeedback(now sim.Time, samples []FeedbackSample) {
	if len(samples) == 0 {
		return
	}
	g.lastFeedback = now
	if g.firstFeedback == 0 {
		g.firstFeedback = now
	}

	lost, total := 0, 0
	for _, s := range samples {
		total++
		if !s.Arrived {
			lost++
			continue
		}
		// The received-rate window runs on the receiver's reported
		// arrival clock, not the feedback arrival instant: reported
		// timestamps carry the bottleneck drain rate (this is also what
		// makes AP-constructed feedback with predicted arrivals steer
		// the rate correctly).
		if s.ArriveAt >= g.lastArrive {
			if !g.haveArrive {
				g.haveArrive = true
				g.firstArrive = s.ArriveAt
			}
			g.received.Add(s.ArriveAt, float64(s.Size))
			g.lastArrive = s.ArriveAt
		}
		g.updateDelayEstimator(now, s)
	}

	// Loss-based controller (GCC paper §4.1): act on the loss fraction
	// over the last second of feedback.
	g.lostWin.Add(now, float64(lost))
	g.totalWin.Add(now, float64(total))
	lossFraction := 0.0
	if tw := g.totalWin.Sum(now); tw > 0 {
		lossFraction = g.lostWin.Sum(now) / tw
	}
	lossRate := g.rate
	switch {
	case lossFraction > 0.10:
		lossRate = g.rate * (1 - 0.5*lossFraction)
	case lossFraction < 0.02:
		lossRate = g.rate * 1.05
	}

	// Delay-based controller: state machine drives the rate.
	delayRate := g.updateRateControl(now)

	g.rate = math.Min(delayRate, lossRate)
	g.clampRate()
}

// receivedRate returns the acknowledged bitrate in bits per second.
func (g *GCC) receivedRate() float64 {
	if !g.haveArrive {
		return 0
	}
	return g.received.Rate(g.lastArrive) * 8
}

func (g *GCC) clampRate() {
	// Never exceed 1.5x the measured received rate (standard GCC cap).
	// The cap only engages once the rate window has real coverage: during
	// the first second of a connection the estimate is dominated by the
	// window floor and would spuriously crash the starting rate.
	inGrace := !g.haveArrive || g.lastArrive-g.firstArrive < time.Second
	if rr := g.receivedRate(); !inGrace && rr > 0 && g.rate > 1.5*rr {
		g.rate = 1.5 * rr
	}
	if g.rate < g.minRate {
		g.rate = g.minRate
	}
	if g.rate > g.maxRate {
		g.rate = g.maxRate
	}
}

// updateDelayEstimator feeds one arrival into the trendline and updates the
// adaptive threshold and overuse detector.
func (g *GCC) updateDelayEstimator(now sim.Time, s FeedbackSample) {
	if !g.havePrev {
		g.havePrev = true
		g.prevSend = s.SendAt
		g.prevArrive = s.ArriveAt
		return
	}
	interArrival := (s.ArriveAt - g.prevArrive).Seconds() * 1000
	interSend := (s.SendAt - g.prevSend).Seconds() * 1000
	g.prevSend = s.SendAt
	g.prevArrive = s.ArriveAt
	delta := interArrival - interSend // ms of one-way delay gradient

	g.trend.add(s.ArriveAt.Seconds()*1000, delta)
	modTrend := g.trend.modifiedTrend()

	// Adaptive threshold (Carlucci §4.2): track |modTrend| slowly from
	// below, quickly from above.
	if g.lastThreshAt != 0 {
		k := gccKDown
		if math.Abs(modTrend) > g.threshold {
			k = gccKUp
		}
		dt := (now - g.lastThreshAt).Seconds() * 1000
		if dt > 100 {
			dt = 100
		}
		g.threshold += k * dt * (math.Abs(modTrend) - g.threshold)
		g.threshold = math.Max(gccThresholdMin, math.Min(gccThresholdMax, g.threshold))
	}
	g.lastThreshAt = now

	switch {
	case modTrend > g.threshold:
		g.overuseCount++
		if g.overuseCount >= gccOveruseDebounce {
			g.state = gccDecrease
		}
	case modTrend < -g.threshold:
		g.overuseCount = 0
		g.state = gccHold
	default:
		g.overuseCount = 0
		if g.state == gccDecrease {
			g.state = gccHold
		} else {
			g.state = gccIncrease
		}
	}
}

// updateRateControl applies the AIMD rate update of the delay-based
// controller and returns the resulting rate.
func (g *GCC) updateRateControl(now sim.Time) float64 {
	rate := g.rate
	switch g.state {
	case gccIncrease:
		elapsed := time.Second
		if g.lastIncrease != 0 {
			elapsed = now - g.lastIncrease
			if elapsed > time.Second {
				elapsed = time.Second
			}
		}
		eta := math.Pow(1.08, elapsed.Seconds())
		rate = g.rate * eta
		g.lastIncrease = now
	case gccDecrease:
		rr := g.receivedRate()
		if rr > 0 {
			rate = gccBeta * rr
		} else {
			rate = gccBeta * g.rate
		}
		g.lastDecrease = now
		g.state = gccHold
		g.overuseCount = 0
	case gccHold:
		g.lastIncrease = now
	}
	return rate
}

// trendline is the WebRTC trendline estimator: a linear regression of the
// exponentially smoothed accumulated delay over arrival time.
type trendline struct {
	window   int
	x        []float64 // arrival time, ms
	y        []float64 // smoothed accumulated delay, ms
	accum    float64
	smoothed float64
	count    int
}

func newTrendline(window int) trendline {
	return trendline{window: window}
}

func (t *trendline) add(arrivalMS, deltaMS float64) {
	t.accum += deltaMS
	const smoothing = 0.9
	if t.count == 0 {
		t.smoothed = t.accum
	} else {
		t.smoothed = smoothing*t.smoothed + (1-smoothing)*t.accum
	}
	t.count++
	t.x = append(t.x, arrivalMS)
	t.y = append(t.y, t.smoothed)
	if len(t.x) > t.window {
		// Shift down instead of reslicing off the front: a [1:] reslice
		// walks the backing array forward and forces a reallocation every
		// ~window adds, while the copy reuses the same storage forever.
		copy(t.x, t.x[1:])
		t.x = t.x[:t.window]
		copy(t.y, t.y[1:])
		t.y = t.y[:t.window]
	}
}

// slope returns the least-squares slope of y over x (ms per ms).
func (t *trendline) slope() float64 {
	n := len(t.x)
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += t.x[i]
		sy += t.y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var num, den float64
	for i := 0; i < n; i++ {
		num += (t.x[i] - mx) * (t.y[i] - my)
		den += (t.x[i] - mx) * (t.x[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// modifiedTrend scales the slope the way WebRTC compares it to the
// threshold: slope * min(count, maxDeltas) * gain.
func (t *trendline) modifiedTrend() float64 {
	n := t.count
	if n > gccMaxDeltas {
		n = gccMaxDeltas
	}
	return t.slope() * float64(n) * gccTrendGain
}
