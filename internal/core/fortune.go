// Package core implements Zhuge, the paper's contribution: a wireless-AP
// datapath that shortens the congestion control loop by predicting each
// downlink packet's latency on arrival (the Fortune Teller, §4) and
// immediately reflecting the prediction onto uplink feedback packets (the
// Feedback Updater, §5) — delaying ACKs for out-of-band protocols like TCP
// and QUIC, and rewriting TWCC feedback for in-band protocols like
// RTP/RTCP.
//
// The package is single-threaded and never reads wall time: the Fortune
// Teller takes explicit timestamps and the in-band updater a Clock, so the
// simulator and the live relay (internal/liveap) run the same code.
package core

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// DefaultWindow is the sliding window of the Fortune Teller's long-term
// estimators. The paper uses 40ms, matching one frame interval at 25 fps.
const DefaultWindow = 40 * time.Millisecond

// Prediction is the Fortune Teller's output for one packet (Figure 6):
// totalDelay = qLong + qShort + tx.
type Prediction struct {
	QLong  time.Duration // cur(qSize) / avg(txRate), burst-adjusted
	QShort time.Duration // cur(qFrontWaitTime)
	Tx     time.Duration // avg(dequeueIntvl)
	Total  time.Duration
}

// String renders the prediction's decomposition for logs and traces.
func (p Prediction) String() string {
	return fmt.Sprintf("qLong=%v qShort=%v tx=%v total=%v", p.QLong, p.QShort, p.Tx, p.Total)
}

// MarshalJSON exports the prediction with explicit nanosecond fields, the
// stable shape the observability exports and external tooling consume.
func (p Prediction) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		QLong  int64 `json:"q_long_ns"`
		QShort int64 `json:"q_short_ns"`
		Tx     int64 `json:"tx_ns"`
		Total  int64 `json:"total_ns"`
	}{int64(p.QLong), int64(p.QShort), int64(p.Tx), int64(p.Total)})
}

// Stable returns the prediction with qShort discounted by one average
// transmission slot: front-packet waits below avg(dequeueIntvl) are normal
// aggregation phase, not a condition change. The out-of-band updater
// derives its delay deltas from this signal so that steady-state burst
// phase does not inject jitter into the ACK stream (which would perturb
// delay-sensitive CCAs like Copa and break fairness with unoptimised
// flows); a genuine channel stall still shows instantly because qShort then
// grows far beyond tx.
func (p Prediction) Stable() time.Duration {
	qs := p.QShort - p.Tx
	if qs < 0 {
		qs = 0
	}
	return p.QLong + qs + p.Tx
}

// FortuneTellerConfig selects estimator variants. The zero value is the
// full paper design; the ablation switches exist for the Figure 7 /
// estimator-ablation experiments.
type FortuneTellerConfig struct {
	Window time.Duration // sliding window; default DefaultWindow

	// DisableQShort drops the short-term front-wait term (naive
	// qSize/txRate estimator).
	DisableQShort bool
	// DisableBurstAdjust drops the maxBurstSize subtraction of Eq. 1.
	DisableBurstAdjust bool

	// SampleEvery enables the selective-estimation CPU optimisation the
	// paper proposes for loaded APs (§7.6): a fresh prediction is
	// computed at most once per SampleEvery per flow; packets in between
	// reuse the cached one. The control loop stays short as long as the
	// interval is a few milliseconds. Zero computes per packet.
	SampleEvery time.Duration
}

func (c FortuneTellerConfig) withDefaults() FortuneTellerConfig {
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	return c
}

// maxPrediction caps predictions when the rate estimate collapses:
// comfortably above any delay a CCA distinguishes.
const maxPrediction = 2 * time.Second

// maxDeqInterval is the longest dequeue gap read as a channel-access
// interval, which on a busy link is milliseconds. A longer gap means the
// link sat idle — a sender backing off, or a roaming station's traffic
// living at another AP — so it is not recorded and burst tracking starts
// fresh.
const maxDeqInterval = time.Second

// FortuneTeller watches the AP's downlink queue (as a wireless.Observer)
// and predicts, for a packet arriving now, the delay it will experience to
// the client: long-term queuing, short-term queuing and link-layer
// transmission (§4).
// FortuneTeller is clock-agnostic: every method takes an explicit
// timestamp, so it runs identically on the simulator's virtual clock and on
// wall-clock offsets in the live AP (cmd/zhuge-ap).
type FortuneTeller struct {
	q   queue.Qdisc
	cfg FortuneTellerConfig

	// avg(txRate): bytes dequeued over the sliding window.
	txBytes *metrics.SlidingSum
	// avg(dequeueIntvl): dequeue gaps >= 1ms (aggregated departures
	// within 1ms count as one burst, §4.2).
	deqIntervals *metrics.SlidingSum
	// max simultaneous departure bytes at 1ms resolution (Eq. 1).
	maxBurst *metrics.WindowedFilter

	lastDeqAt   sim.Time
	haveLastDeq bool
	burstBytes  int

	// selective-estimation cache, per flow
	cache map[netem.FlowKey]cachedPrediction

	predictions *obs.Counter
	cacheHits   *obs.Counter
	tr          *obs.Tracer

	// onEnqueue receives every enqueue observation the Fortune Teller sees
	// as the AP's wireless.Observer — the single arrival-side entry point
	// the AP hooks its in-band fortune recording into.
	onEnqueue func(now sim.Time, p *netem.Packet, accepted bool)
}

type cachedPrediction struct {
	at   sim.Time
	pred Prediction
}

// NewFortuneTeller builds a Fortune Teller over the given qdisc. Attach it
// to the wireless link with AddObserver so it sees dequeue events.
func NewFortuneTeller(q queue.Qdisc, cfg FortuneTellerConfig) *FortuneTeller {
	cfg = cfg.withDefaults()
	ft := &FortuneTeller{
		q:            q,
		cfg:          cfg,
		txBytes:      metrics.NewSlidingSum(cfg.Window),
		deqIntervals: metrics.NewSlidingSum(cfg.Window),
		maxBurst:     metrics.NewWindowedMax(cfg.Window),
		predictions:  &obs.Counter{},
		cacheHits:    &obs.Counter{},
	}
	if cfg.SampleEvery > 0 {
		ft.cache = make(map[netem.FlowKey]cachedPrediction)
	}
	return ft
}

// SetObs attaches the observability layer: the prediction counters move
// into the registry and Predict emits trace events. Call before traffic
// starts — registry counters restart from zero.
func (f *FortuneTeller) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	f.tr = o.Trace()
	if o.Reg != nil {
		f.predictions = o.Reg.Counter("ft.predictions")
		f.cacheHits = o.Reg.Counter("ft.cache_hits")
	}
}

// SetEnqueueHook registers the function that receives every enqueue
// observation. The AP routes its in-band fortune recording through here so
// arrival-side observation has exactly one entry point.
func (f *FortuneTeller) SetEnqueueHook(hook func(now sim.Time, p *netem.Packet, accepted bool)) {
	f.onEnqueue = hook
}

// OnEnqueue implements wireless.Observer. The Fortune Teller itself needs
// no arrival-side state (predictions are pulled by the AP before it
// enqueues); the event is forwarded to the registered hook.
func (f *FortuneTeller) OnEnqueue(now sim.Time, p *netem.Packet, accepted bool) {
	if f.onEnqueue != nil {
		f.onEnqueue(now, p, accepted)
	}
}

// OnDequeue implements wireless.Observer: every packet pulled by the
// wireless driver updates the rate, interval and burst estimators.
func (f *FortuneTeller) OnDequeue(now sim.Time, p *netem.Packet) {
	f.txBytes.Add(now, float64(p.Size))
	if !f.haveLastDeq {
		f.haveLastDeq = true
		f.lastDeqAt = now
		f.burstBytes = p.Size
		return
	}
	iv := now - f.lastDeqAt
	if iv > maxDeqInterval {
		// The link sat idle: the gap is absence of traffic, not a
		// channel-access interval. Feeding it to avg(dequeueIntvl) would
		// poison the tx term with the whole idle period for the next
		// window (a roaming station's first fortunes at a revisited AP
		// would all cap at maxPrediction). Restart burst tracking instead,
		// as if this were the first dequeue.
		f.burstBytes = p.Size
		f.lastDeqAt = now
		return
	}
	if iv >= time.Millisecond {
		// The previous burst closed; record its size and the gap.
		f.maxBurst.Add(now, float64(f.burstBytes))
		f.deqIntervals.Add(now, float64(iv))
		f.burstBytes = p.Size
	} else {
		// Same aggregate (sub-millisecond spacing): grow the burst and,
		// per §4.2, do not record the interval.
		f.burstBytes += p.Size
	}
	f.lastDeqAt = now
}

// Predictions returns the number of predictions computed.
func (f *FortuneTeller) Predictions() int { return int(f.predictions.Value()) }

// CacheHits returns how many predictions were served from the selective-
// estimation cache.
func (f *FortuneTeller) CacheHits() int { return int(f.cacheHits.Value()) }

// Forget drops any selective-estimation cache entry for flow. Called when
// a flow leaves this AP (handover): the cached prediction describes a
// queue the flow no longer traverses.
func (f *FortuneTeller) Forget(flow netem.FlowKey) {
	if f.cache != nil {
		delete(f.cache, flow)
	}
}

// Predict tells the fortune of a packet of flow `flow` arriving now, before
// it is enqueued: the queue state it observes is everything ahead of it.
func (f *FortuneTeller) Predict(now sim.Time, flow netem.FlowKey) Prediction {
	if f.cache != nil {
		if c, ok := f.cache[flow]; ok && now-c.at < f.cfg.SampleEvery {
			f.cacheHits.Inc()
			f.tracePredict(now, flow, c.pred)
			return c.pred
		}
	}
	pred := f.predict(now, flow)
	if f.cache != nil {
		f.cache[flow] = cachedPrediction{at: now, pred: pred}
	}
	f.tracePredict(now, flow, pred)
	return pred
}

func (f *FortuneTeller) tracePredict(now sim.Time, flow netem.FlowKey, pred Prediction) {
	if f.tr != nil {
		f.tr.Record(obs.Event{At: now, Type: obs.EvPredict, Flow: flow, A: int64(pred.Total)})
	}
}

func (f *FortuneTeller) predict(now sim.Time, flow netem.FlowKey) Prediction {
	f.predictions.Inc()
	var pred Prediction

	// qLong = cur(qSize)/avg(txRate), with qSize discounted by the
	// maximum recent simultaneous departure (Eq. 1): packets that will
	// leave in the current aggregate burst contribute no long-term wait.
	qSize := f.q.FlowBytes(flow)
	if !f.cfg.DisableBurstAdjust {
		if mb, ok := f.maxBurst.Get(now); ok {
			qSize -= int(mb)
		}
		if qSize < 0 {
			qSize = 0
		}
	}
	txRate := f.txBytes.Rate(now) // bytes per second
	if qSize > 0 {
		if txRate > 0 {
			pred.QLong = time.Duration(float64(qSize) / txRate * float64(time.Second))
		} else {
			pred.QLong = maxPrediction
		}
	}

	// qShort = cur(qFrontWaitTime): how long the current front packet of
	// this flow's queue has been waiting for channel access.
	if !f.cfg.DisableQShort {
		if since, ok := f.q.FrontSince(flow); ok {
			pred.QShort = now - since
		}
	}

	// tx = avg(dequeueIntvl): the expected link-layer transmission slot.
	if mean, ok := f.deqIntervals.Mean(now); ok {
		pred.Tx = time.Duration(mean)
	}

	pred.Total = pred.QLong + pred.QShort + pred.Tx
	if pred.Total > maxPrediction {
		pred.Total = maxPrediction
	}
	return pred
}
