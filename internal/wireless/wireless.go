// Package wireless models the last-mile wireless hop: a qdisc-fed link with
// 802.11-style frame aggregation (AMPDU), channel-access contention with
// interferers, MCS scaling and a time-varying available bandwidth driven by
// a trace. It reproduces the two phenomena the paper identifies as the
// source of the transience-equilibrium nexus (§3.1): bursty packet
// departures (aggregation) and fluctuating dequeue rates (contention).
package wireless

import (
	"math/rand"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// Observer receives the AP-datapath events the Zhuge Fortune Teller (and
// the experiment harness) hook into.
type Observer interface {
	// OnEnqueue fires when a packet is offered to the downlink queue.
	// accepted is false when the qdisc dropped it.
	OnEnqueue(now sim.Time, p *netem.Packet, accepted bool)
	// OnDequeue fires for each packet the wireless driver pulls from the
	// queue while assembling an aggregate, at the pull instant.
	OnDequeue(now sim.Time, p *netem.Packet)
}

// Channel models the shared medium: links attached to the same Channel
// cannot transmit simultaneously. Arbitration is idealised — whoever asks
// first holds the air for its burst; contention randomness comes from each
// link's backoff draw.
type Channel struct {
	freeAt sim.Time
}

// NewChannel returns an idle shared channel.
func NewChannel() *Channel { return &Channel{} }

// reserve books the medium for [start, start+airtime) where start is the
// earliest instant >= now the channel is free.
func (c *Channel) reserve(now sim.Time, airtime time.Duration) (start sim.Time) {
	start = now
	if c.freeAt > start {
		start = c.freeAt
	}
	c.freeAt = start + airtime
	return start
}

// The 802.11 model every link shares (§7.1 fixes one AP model for the
// whole evaluation). Over-the-air propagation delay is taken as zero.
const (
	// MaxAggAirtime bounds the estimated air time of one aggregate, like
	// an 802.11 TXOP limit.
	MaxAggAirtime = 4 * time.Millisecond
	// perTxOverhead is the fixed per-aggregate overhead: preamble, SIFS,
	// block ACK.
	perTxOverhead = 300 * time.Microsecond
	// baseAccess is the mean channel-access delay with an idle channel
	// (DIFS + average backoff).
	baseAccess = 100 * time.Microsecond
	// interfererAirtime is the expected extra access wait one interferer
	// adds to every channel access.
	interfererAirtime = 300 * time.Microsecond
	// stormProb is the per-access probability, per interferer, of hitting
	// a channel-occupancy storm — a long stretch where other BSSes hold the
	// medium (the heavy tail behind Table 1's reports of >100ms WiFi hops).
	stormProb = 0.0003
	// stormMin and stormMax bound a storm's duration.
	stormMin = 30 * time.Millisecond
	stormMax = 250 * time.Millisecond
)

// Config parameterises a wireless link.
type Config struct {
	// Channel optionally shares the medium with other links (per-station
	// queues at one AP, or other BSSes). Nil gives the link its own air.
	Channel *Channel

	// Rate returns the link's available bandwidth in bits per second at
	// virtual time t (typically trace.RateAt).
	Rate func(t sim.Time) float64
	// MCSScale optionally scales Rate, modelling modulation-coding-scheme
	// changes (the "mcs" testbed scenario). Nil means 1.0.
	MCSScale func(t sim.Time) float64

	// MaxAggPackets bounds packets per aggregate (AMPDU). Default 32.
	MaxAggPackets int
	// Interferers is the number of stations contending on the same
	// channel from other BSSes (Figure 17). Each adds interfererAirtime
	// of expected wait per channel access, and a stormProb chance of a
	// storm.
	Interferers int

	// Obs optionally attaches the observability layer: packet-lifecycle
	// trace events, per-link instruments and the prediction-error join at
	// delivery. Nil disables everything at the cost of one nil check per
	// datapath step.
	Obs *obs.Obs
	// ObsLabel prefixes this link's instrument names so multi-link
	// topologies (downlink, uplink, stations) stay distinguishable.
	// Default "wl".
	ObsLabel string
}

func (c Config) withDefaults() Config {
	if c.MaxAggPackets == 0 {
		c.MaxAggPackets = 32
	}
	return c
}

// Link is a wireless hop: packets received are enqueued into the qdisc; a
// transmit loop contends for the channel, aggregates packets, and delivers
// them to dst after the aggregate's air time.
type Link struct {
	s   *sim.Simulator
	q   queue.Qdisc
	dst netem.Receiver
	cfg Config
	rng *rand.Rand

	observers []Observer
	busy      bool

	// Persistent event closures, allocated once in NewLink: the transmit
	// loop schedules these instead of fresh closures, keeping the per-burst
	// datapath allocation-free.
	txFn        func() // transmitBurst
	endTxFn     func() // aggregate left the air: clear busy, re-arm
	recontendFn func() // channel freed by another station: draw a backoff
	deliverFn   func() // deliver the oldest in-flight aggregate

	// pending holds in-flight aggregates in delivery order. Aggregates are
	// serialised by busy, so delivery times are nondecreasing and the
	// single deliverFn can pop the front instead of capturing the burst.
	// Each entry pins the dst in effect when the aggregate was sealed.
	pending sim.Deque[pendingBurst]
	// burstFree recycles burst buffers (pre-sized to MaxAggPackets) once
	// their aggregate has been delivered.
	burstFree [][]netem.Held

	// chaos loss injection: each packet of a delivered aggregate is lost
	// with probability lossProb, drawn from the dedicated lossRNG so
	// arming or clearing loss never perturbs the contention RNG stream.
	lossProb float64
	lossRNG  *rand.Rand
	lost     int

	// stats
	delivered int

	// observability (all nil when cfg.Obs is nil; hot paths guard on o)
	o              *obs.Obs
	tr             *obs.Tracer
	cEnq, cDrop    *obs.Counter
	cAQMDrop       *obs.Counter
	cDeq, cDeliv   *obs.Counter
	cAgg           *obs.Counter
	cLost          *obs.Counter // resolved lazily by SetLoss
	gQBytes, gQLen *obs.Gauge
	hSojourn       *obs.Hist
	hAMPDU         *obs.Hist // packets per aggregate (".n": raw counts)
	hAirtime       *obs.Hist
}

// NewLink builds a wireless link draining q into dst. The RNG drives
// contention backoff; derive it from the simulator for determinism.
func NewLink(s *sim.Simulator, cfg Config, q queue.Qdisc, dst netem.Receiver, rng *rand.Rand) *Link {
	if cfg.Rate == nil {
		panic("wireless: Config.Rate is required")
	}
	l := &Link{s: s, q: q, dst: dst, cfg: cfg.withDefaults(), rng: rng}
	l.txFn = l.transmitBurst
	l.endTxFn = func() {
		l.busy = false
		l.maybeStart()
	}
	l.recontendFn = func() {
		l.s.ScheduleAfter(l.accessDelay(), l.txFn)
	}
	l.deliverFn = l.deliverPending
	if o := cfg.Obs; o != nil {
		label := cfg.ObsLabel
		if label == "" {
			label = "wl"
		}
		l.o = o
		l.tr = o.Trace()
		l.cEnq = o.Counter(label + ".enqueued")
		l.cDrop = o.Counter(label + ".dropped")
		l.cAQMDrop = o.Counter(label + ".aqm_front_drops")
		l.cDeq = o.Counter(label + ".dequeued")
		l.cDeliv = o.Counter(label + ".delivered")
		l.cAgg = o.Counter(label + ".aggregates")
		l.gQBytes = o.Gauge(label + ".queue_bytes")
		l.gQLen = o.Gauge(label + ".queue_pkts")
		l.hSojourn = o.Hist(label + ".sojourn")
		l.hAMPDU = o.Hist(label + ".ampdu_pkts.n")
		l.hAirtime = o.Hist(label + ".airtime")
		// CoDel-family disciplines drop from the front inside Dequeue,
		// invisible to enqueue observers; surface those too.
		if dq, ok := q.(queue.DropObservable); ok {
			dq.SetDropHook(l.obsAQMDrop)
		}
	}
	return l
}

// obsEnqueue records the enqueue outcome; called only when l.o != nil.
func (l *Link) obsEnqueue(now sim.Time, p *netem.Packet, accepted bool) {
	if accepted {
		l.cEnq.Inc()
		if l.tr != nil {
			l.tr.Record(obs.Event{At: now, Type: obs.EvEnqueue, Flow: p.Flow, Seq: p.Seq, Size: p.Size})
		}
	} else {
		l.cDrop.Inc()
		if l.tr != nil {
			l.tr.Record(obs.Event{At: now, Type: obs.EvDrop, Flow: p.Flow, Seq: p.Seq, Size: p.Size})
		}
	}
	l.gQBytes.Set(float64(l.q.Bytes()))
	l.gQLen.Set(float64(l.q.Len()))
}

// obsAQMDrop is the qdisc's dequeue-time drop hook (CoDel drop-from-front).
func (l *Link) obsAQMDrop(now sim.Time, p *netem.Packet) {
	l.cAQMDrop.Inc()
	if l.tr != nil {
		l.tr.Record(obs.Event{At: now, Type: obs.EvDrop, Flow: p.Flow, Seq: p.Seq, Size: p.Size, A: 1})
	}
}

// obsDequeue records one pull into an aggregate; called only when l.o != nil.
func (l *Link) obsDequeue(now sim.Time, p *netem.Packet) {
	l.cDeq.Inc()
	sojourn := now - p.EnqueuedAt
	l.hSojourn.Observe(sojourn)
	if l.tr != nil {
		l.tr.Record(obs.Event{At: now, Type: obs.EvDequeue, Flow: p.Flow, Seq: p.Seq, Size: p.Size, A: int64(sojourn)})
	}
}

// obsBurst records a sealed aggregate and its airtime span; called only
// when l.o != nil. The aggregate is attributed to its first packet's flow.
func (l *Link) obsBurst(now sim.Time, burst []netem.Held, bits float64, airtime time.Duration) {
	l.cAgg.Inc()
	l.hAMPDU.Observe(time.Duration(len(burst)))
	l.hAirtime.Observe(airtime)
	l.gQBytes.Set(float64(l.q.Bytes()))
	l.gQLen.Set(float64(l.q.Len()))
	if l.tr != nil {
		flow := burst[0].Packet(holder).Flow
		l.tr.Record(obs.Event{At: now, Type: obs.EvAggregate, Flow: flow, Size: int(bits / 8), A: int64(len(burst))})
		l.tr.Record(obs.Event{At: now, Dur: airtime, Type: obs.EvAirtime, Flow: flow, Size: int(bits / 8), A: int64(len(burst))})
	}
}

// obsDeliver records the 802.11 delivery instant and joins the Fortune
// Teller's prediction against the measured AP latency; called only when
// l.o != nil.
func (l *Link) obsDeliver(now sim.Time, p *netem.Packet) {
	l.cDeliv.Inc()
	var lat time.Duration
	if p.APArrival > 0 {
		lat = now - p.APArrival
		if pe := l.o.Errs(); pe != nil && p.Kind == netem.KindData {
			pe.Observe(p.Flow, p.Predicted, lat)
		}
	}
	if l.tr != nil {
		l.tr.Record(obs.Event{At: now, Type: obs.EvDeliver, Flow: p.Flow, Seq: p.Seq, Size: p.Size, A: int64(lat)})
	}
}

// AddObserver registers an AP-datapath observer (e.g. the Fortune Teller).
func (l *Link) AddObserver(o Observer) { l.observers = append(l.observers, o) }

// Channel returns the shared medium the link currently contends on (nil if
// the link has its own air).
func (l *Link) Channel() *Channel { return l.cfg.Channel }

// SetChannel re-homes the link onto a different shared medium — the
// physical half of a station handover. Only future channel-access draws
// contend on ch: an aggregate already on the air completes under the old
// channel's reservation (its delivery and end-of-tx events are already
// scheduled), exactly like a radio finishing its TXOP before retuning. A
// nil ch detaches the link onto its own air.
func (l *Link) SetChannel(ch *Channel) { l.cfg.Channel = ch }

// Config returns the link's effective configuration (defaults filled in);
// the chaos injector reads the interferer count a burst restores from it.
func (l *Link) Config() Config { return l.cfg }

// Queue returns the link's qdisc.
func (l *Link) Queue() queue.Qdisc { return l.q }

// SetDst changes the delivery destination.
func (l *Link) SetDst(dst netem.Receiver) { l.dst = dst }

// SetLoss sets the probability that a packet of a delivered aggregate is
// lost on the air (never reaches its client, so neither delivery taps nor
// solutions observing delivery see it — exactly like a corrupted MPDU).
// rng must be non-nil while prob > 0; all loss draws come from it and only
// while loss is armed, so a link that never injects loss keeps its RNG
// streams untouched. Derive rng from the simulator for determinism.
func (l *Link) SetLoss(prob float64, rng *rand.Rand) {
	if prob > 0 && rng == nil {
		panic("wireless: SetLoss needs an RNG while prob > 0")
	}
	l.lossProb = prob
	if prob > 0 {
		l.lossRNG = rng
		if l.o != nil && l.cLost == nil {
			label := l.cfg.ObsLabel
			if label == "" {
				label = "wl"
			}
			// Resolved lazily so paths that never inject loss keep their
			// registry row set unchanged.
			l.cLost = l.o.Counter(label + ".chaos_lost")
		}
	}
}

// LossProb returns the currently armed air-loss probability.
func (l *Link) LossProb() float64 { return l.lossProb }

// Lost returns the count of packets dropped by loss injection.
func (l *Link) Lost() int { return l.lost }

// SetInterferers retunes how many foreign stations contend on the link's
// channel — an interferer burst when raised mid-run. Only future
// channel-access draws see the new count.
func (l *Link) SetInterferers(n int) { l.cfg.Interferers = n }

// Delivered returns the count of packets delivered over the air.
func (l *Link) Delivered() int { return l.delivered }

// CurrentRate returns the effective link rate at virtual time t.
func (l *Link) CurrentRate(t sim.Time) float64 {
	r := l.cfg.Rate(t)
	if l.cfg.MCSScale != nil {
		r *= l.cfg.MCSScale(t)
	}
	if r < 1 {
		r = 1
	}
	return r
}

// Receive implements netem.Receiver: packets entering the AP's downlink.
func (l *Link) Receive(p *netem.Packet) {
	now := l.s.Now()
	accepted := l.q.Enqueue(now, p)
	for _, o := range l.observers {
		o.OnEnqueue(now, p, accepted)
	}
	if l.o != nil {
		l.obsEnqueue(now, p, accepted)
	}
	if accepted {
		l.maybeStart()
	} else {
		p.Release()
	}
}

func (l *Link) maybeStart() {
	if l.busy || l.q.Len() == 0 {
		return
	}
	l.busy = true
	l.s.ScheduleAfter(l.accessDelay(), l.txFn)
}

// accessDelay draws the channel-access wait: base DIFS/backoff, an
// exponential wait proportional to the number of interferers, and — rarely
// — a channel-occupancy storm whose probability grows with the interferer
// count. The storm term gives contention its measured heavy tail.
func (l *Link) accessDelay() time.Duration {
	// The random slot is unconditional: deterministic backoff would let
	// one saturated station win every contention tie and starve the rest.
	d := baseAccess + time.Duration(l.rng.ExpFloat64()*float64(baseAccess))
	if l.cfg.Interferers > 0 {
		mean := float64(l.cfg.Interferers) * float64(interfererAirtime)
		d += time.Duration(l.rng.ExpFloat64() * mean)
		if l.rng.Float64() < stormProb*float64(l.cfg.Interferers) {
			d += stormMin + time.Duration(l.rng.Float64()*float64(stormMax-stormMin))
		}
	}
	return d
}

// transmitBurst assembles an aggregate at the head of the queue and
// transmits it. Packets leave the qdisc here — before the air time — which
// is exactly when a real driver pulls them to build an AMPDU, and when the
// Fortune Teller's dequeue-interval estimator observes them.
func (l *Link) transmitBurst() {
	now := l.s.Now()
	// On a shared channel, wait out another station's transmission and
	// re-contend with a fresh backoff.
	if ch := l.cfg.Channel; ch != nil && ch.freeAt > now {
		l.s.Schedule(ch.freeAt, l.recontendFn)
		return
	}
	rate := l.CurrentRate(now)

	burst := l.getBurstBuf()
	var bits float64
	for len(burst) < l.cfg.MaxAggPackets {
		peekAir := time.Duration((bits + 12112) / rate * float64(time.Second))
		if len(burst) > 0 && peekAir > MaxAggAirtime {
			break
		}
		p := l.q.Dequeue(now)
		if p == nil {
			break
		}
		burst = append(burst, netem.Hold(p, holder))
		bits += float64(p.Size * 8)
		for _, o := range l.observers {
			o.OnDequeue(now, p)
		}
		if l.o != nil {
			l.obsDequeue(now, p)
		}
	}
	if len(burst) == 0 {
		// CoDel may have dropped everything.
		l.putBurstBuf(burst)
		l.busy = false
		l.maybeStart()
		return
	}

	airtime := time.Duration(bits/rate*float64(time.Second)) + perTxOverhead
	if ch := l.cfg.Channel; ch != nil {
		ch.reserve(now, airtime)
	}
	if l.o != nil {
		l.obsBurst(now, burst, bits, airtime)
	}
	l.pending.PushBack(pendingBurst{pkts: burst, dst: l.dst})
	l.s.Schedule(now+airtime, l.deliverFn)
	l.s.Schedule(now+airtime, l.endTxFn)
}

// pendingBurst is one sealed aggregate awaiting its delivery event.
type pendingBurst struct {
	pkts []netem.Held
	dst  netem.Receiver
}

// holder names the link's in-flight aggregates in a netem.Held panic.
const holder = "wireless.Link"

// deliverPending delivers the oldest in-flight aggregate (the 802.11
// block-ACK instant for every packet in it).
func (l *Link) deliverPending() {
	at := l.s.Now()
	e := l.pending.PopFront()
	for _, h := range e.pkts {
		p := h.Packet(holder)
		if l.lossProb > 0 && l.lossRNG.Float64() < l.lossProb {
			// Lost on the air: the packet consumed its airtime but never
			// reaches the client, so it dies here.
			l.lost++
			if l.cLost != nil {
				l.cLost.Inc()
			}
			p.Release()
			continue
		}
		l.delivered++
		if l.o != nil {
			l.obsDeliver(at, p)
		}
		e.dst.Receive(p)
	}
	l.putBurstBuf(e.pkts)
}

// getBurstBuf returns a cleared burst buffer with MaxAggPackets capacity.
func (l *Link) getBurstBuf() []netem.Held {
	if n := len(l.burstFree); n > 0 {
		b := l.burstFree[n-1]
		l.burstFree = l.burstFree[:n-1]
		return b
	}
	return make([]netem.Held, 0, l.cfg.MaxAggPackets)
}

// putBurstBuf recycles a burst buffer once its packets are handed off.
func (l *Link) putBurstBuf(b []netem.Held) {
	clear(b) // drop packet references; they belong downstream now
	l.burstFree = append(l.burstFree, b[:0])
}
