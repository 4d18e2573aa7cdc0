package core

import (
	"math/rand"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// OOBOptions selects deliberately degraded updater variants for the
// ablation experiments; the zero value is the paper design.
type OOBOptions struct {
	// DisableTokens holds later ACKs behind earlier ones without banking
	// negative deltas — the "clamping" strawman the paper rejects because
	// it overestimates RTT (§5.2, order preservation).
	DisableTokens bool
	// AccumulateDeltas applies the full accumulated positive delta to the
	// next ACK instead of sampling the delta distribution — the unfaithful
	// variant that produces sharper-than-real delay jumps (§5.2,
	// short-term fluctuation).
	AccumulateDeltas bool
}

// OOBUpdater implements the out-of-band Feedback Updater (§5.2,
// Algorithms 1 and 2): it converts the Fortune Teller's per-data-packet
// delay predictions into deliberate delays of the flow's uplink ACK
// packets, pursuing distributional equivalence between downlink delay
// deltas and uplink ACK extra-delays, preserving ACK order with delay
// tokens. It never reads transport headers, so it works for TCP and for
// fully encrypted out-of-band protocols like QUIC.
type OOBUpdater struct {
	s      Clock
	uplink netem.Receiver // where (delayed) ACKs continue toward the sender
	rng    *rand.Rand
	window time.Duration
	opts   OOBOptions

	flows map[netem.FlowKey]*oobFlow // keyed by downlink (data) flow

	tr     *obs.Tracer
	lt     *obs.LoopTracker
	cAcks  *obs.Counter
	hDelay *obs.Hist
}

type oobFlow struct {
	lastTotalDelay time.Duration
	haveLast       bool

	// deltaHistory: recent non-negative delay deltas (Algorithm 1),
	// expired past the sliding window.
	deltaHistory sim.Deque[timedDelta]
	// tokenHistory: banked negative deltas (Algorithm 1 lines 4-5),
	// consumed oldest first before delaying later ACKs (Algorithm 2 lines
	// 3-10).
	tokenHistory sim.Deque[time.Duration]
	tokenTotal   time.Duration

	lastSentTime sim.Time
	delayedAcks  int
	totalDelay   time.Duration
	pendingDelta time.Duration // AccumulateDeltas variant only

	// pending holds ACKs whose delayed send events are outstanding, in
	// scheduling order. Within a flow, release times are nondecreasing
	// (lastSentTime only grows) and same-instant events fire in scheduling
	// order, so one persistent closure popping the front replaces a
	// per-ACK capturing closure.
	pending sim.Deque[netem.Held]
	sendFn  func()
}

// oobHolder names the delayed-ACK queue in a netem.Held panic.
const oobHolder = "core.OOBUpdater"

type timedDelta struct {
	at    sim.Time
	delta time.Duration
}

// maxTokenBank bounds banked tokens so that a long draining period cannot
// cancel hours of future delay signals.
const maxTokenBank = 500 * time.Millisecond

// maxAckBacklog bounds the artificial backlog on the ACK stream. Delaying
// an ACK pre-announces delay its successors would naturally report one
// control loop later; once the stream is already held back by a full
// loop's worth, further delays add latency to the feedback path without
// adding information, and they linger after the congestion clears. 150ms
// is roughly one inflated control loop at the paper's settings.
const maxAckBacklog = 150 * time.Millisecond

// SetOptions switches the updater to an ablation variant. Call before
// traffic starts.
func (u *OOBUpdater) SetOptions(opts OOBOptions) { u.opts = opts }

// SetObs attaches the observability layer: each delayed ACK is counted,
// its extra delay recorded in the "oob.ack_delay" histogram, and an
// ack-delay trace event emitted.
func (u *OOBUpdater) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	u.tr = o.Trace()
	u.lt = o.ControlLoop()
	u.cAcks = o.Counter("oob.acks")
	u.hDelay = o.Hist("oob.ack_delay")
}

// NewOOBUpdater builds an out-of-band updater forwarding ACKs into uplink.
func NewOOBUpdater(s Clock, uplink netem.Receiver, rng *rand.Rand, window time.Duration) *OOBUpdater {
	if window == 0 {
		window = DefaultWindow
	}
	return &OOBUpdater{
		s: s, uplink: uplink, rng: rng, window: window,
		flows: make(map[netem.FlowKey]*oobFlow),
	}
}

func (u *OOBUpdater) flow(key netem.FlowKey) *oobFlow {
	f := u.flows[key]
	if f == nil {
		f = &oobFlow{}
		f.sendFn = func() { u.uplink.Receive(f.pending.PopFront().Packet(oobHolder)) }
		u.flows[key] = f
	}
	return f
}

// OnDataPacket implements Algorithm 1: on each downlink data packet, record
// the delta between this packet's predicted delay and the previous one's.
// Deltas derive from the phase-stable prediction (see Prediction.Stable).
func (u *OOBUpdater) OnDataPacket(now sim.Time, downlink netem.FlowKey, pred Prediction) {
	f := u.flow(downlink)
	total := pred.Stable()
	if !f.haveLast {
		f.haveLast = true
		f.lastTotalDelay = total
		return
	}
	delta := total - f.lastTotalDelay
	if delta >= 0 {
		f.deltaHistory.PushBack(timedDelta{at: now, delta: delta})
		if f.pendingDelta += delta; f.pendingDelta > 2*time.Second {
			f.pendingDelta = 2 * time.Second
		}
		u.expire(f, now)
	} else {
		f.tokenHistory.PushBack(-delta)
		f.tokenTotal += -delta
		for f.tokenTotal > maxTokenBank && f.tokenHistory.Len() > 0 {
			f.tokenTotal -= f.tokenHistory.PopFront()
		}
	}
	f.lastTotalDelay = total
}

func (u *OOBUpdater) expire(f *oobFlow, now sim.Time) {
	for f.deltaHistory.Len() > 0 && now-f.deltaHistory.Front().at > u.window {
		f.deltaHistory.PopFront()
	}
}

// OnAckPacket implements Algorithm 2: delay the uplink feedback packet by a
// sample of the recent delta distribution, consuming banked tokens and
// preserving order. downlink is the data-direction flow key (the reverse of
// the ACK packet's own key).
func (u *OOBUpdater) OnAckPacket(now sim.Time, downlink netem.FlowKey, p *netem.Packet) {
	f := u.flow(downlink)

	// Order preservation: never send before the previously scheduled ACK
	// (Algorithm 2 line 1; the paper's min() is a typo for max() — a
	// negative floor would mean sending into the past).
	floor := f.lastSentTime - now
	if floor < 0 {
		floor = 0
	}
	// Sample the recent delta distribution (line 2). The ablation variant
	// instead dumps the entire accumulated delta onto this one ACK.
	u.expire(f, now)
	var extra time.Duration
	if u.opts.AccumulateDeltas {
		extra = f.pendingDelta
		f.pendingDelta = 0
	} else if n := f.deltaHistory.Len(); n > 0 {
		extra = f.deltaHistory.Items()[u.rng.Intn(n)].delta
	}
	// Consume tokens (lines 3-10). Tokens offset only the sampled delta,
	// never the order floor: applying them to the floor (as a literal
	// reading of the pseudocode would) could reorder feedback packets,
	// exactly what the tokens exist to prevent.
	if u.opts.DisableTokens {
		f.tokenHistory, f.tokenTotal = sim.Deque[time.Duration]{}, 0
	}
	for f.tokenHistory.Len() > 0 && extra > 0 {
		if tok := f.tokenHistory.Front(); *tok > extra {
			*tok -= extra
			f.tokenTotal -= extra
			extra = 0
		} else {
			extra -= *tok
			f.tokenTotal -= f.tokenHistory.PopFront()
		}
	}
	// Saturate: never let the ACK stream fall more than maxAckBacklog
	// behind real time.
	if floor+extra > maxAckBacklog {
		extra = maxAckBacklog - floor
		if extra < 0 {
			extra = 0
		}
	}
	actualDelay := floor + extra

	f.lastSentTime = now + actualDelay
	f.delayedAcks++
	f.totalDelay += actualDelay
	if u.cAcks != nil {
		u.cAcks.Inc()
		u.hDelay.Observe(actualDelay)
	}
	if u.tr != nil {
		u.tr.Record(obs.Event{At: now, Type: obs.EvAckDelay, Flow: downlink, Seq: p.Seq, Size: p.Size, A: int64(actualDelay)})
	}
	// The delayed ACK is the out-of-band feedback for this flow's latest
	// observation; it leaves the AP at now+actualDelay.
	if u.lt != nil {
		u.lt.OnFeedbackOut(now+actualDelay, downlink)
	}
	// Always go through the scheduler, even for zero delay: a previous
	// ACK may have a send event pending at this exact instant, and event
	// insertion order is what keeps the two in sequence.
	f.pending.PushBack(netem.Hold(p, oobHolder))
	u.s.ScheduleAfter(actualDelay, f.sendFn)
}

// oobFlowState is the portable slice of an oobFlow — the estimator history
// that travels with a roaming flow under the migrate-state handover policy.
// The pending ACK queue deliberately stays behind: those packets' send
// events are already scheduled and drain through the old AP's uplink; only
// the distributional state (delta history, banked tokens, the last total
// delay the delta chain continues from) and the order floor move.
type oobFlowState struct {
	lastTotalDelay time.Duration
	haveLast       bool
	deltaHistory   []timedDelta
	tokenHistory   []time.Duration
	tokenTotal     time.Duration
	lastSentTime   sim.Time
	pendingDelta   time.Duration
}

// exportFlow detaches and returns the flow's portable state, or nil if the
// updater holds none. The flow's entry leaves the map; an outstanding send
// event keeps the old queue alive through its own closure until it drains.
func (u *OOBUpdater) exportFlow(key netem.FlowKey) *oobFlowState {
	f := u.flows[key]
	if f == nil {
		return nil
	}
	st := &oobFlowState{
		lastTotalDelay: f.lastTotalDelay,
		haveLast:       f.haveLast,
		deltaHistory:   append([]timedDelta(nil), f.deltaHistory.Items()...),
		tokenHistory:   append([]time.Duration(nil), f.tokenHistory.Items()...),
		tokenTotal:     f.tokenTotal,
		lastSentTime:   f.lastSentTime,
		pendingDelta:   f.pendingDelta,
	}
	delete(u.flows, key)
	return st
}

// importFlow installs exported state for a flow arriving from another AP.
// lastSentTime is simulation-global, so the order-preservation floor keeps
// holding across the handover: the new AP never releases feedback before
// the old AP's last scheduled send.
func (u *OOBUpdater) importFlow(key netem.FlowKey, st *oobFlowState) {
	f := u.flow(key)
	f.lastTotalDelay = st.lastTotalDelay
	f.haveLast = st.haveLast
	f.deltaHistory, f.tokenHistory = sim.Deque[timedDelta]{}, sim.Deque[time.Duration]{}
	for _, d := range st.deltaHistory {
		f.deltaHistory.PushBack(d)
	}
	for _, tok := range st.tokenHistory {
		f.tokenHistory.PushBack(tok)
	}
	f.tokenTotal = st.tokenTotal
	if st.lastSentTime > f.lastSentTime {
		f.lastSentTime = st.lastSentTime
	}
	f.pendingDelta = st.pendingDelta
}

// dropFlow abandons a flow's state (the reset-on-handover policy). Pending
// delayed ACKs still drain through their scheduled events.
func (u *OOBUpdater) dropFlow(key netem.FlowKey) { delete(u.flows, key) }

// Stats reports, for a downlink flow, how many ACKs were processed and the
// mean extra delay applied (used by the token-ablation experiment).
func (u *OOBUpdater) Stats(downlink netem.FlowKey) (acks int, meanDelay time.Duration) {
	f := u.flows[downlink]
	if f == nil || f.delayedAcks == 0 {
		return 0, 0
	}
	return f.delayedAcks, f.totalDelay / time.Duration(f.delayedAcks)
}
