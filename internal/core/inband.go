package core

import (
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/packet"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// TWCCCarrier is implemented by downlink data-packet payloads that expose
// the transport-wide congestion control sequence number. On a real wire
// this is the (unencrypted) RTP header extension, which is all Zhuge reads
// even under SRTP (§5.3, "Packet fortune recording").
type TWCCCarrier interface {
	TWCCInfo() (ssrc uint32, seq uint16)
}

// RTCPCarrier is implemented by uplink feedback payloads wrapping raw RTCP
// bytes.
type RTCPCarrier interface {
	RawRTCP() []byte
}

// maxMisorder is RFC 3550 A.1's MAX_MISORDER: a sequence number at most this
// far behind the last one recorded is a reordered or duplicated datagram;
// one further behind means the sender restarted its sequence space.
const maxMisorder = 100

// Clock is all the AP and both Feedback Updaters need from their host: the
// current time and a one-shot timer. *sim.Simulator is one as it stands; the
// live relay (internal/liveap) supplies wall-clock offsets and
// time.AfterFunc. The clock's owner serialises everything: a scheduled fn
// must never run concurrently with another or with any method of core.
// core stays single-threaded and never reads wall time itself.
type Clock interface {
	Now() sim.Time
	ScheduleAfter(d time.Duration, fn func())
}

// InbandUpdater implements the in-band Feedback Updater (§5.3): it records
// each RTP data packet's TWCC sequence number with its predicted arrival
// time, periodically constructs TWCC feedback packets itself (with
// consistent AP-clock timestamps), and drops the client's own TWCC packets
// while forwarding every other RTCP type (NACK, receiver reports)
// unchanged. It is the one copy of the mechanism: the simulator's AP and the
// live relay both run it, each on its own Clock.
type InbandUpdater struct {
	s        Clock
	uplink   netem.Receiver
	interval time.Duration

	flows map[netem.FlowKey]*ibFlow

	constructed int
	dropped     int

	tr           *obs.Tracer
	lt           *obs.LoopTracker
	cConstructed *obs.Counter
	cDropped     *obs.Counter
}

type ibFlow struct {
	downlink netem.FlowKey
	ssrc     uint32
	records  []packet.TWCCArrival
	fbCount  uint8
	lastSeq  uint16 // last sequence number recorded, kept across flushes; valid once started
	started  bool
	stopped  bool

	// hold is the visit of a roamed packet whose record waits unflushed
	// here, held once for all of them: the feedback built from those
	// records crosses back to the roamed station's home cell, so the visit
	// must not drain before it leaves. The next flush hands the hold to
	// that feedback packet; exportFlow and dropFlow give it back.
	hold *netem.Visit

	// fbScratch is reused across flushes so periodic feedback construction
	// does not allocate in steady state.
	fbScratch packet.TWCCFeedback
}

// NewInbandUpdater builds an in-band updater that injects its feedback into
// uplink every interval (default: DefaultWindow, one frame at 25fps).
func NewInbandUpdater(s Clock, uplink netem.Receiver, interval time.Duration) *InbandUpdater {
	if interval == 0 {
		interval = DefaultWindow
	}
	return &InbandUpdater{
		s: s, uplink: uplink, interval: interval,
		flows: make(map[netem.FlowKey]*ibFlow),
	}
}

// SetObs attaches the observability layer: constructed feedback packets and
// absorbed client TWCC packets are counted, and each constructed feedback
// emits a trace event.
func (u *InbandUpdater) SetObs(o *obs.Obs) {
	if o == nil {
		return
	}
	u.tr = o.Trace()
	u.lt = o.ControlLoop()
	u.cConstructed = o.Counter("ib.constructed")
	u.cDropped = o.Counter("ib.dropped_client_twcc")
}

// Constructed returns the number of feedback packets built by the AP.
func (u *InbandUpdater) Constructed() int { return u.constructed }

// DroppedClientFeedback returns the number of client TWCC packets absorbed.
func (u *InbandUpdater) DroppedClientFeedback() int { return u.dropped }

// OnDataPacket implements step 1 (packet fortune recording): store the
// packet's TWCC sequence number with its predicted arrival time, measured
// on the AP clock. The server tolerates the AP/receiver clock difference
// the same way it tolerates receiver clocks (§5.3, time synchronisation).
func (u *InbandUpdater) OnDataPacket(now sim.Time, downlink netem.FlowKey, p *netem.Packet, pred Prediction) {
	carrier, ok := p.Payload.(TWCCCarrier)
	if !ok {
		return
	}
	ssrc, seq := carrier.TWCCInfo()
	f := u.flows[downlink]
	if f == nil {
		f = &ibFlow{downlink: downlink, ssrc: ssrc}
		u.flows[downlink] = f
	}
	f.ssrc = ssrc
	if f.started {
		// UDP may reorder (the simulator never does within a flow), and the
		// records of one message must ascend. A late datagram is skipped: it
		// is reported lost, also when a flush fell between it and its place,
		// and the endpoints' own loss machinery recovers it. A restarted
		// sender opens a new message.
		if d := int16(seq - f.lastSeq); d <= -maxMisorder {
			u.flush(f)
		} else if d <= 0 {
			return
		}
	}
	f.lastSeq = seq
	// The recorded timestamp is the packet's own faithful prediction,
	// fluctuations included: §5.2 is explicit that sub-RTT per-packet
	// delay patterns are signal, not noise, and a real receiver's
	// timestamps carry the same per-burst structure. (Smoothing these —
	// either with a monotone floor or with the phase-stable form the
	// out-of-band path uses — measurably destroys the early-reaction
	// benefit; see EXPERIMENTS.md for the resulting trade-offs.)
	at := time.Duration(now) + pred.Total
	f.records = append(f.records, packet.TWCCArrival{Seq: seq, At: at})
	if v := p.Visit(); v != nil && f.hold == nil {
		v.Hold()
		f.hold = v
	}
	if !f.started {
		f.started = true
		u.startTicker(f)
	}
}

func (u *InbandUpdater) startTicker(f *ibFlow) {
	var tick func()
	tick = func() {
		if f.stopped {
			return
		}
		u.flush(f)
		u.s.ScheduleAfter(u.interval, tick)
	}
	u.s.ScheduleAfter(u.interval, tick)
}

// flush implements step 2 (feedback construction): behave like the RTP
// receiver and emit a TWCC packet from the recorded fortunes.
func (u *InbandUpdater) flush(f *ibFlow) {
	if len(f.records) == 0 {
		return
	}
	nRecords := len(f.records)
	packet.BuildTWCCInto(&f.fbScratch, f.ssrc, f.ssrc, f.fbCount, f.records)
	f.fbCount++
	f.records = f.records[:0]
	buf := packet.NewFeedbackBuf()
	buf.B = f.fbScratch.Marshal(buf.B)
	u.constructed++
	u.cConstructed.Inc()
	fbp := netem.NewPacket()
	*fbp = netem.Packet{
		Flow:    f.downlink.Reverse(),
		Kind:    netem.KindFeedback,
		Size:    len(buf.B) + packet.UDPOverhead,
		SentAt:  u.s.Now(),
		Payload: buf,
	}
	fbp.SetVisit(f.hold)
	f.hold = nil
	if u.tr != nil {
		u.tr.Record(obs.Event{At: u.s.Now(), Type: obs.EvFeedback, Flow: f.downlink, Size: fbp.Size, A: int64(nRecords)})
	}
	// The constructed TWCC packet is the in-band feedback departure for this
	// flow's latest observation.
	if u.lt != nil {
		u.lt.OnFeedbackOut(u.s.Now(), f.downlink)
	}
	u.uplink.Receive(fbp)
}

// OnFeedbackPacket filters the client's uplink RTCP: TWCC packets are
// dropped (the AP's own feedback replaces them, keeping timestamps from one
// clock); everything else — NACK, receiver reports — forwards unchanged.
func (u *InbandUpdater) OnFeedbackPacket(now sim.Time, p *netem.Packet) {
	if carrier, ok := p.Payload.(RTCPCarrier); ok {
		if pt, fmtField, _, err := packet.RTCPKind(carrier.RawRTCP()); err == nil &&
			pt == packet.RTCPTypeRTPFB && fmtField == packet.RTPFBTWCC {
			u.dropped++
			u.cDropped.Inc()
			p.Release()
			return
		}
	}
	u.uplink.Receive(p)
}

// ibFlowState is the portable slice of an ibFlow: unflushed packet
// fortunes, the feedback sequence counter, the media SSRC and the reorder
// guard's last sequence number (carried, not reset: the sequence space is
// the sender's, not the AP's). Migrating it means packets that passed the
// old AP before the handover still get their constructed feedback — from
// the new AP — instead of appearing as a loss burst to the sender's
// congestion controller.
type ibFlowState struct {
	ssrc    uint32
	records []packet.TWCCArrival
	fbCount uint8
	lastSeq uint16
	started bool
}

// exportFlow detaches and returns the flow's portable in-band state, or
// nil if the updater holds none. The old per-flow ticker is stopped; the
// records move out so they are flushed exactly once, by the importing AP.
func (u *InbandUpdater) exportFlow(key netem.FlowKey) *ibFlowState {
	f := u.flows[key]
	if f == nil {
		return nil
	}
	st := &ibFlowState{
		ssrc:    f.ssrc,
		records: append([]packet.TWCCArrival(nil), f.records...),
		fbCount: f.fbCount,
		lastSeq: f.lastSeq,
		started: f.started,
	}
	f.stopped = true
	f.records = f.records[:0]
	f.unhold()
	delete(u.flows, key)
	return st
}

// unhold gives back the flow's hold on a visit, if it has one: its records
// have moved out or been discarded.
func (f *ibFlow) unhold() {
	if f.hold != nil {
		f.hold.Unhold()
		f.hold = nil
	}
}

// importFlow installs exported in-band state. The feedback ticker restarts
// on the importing AP's clock — its phase resets, but fbCount continuity
// keeps the TWCC feedback sequence gap-free across the handover.
func (u *InbandUpdater) importFlow(key netem.FlowKey, st *ibFlowState) {
	f := u.flows[key]
	if f == nil {
		f = &ibFlow{downlink: key}
		u.flows[key] = f
	}
	f.ssrc = st.ssrc
	f.fbCount = st.fbCount
	f.records = append(f.records, st.records...)
	if st.started && !f.started {
		f.started = true
		f.lastSeq = st.lastSeq
		u.startTicker(f)
	}
}

// dropFlow abandons a flow's in-band state (the reset-on-handover policy):
// unflushed fortunes are discarded — the sender will see those packets as
// missing from feedback — and the ticker dies at its next tick.
func (u *InbandUpdater) dropFlow(key netem.FlowKey) {
	if f := u.flows[key]; f != nil {
		f.stopped = true
		f.unhold()
		delete(u.flows, key)
	}
}

// Stop halts all per-flow tickers (end of experiment).
func (u *InbandUpdater) Stop() {
	for _, f := range u.flows {
		f.stopped = true
	}
}
