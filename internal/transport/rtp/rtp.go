// Package rtp implements the RTP/RTCP media transport of the evaluation: a
// sender that packetises encoder frames, paces them, tracks transport-wide
// sequence numbers and feeds TWCC feedback to GCC; and a receiver that
// reassembles frames, requests retransmissions via NACK, and periodically
// returns TWCC feedback. Feedback packets carry real RTCP bytes produced by
// internal/packet, so the simulator exercises the same codec as the live AP.
package rtp

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/packet"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/video"
)

// MTU is the media payload size per RTP packet.
const MTU = 1200

// rtpOverhead approximates IP+UDP+RTP(+TWCC ext) header bytes.
const rtpOverhead = 48

// Payload is the simulator-level view of one RTP data packet. On a real
// wire, RTPSeq/TWCCSeq live in the (unencrypted) RTP header and the frame
// fields are implied by the payload; Zhuge's in-band updater reads only
// TWCCSeq, mirroring its header-only visibility under SRTP (§5.3).
type Payload struct {
	SSRC       uint32
	RTPSeq     uint16
	TWCCSeq    uint16
	FrameID    uint64
	FrameIdx   int
	FrameTot   int
	Key        bool
	Captured   sim.Time
	Retransmit bool

	// refs counts the owners of a pooled payload: the wire packet carrying
	// it and, for original (non-retransmit) sends, the sender's
	// retransmission store. Manipulated only through newPayload/Release.
	refs int32
}

// payloadPool recycles Payloads across flows and shards. Media payloads are
// the last per-packet allocation on the video datapath: one per RTP packet
// sent, several per frame, multiplied per shard at campus scale.
var payloadPool = sync.Pool{New: func() any { return new(Payload) }}

// newPayload returns a zeroed Payload from the pool holding refs references.
func newPayload(refs int32) *Payload {
	pl := payloadPool.Get().(*Payload)
	atomic.StoreInt32(&pl.refs, refs)
	return pl
}

// Release drops one reference and recycles the payload when the last owner
// lets go (implements netem's structural payloadReleaser hook, so the wire
// reference dies with the packet that carried it; the sender releases its
// store reference when feedback confirms delivery or the slot is reused).
// The count is atomic because under a sharded run the wire reference can die
// on another shard's goroutine — a tromboned packet dropped at a visited AP
// — concurrently with the home sender releasing its store reference.
func (p *Payload) Release() {
	if atomic.AddInt32(&p.refs, -1) > 0 {
		return
	}
	*p = Payload{}
	payloadPool.Put(p)
}

// TWCCInfo exposes the transport-wide sequence number the way a real AP
// reads it from the RTP header extension (implements core.TWCCCarrier).
func (p *Payload) TWCCInfo() (ssrc uint32, seq uint16) { return p.SSRC, p.TWCCSeq }

// Sender packetises frames, paces them out, and adapts rate via GCC.
type Sender struct {
	s    *sim.Simulator
	out  netem.Receiver
	flow netem.FlowKey
	cc   cca.Rate
	ssrc uint32

	rtpSeq  uint16
	twccSeq uint16

	// sent records per-TWCC-seq send metadata for feedback matching.
	sent [1 << 16]sentRecord

	// pacer queue
	queue    sim.Deque[*netem.Packet]
	pacing   bool
	pacingAt sim.Time
	sendFn   func() // persistent pacer event: send head, schedule next

	// feedback-parsing scratch, reused across TWCC messages so the
	// steady-state feedback path does not allocate.
	fbScratch       packet.TWCCFeedback
	arrivalsScratch []packet.TWCCArrival
	samplesScratch  []cca.FeedbackSample

	// retransmission store: recent packets by RTP seq.
	store [1 << 16]*Payload

	// Encoder to drive with rate updates (optional).
	Encoder *video.Encoder

	// OnRate, if set, observes every rate update.
	OnRate func(now sim.Time, bps float64)

	// OnSend, if set, observes every paced packet send at its actual send
	// instant (the control-loop tracker's "new rate on air" hook).
	OnSend func(now sim.Time)

	// APFeedback records that TWCC feedback for this flow is constructed
	// by a Zhuge AP at packet arrival, against the Fortune Teller's
	// prediction — before the packet has crossed the queue and air link. An
	// "arrived" entry in such feedback is not proof the receiver has the
	// packet (it may still be dropped by the qdisc and NACKed), so the
	// retransmission store must not recycle payloads on it; recycling falls
	// back to the virtual-time horizon prune. Client-generated feedback
	// (the default) is receiver ground truth and recycles on confirmation.
	APFeedback bool

	// pruneSeq is the oldest store slot the horizon prune has not yet
	// visited; slots behind it hold payloads younger than storeHorizon.
	pruneSeq uint16

	// GapLoss infers loss for sent packets the feedback stream has
	// silently skipped: when a TWCC message's range starts beyond
	// still-unreported sends, those packets are flushed to the rate
	// controller as lost (libwebrtc's TransportFeedbackAdapter behavior).
	// Off by default: the historical sender only counted packets a
	// feedback range explicitly covered, which hides feedback holes —
	// exactly the signal the AP-handover experiments need to observe.
	GapLoss  bool
	flushSeq uint16
	flushing bool

	retransmits int
}

type sentRecord struct {
	at     sim.Time
	size   int
	rtpSeq uint16 // media seq of the payload, for store release on confirm
	valid  bool
}

// NewSender builds an RTP sender for flow with rate controller cc, writing
// packets into out.
func NewSender(s *sim.Simulator, flow netem.FlowKey, ssrc uint32, cc cca.Rate, out netem.Receiver) *Sender {
	snd := &Sender{s: s, out: out, flow: flow, cc: cc, ssrc: ssrc}
	snd.sendFn = snd.sendHead
	return snd
}

// Controller returns the sender's rate controller.
func (snd *Sender) Controller() cca.Rate { return snd.cc }

// Retransmits returns the cumulative retransmission count.
func (snd *Sender) Retransmits() int { return snd.retransmits }

// storeHorizon bounds how long a payload can sit in the retransmission
// store before the prune recycles it. It must exceed the last instant a
// NACK can still arrive for a send: the receiver abandons a missing
// sequence 2s after detecting the gap, detection lags the send by at most
// one frame interval plus the (possibly bufferbloated) one-way delay of the
// next delivered packet, and the NACK rides the uplink back. 8s dominates
// that sum with seconds to spare, so pruned slots are provably dead and
// the prune changes no run's behavior.
const storeHorizon = 8 * time.Second

// pruneStore walks forward from the oldest unvisited slot, recycling
// payloads older than storeHorizon. Amortised O(1) per send: each slot is
// visited once per trip around the sequence space.
func (snd *Sender) pruneStore(now sim.Time) {
	for snd.pruneSeq != snd.rtpSeq {
		if pl := snd.store[snd.pruneSeq]; pl != nil {
			if now-pl.Captured <= storeHorizon {
				return
			}
			snd.store[snd.pruneSeq] = nil
			pl.Release()
		}
		snd.pruneSeq++
	}
}

// SendFrame packetises one encoded frame and queues it on the pacer.
func (snd *Sender) SendFrame(f video.Frame) {
	snd.pruneStore(snd.s.Now())
	total := (f.Size + MTU - 1) / MTU
	if total == 0 {
		total = 1
	}
	remaining := f.Size
	for i := 0; i < total; i++ {
		n := remaining
		if n > MTU {
			n = MTU
		}
		remaining -= n
		// Two references: one rides the wire packet, one stays in the
		// retransmission store until feedback confirms delivery (or the
		// slot is reused a full sequence-space later).
		pl := newPayload(2)
		pl.SSRC, pl.RTPSeq = snd.ssrc, snd.rtpSeq
		pl.FrameID, pl.FrameIdx, pl.FrameTot = f.ID, i, total
		pl.Key, pl.Captured = f.Key, f.CapturedAt
		snd.releaseStored(pl.RTPSeq)
		snd.store[pl.RTPSeq] = pl
		snd.rtpSeq++
		snd.enqueue(pl, n+rtpOverhead)
	}
	snd.pace()
}

// releaseStored drops the store's reference on the payload at seq, if any,
// and empties the slot. Called when feedback confirms the sequence arrived —
// no NACK for it can come anymore — and before a wrapped sequence number
// reuses the slot.
func (snd *Sender) releaseStored(seq uint16) {
	if pl := snd.store[seq]; pl != nil {
		snd.store[seq] = nil
		pl.Release()
	}
}

// enqueue stamps a fresh TWCC sequence number and queues the packet.
func (snd *Sender) enqueue(pl *Payload, wireSize int) {
	p := netem.NewPacket()
	*p = netem.Packet{
		Flow:    snd.flow,
		Kind:    netem.KindData,
		Size:    wireSize,
		Payload: pl,
	}
	snd.queue.PushBack(p)
}

// pace drains the queue at 1.5x the target rate (WebRTC's pacing factor),
// stamping TWCC sequence numbers at the actual send instant.
func (snd *Sender) pace() {
	if snd.pacing {
		return
	}
	snd.pacing = true
	snd.paceNext()
}

// paceNext books the send event for the queue head. The head is peeked, not
// popped: the persistent sendFn pops it at fire time, so no closure needs to
// capture the packet. Only the head can fire next — SendFrame appends at the
// tail — so the peeked and popped packets are always the same.
func (snd *Sender) paceNext() {
	if snd.queue.Len() == 0 {
		snd.pacing = false
		return
	}
	now := snd.s.Now()
	at := snd.pacingAt
	if at < now {
		at = now
	}
	p := *snd.queue.Front()
	rate := snd.cc.Rate() * 1.5
	gap := time.Duration(float64(p.Size*8) / rate * float64(time.Second))
	snd.pacingAt = at + gap
	snd.s.Schedule(at, snd.sendFn)
}

// sendHead fires one paced send: pop the queue head, stamp its TWCC
// sequence number at the actual send instant, and book the next send.
func (snd *Sender) sendHead() {
	p := snd.queue.PopFront()
	sendAt := snd.s.Now()
	pl := p.Payload.(*Payload)
	pl.TWCCSeq = snd.twccSeq
	snd.sent[pl.TWCCSeq] = sentRecord{at: sendAt, size: p.Size, rtpSeq: pl.RTPSeq, valid: true}
	snd.twccSeq++
	p.SentAt = sendAt
	p.Seq = uint64(pl.TWCCSeq)
	if snd.OnSend != nil {
		snd.OnSend(sendAt)
	}
	snd.out.Receive(p)
	snd.paceNext()
}

// Receive implements netem.Receiver: RTCP feedback from the network. Any
// payload exposing raw RTCP bytes is accepted — the client's own feedback
// and feedback constructed by a Zhuge AP look identical here.
func (snd *Sender) Receive(p *netem.Packet) {
	fb, ok := p.Payload.(interface{ RawRTCP() []byte })
	if !ok {
		return
	}
	pt, fmtField, _, err := packet.RTCPKind(fb.RawRTCP())
	if err != nil || pt != packet.RTCPTypeRTPFB {
		return
	}
	switch fmtField {
	case packet.RTPFBTWCC:
		snd.onTWCC(fb.RawRTCP())
	case packet.RTPFBNack:
		snd.onNACK(fb.RawRTCP())
	}
}

func (snd *Sender) onTWCC(raw []byte) {
	fb := &snd.fbScratch
	if err := packet.DecodeTWCC(fb, raw); err != nil {
		return
	}
	now := snd.s.Now()
	samples := snd.samplesScratch[:0]
	seq := fb.BaseSeq
	if snd.GapLoss {
		if !snd.flushing {
			snd.flushing = true
			snd.flushSeq = fb.BaseSeq
		}
		// Sends the feedback stream silently skipped past are lost: no
		// later message will ever cover them (feedback bases only
		// advance), so report them to the controller now, ahead of the
		// covered range.
		for s := snd.flushSeq; int16(fb.BaseSeq-s) > 0; s++ {
			if rec := snd.sent[s]; rec.valid {
				samples = append(samples, cca.FeedbackSample{Seq: s, SendAt: rec.at, Size: rec.size})
				snd.sent[s] = sentRecord{}
			}
		}
	}
	arrivals := fb.AppendArrivals(snd.arrivalsScratch[:0])
	snd.arrivalsScratch = arrivals[:0]
	ai := 0
	for range fb.Packets {
		rec := snd.sent[seq]
		if rec.valid {
			s := cca.FeedbackSample{Seq: seq, SendAt: rec.at, Size: rec.size}
			if ai < len(arrivals) && arrivals[ai].Seq == seq {
				s.Arrived = true
				s.ArriveAt = arrivals[ai].At
				ai++
				// Client feedback only: the receiver has this media
				// sequence (original or retransmit), it will never be
				// NACKed again, so the store's copy is dead. Recycling
				// here — one feedback interval after the send — lets a
				// steady-state flow run from a handful of pooled
				// payloads. AP-built feedback cannot promise receipt;
				// those flows recycle via the horizon prune instead.
				if !snd.APFeedback {
					snd.releaseStored(rec.rtpSeq)
				}
			}
			samples = append(samples, s)
			snd.sent[seq] = sentRecord{}
		} else if ai < len(arrivals) && arrivals[ai].Seq == seq {
			ai++
		}
		seq++
	}
	if snd.GapLoss && int16(seq-snd.flushSeq) > 0 {
		snd.flushSeq = seq
	}
	snd.samplesScratch = samples[:0]
	if len(samples) > 0 {
		snd.cc.OnFeedback(now, samples)
		if snd.Encoder != nil {
			snd.Encoder.SetTargetBitrate(snd.cc.Rate())
		}
		if snd.OnRate != nil {
			snd.OnRate(now, snd.cc.Rate())
		}
	}
}

func (snd *Sender) onNACK(raw []byte) {
	nack, err := packet.UnmarshalNACK(raw)
	if err != nil {
		return
	}
	for _, seq := range nack.Lost {
		pl := snd.store[seq]
		if pl == nil {
			continue
		}
		snd.retransmits++
		// One reference: clones ride the wire and are never stored. Fields
		// are copied one by one — never `*clone = *pl` — because pl's wire
		// twin may still be alive on another shard and its Release would
		// race a whole-struct copy of the refcount.
		clone := newPayload(1)
		clone.SSRC, clone.RTPSeq = pl.SSRC, pl.RTPSeq
		clone.FrameID, clone.FrameIdx, clone.FrameTot = pl.FrameID, pl.FrameIdx, pl.FrameTot
		clone.Key, clone.Captured = pl.Key, pl.Captured
		clone.Retransmit = true
		size := MTU
		if clone.FrameIdx == clone.FrameTot-1 {
			size = MTU / 2 // tail packets are smaller on average
		}
		snd.enqueue(clone, size+rtpOverhead)
	}
	snd.pace()
}

// Receiver reassembles frames, produces TWCC feedback every interval, and
// NACKs gaps in the RTP sequence space.
type Receiver struct {
	s    *sim.Simulator
	out  netem.Receiver // toward the sender (uplink)
	flow netem.FlowKey
	ssrc uint32

	arrivals []packet.TWCCArrival
	fbCount  uint8
	interval time.Duration

	// fbScratch and lostScratch are reused across feedback rounds so the
	// periodic TWCC/NACK construction does not allocate in steady state.
	fbScratch   packet.TWCCFeedback
	lostScratch []uint16

	highest     uint16
	haveHighest bool
	missing     map[uint16]missState // rtp seq -> loss-tracking state

	frames  map[uint64]*frameState
	fsFree  []*frameState // recycled reassembly states (with their got maps)
	decoder *video.Decoder

	// onObserve/onFeedback are the control-loop recorder taps (see
	// SetLoopHooks); nil when observability is disabled.
	onObserve  func(now sim.Time)
	onFeedback func(now sim.Time)

	received int
	lastRRAt sim.Time
	rrSent   int

	stopped bool
}

type frameState struct {
	frame    video.Frame
	got      map[int]bool
	total    int
	complete bool
	firstAt  sim.Time
}

type missState struct {
	since     sim.Time
	lastNACK  sim.Time
	requested bool
}

// SetLoopHooks installs the control-loop recorder's client-side taps:
// observe fires at every media-packet arrival (the receiver's observation
// of the downlink), feedback at every TWCC departure. Baseline solutions
// close the control loop here, at the client — the long loop Zhuge
// shortens by moving both instants to the AP (§4). Nil hooks keep the
// datapath on its zero-overhead fast path.
func (r *Receiver) SetLoopHooks(observe, feedback func(now sim.Time)) {
	r.onObserve = observe
	r.onFeedback = feedback
}

// NewReceiver builds an RTP receiver for the media flow whose feedback
// packets travel into out with flow key fbFlow. Completed frames are fed to
// decoder.
func NewReceiver(s *sim.Simulator, fbFlow netem.FlowKey, ssrc uint32, decoder *video.Decoder, out netem.Receiver) *Receiver {
	return &Receiver{
		s: s, out: out, flow: fbFlow, ssrc: ssrc,
		interval: 40 * time.Millisecond, // once per frame at 25 fps (§7.1)
		missing:  make(map[uint16]missState),
		frames:   make(map[uint64]*frameState),
		decoder:  decoder,
	}
}

// Start begins the periodic feedback loop.
func (r *Receiver) Start() {
	var tick func()
	tick = func() {
		if r.stopped {
			return
		}
		r.sendFeedback()
		r.sendNACKs()
		if now := r.s.Now(); now-r.lastRRAt >= time.Second {
			r.lastRRAt = now
			r.sendReceiverReport()
		}
		r.s.ScheduleAfter(r.interval, tick)
	}
	r.s.ScheduleAfter(r.interval, tick)
}

// Stop halts the feedback loop.
func (r *Receiver) Stop() { r.stopped = true }

// Receive implements netem.Receiver: media packets from the network.
func (r *Receiver) Receive(p *netem.Packet) {
	pl, ok := p.Payload.(*Payload)
	if !ok {
		return
	}
	now := r.s.Now()
	r.received++
	if r.onObserve != nil {
		r.onObserve(now)
	}
	r.arrivals = append(r.arrivals, packet.TWCCArrival{Seq: pl.TWCCSeq, At: time.Duration(now)})

	// Track RTP-seq gaps for NACK.
	if !r.haveHighest {
		r.highest = pl.RTPSeq
		r.haveHighest = true
	} else {
		diff := int16(pl.RTPSeq - r.highest)
		if diff > 0 {
			for s := r.highest + 1; s != pl.RTPSeq; s++ {
				r.missing[s] = missState{since: now}
			}
			r.highest = pl.RTPSeq
		}
	}
	delete(r.missing, pl.RTPSeq)

	// Frame reassembly.
	fs := r.frames[pl.FrameID]
	if fs == nil {
		fs = r.getFrameState()
		fs.frame = video.Frame{ID: pl.FrameID, Key: pl.Key, CapturedAt: pl.Captured}
		fs.total = pl.FrameTot
		fs.firstAt = now
		r.frames[pl.FrameID] = fs
	}
	fs.got[pl.FrameIdx] = true
	if !fs.complete && len(fs.got) == fs.total {
		fs.complete = true
		r.decoder.OnFrameComplete(now, fs.frame)
		delete(r.frames, pl.FrameID)
		r.putFrameState(fs)
	}
}

// getFrameState returns a zeroed reassembly state, reusing a recycled one
// (and its got map) when available.
func (r *Receiver) getFrameState() *frameState {
	if n := len(r.fsFree); n > 0 {
		fs := r.fsFree[n-1]
		r.fsFree = r.fsFree[:n-1]
		return fs
	}
	return &frameState{got: make(map[int]bool)}
}

// putFrameState recycles a reassembly state after the frame completed or was
// abandoned. The caller must already have removed it from r.frames.
func (r *Receiver) putFrameState(fs *frameState) {
	clear(fs.got)
	*fs = frameState{got: fs.got}
	r.fsFree = append(r.fsFree, fs)
}

// sendFeedback flushes accumulated arrivals as one TWCC feedback packet.
func (r *Receiver) sendFeedback() {
	if len(r.arrivals) == 0 {
		return
	}
	packet.BuildTWCCInto(&r.fbScratch, r.ssrc, r.ssrc, r.fbCount, r.arrivals)
	r.fbCount++
	buf := packet.NewFeedbackBuf()
	buf.B = r.fbScratch.Marshal(buf.B)
	r.arrivals = r.arrivals[:0]
	if r.onFeedback != nil {
		r.onFeedback(r.s.Now())
	}
	r.sendRTCP(buf)
}

// sendRTCP sends buf's RTCP bytes toward the sender as one feedback packet.
func (r *Receiver) sendRTCP(buf *packet.FeedbackBuf) {
	p := netem.NewPacket()
	*p = netem.Packet{
		Flow:    r.flow,
		Kind:    netem.KindFeedback,
		Size:    len(buf.B) + packet.UDPOverhead,
		SentAt:  r.s.Now(),
		Payload: buf,
	}
	r.out.Receive(p)
}

// sendReceiverReport emits a standard RTCP RR once per second; under a
// Zhuge AP it passes through untouched while TWCC is rewritten (§5.3).
func (r *Receiver) sendReceiverReport() {
	rr := &packet.ReceiverReport{
		SSRC: r.ssrc,
		Reports: []packet.ReportBlock{{
			SSRC:       r.ssrc,
			TotalLost:  uint32(len(r.missing)),
			HighestSeq: uint32(r.highest),
		}},
	}
	buf := packet.NewFeedbackBuf()
	buf.B = rr.Marshal(buf.B)
	r.rrSent++
	r.sendRTCP(buf)
}

// sendNACKs requests retransmission of sequence gaps older than 10ms. A
// sequence is re-requested only after a 200ms retry timeout (the previous
// retransmission needs at least one RTT to arrive), and abandoned after 2s.
func (r *Receiver) sendNACKs() {
	now := r.s.Now()
	lost := r.lostScratch[:0]
	for seq, st := range r.missing {
		if now-st.since > 2*time.Second {
			delete(r.missing, seq)
			continue
		}
		if now-st.since <= 10*time.Millisecond {
			continue
		}
		if st.requested && now-st.lastNACK < 200*time.Millisecond {
			continue
		}
		st.requested = true
		st.lastNACK = now
		r.missing[seq] = st
		lost = append(lost, seq)
	}
	// Abandon reassembly state for frames that can no longer be saved.
	for id, fs := range r.frames {
		if now-fs.firstAt > 4*time.Second {
			delete(r.frames, id)
			r.putFrameState(fs)
		}
	}
	r.lostScratch = lost[:0]
	if len(lost) == 0 {
		return
	}
	// Map iteration order is random; sort to keep runs reproducible.
	sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
	nack := packet.NACK{SenderSSRC: r.ssrc, MediaSSRC: r.ssrc, Lost: lost}
	buf := packet.NewFeedbackBuf()
	buf.B = nack.Marshal(buf.B)
	r.sendRTCP(buf)
}
