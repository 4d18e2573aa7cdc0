// Package rtp implements the RTP/RTCP media transport of the evaluation: a
// sender that packetises encoder frames, paces them, tracks transport-wide
// sequence numbers and feeds TWCC feedback to GCC; and a receiver that
// reassembles frames, requests retransmissions via NACK, and periodically
// returns TWCC feedback. Feedback packets carry real RTCP bytes produced by
// internal/packet, so the simulator exercises the same codec as the live AP.
package rtp

import (
	"sort"
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

	// released is set by Release and cleared when enqueue reuses the
	// struct, so that a second Release panics instead of recycling one
	// struct twice.
	released bool
}

// Release ends the payload's life (implements netem's structural
// payloadReleaser hook, so it dies with the packet that carried it). A
// payload has one owner, so a second Release means two packets alias it,
// and panics.
func (p *Payload) Release() {
	if p.released {
		panic("rtp: Payload released twice")
	}
	*p = Payload{released: true}
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

	// sent holds send metadata by TWCC seq for feedback matching, and
	// store a copy of each original send's payload by RTP seq for NACKs.
	// sent.next and store.next are the next TWCC and RTP seqs.
	sent  seqWindow[sentRecord]
	store seqWindow[storedPayload]

	pkts netem.Maker // the media packets and their payloads

	// pacer queue
	queue    sim.Deque[netem.Held]
	pacing   bool
	pacingAt sim.Time
	sendFn   func() // persistent pacer event: send head, schedule next

	// feedback-parsing scratch, reused across TWCC messages so the
	// steady-state feedback path does not allocate.
	fbScratch       packet.TWCCFeedback
	arrivalsScratch []packet.TWCCArrival
	samplesScratch  []cca.FeedbackSample

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
	// retransmission store must not retire payloads on it; they leave at
	// the virtual-time horizon prune. Client-generated feedback (the
	// default) is receiver ground truth and retires them on confirmation.
	APFeedback bool

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
	rtpSeq uint16 // media seq of the payload, to retire its stored copy on confirm
	valid  bool
}

// storedPayload is the store's copy of one original send. live is cleared
// when client feedback confirms the send: no NACK can ask for it anymore.
type storedPayload struct {
	pl   Payload
	live bool
}

// seqWindow holds one entry per sequence number up to next-1, from the
// oldest not yet popped and at most 1<<16 of them: an entry lives until it
// is popped or until 1<<16 later numbers have been issued.
type seqWindow[T any] struct {
	sim.Deque[T]
	next uint16
}

// push appends the entry for sequence number next.
func (w *seqWindow[T]) push(v T) {
	if w.Len() == 1<<16 {
		w.PopFront()
	}
	w.PushBack(v)
	w.next++
}

// at returns the entry for seq, or nil if seq is not in the window.
func (w *seqWindow[T]) at(seq uint16) *T {
	items := w.Items()
	if i := int(seq - w.next + uint16(len(items))); i < len(items) {
		return &items[i]
	}
	return nil
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

// storeHorizon bounds how long a payload's copy can sit in the
// retransmission store before the prune pops it. It must exceed the last instant a
// NACK can still arrive for a send: the receiver abandons a missing
// sequence 2s after detecting the gap, detection lags the send by at most
// one frame interval plus the (possibly bufferbloated) one-way delay of the
// next delivered packet, and the NACK rides the uplink back. 8s dominates
// that sum with seconds to spare, so pruned copies are provably dead and
// the prune changes no run's behavior.
const storeHorizon = 8 * time.Second

// SendFrame packetises one encoded frame and queues it on the pacer.
func (snd *Sender) SendFrame(f video.Frame) {
	// Pop confirmed copies and those older than storeHorizon.
	now := snd.s.Now()
	for snd.store.Len() > 0 {
		if e := snd.store.Front(); e.live && now-e.pl.Captured <= storeHorizon {
			break
		}
		snd.store.PopFront()
	}
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
		pl := Payload{
			SSRC: snd.ssrc, RTPSeq: snd.store.next,
			FrameID: f.ID, FrameIdx: i, FrameTot: total,
			Key: f.Key, Captured: f.CapturedAt,
		}
		snd.store.push(storedPayload{pl: pl, live: true})
		snd.enqueue(pl, n+rtpOverhead)
	}
	snd.pace()
}

// enqueue queues a copy of pl on the pacer, in a packet of wireSize bytes.
// The packet is the copy's only owner; the store keeps its own.
func (snd *Sender) enqueue(pl Payload, wireSize int) {
	p := snd.pkts.NewPacket()
	wire, _ := p.Payload.(*Payload)
	if wire == nil {
		wire = new(Payload)
	}
	*wire = pl
	p.Flow = snd.flow
	p.Kind = netem.KindData
	p.Size = wireSize
	p.Payload = wire
	snd.queue.PushBack(netem.Hold(p, holder))
}

// holder names the pacer queue in a netem.Held panic.
const holder = "rtp.Sender"

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
	p := snd.queue.Front().Packet(holder)
	rate := snd.cc.Rate() * 1.5
	gap := time.Duration(float64(p.Size*8) / rate * float64(time.Second))
	snd.pacingAt = at + gap
	snd.s.Schedule(at, snd.sendFn)
}

// sendHead fires one paced send: pop the queue head, stamp its TWCC
// sequence number at the actual send instant, and book the next send.
func (snd *Sender) sendHead() {
	p := snd.queue.PopFront().Packet(holder)
	sendAt := snd.s.Now()
	pl := p.Payload.(*Payload)
	pl.TWCCSeq = snd.sent.next
	snd.sent.push(sentRecord{at: sendAt, size: p.Size, rtpSeq: pl.RTPSeq, valid: true})
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
			if rec := snd.sent.at(s); rec != nil && rec.valid {
				samples = append(samples, cca.FeedbackSample{Seq: s, SendAt: rec.at, Size: rec.size})
				*rec = sentRecord{}
			}
		}
	}
	arrivals := fb.AppendArrivals(snd.arrivalsScratch[:0])
	snd.arrivalsScratch = arrivals[:0]
	ai := 0
	for range fb.Packets {
		if rec := snd.sent.at(seq); rec != nil && rec.valid {
			s := cca.FeedbackSample{Seq: seq, SendAt: rec.at, Size: rec.size}
			if ai < len(arrivals) && arrivals[ai].Seq == seq {
				s.Arrived = true
				s.ArriveAt = arrivals[ai].At
				ai++
				// Client feedback only: the receiver has this media
				// sequence (original or retransmit), it will never be
				// NACKed again, so the store's copy is dead and the next
				// prune pops it, one feedback interval after the send.
				// AP-built feedback cannot promise receipt; those copies
				// stay until the horizon prune.
				if e := snd.store.at(rec.rtpSeq); e != nil && !snd.APFeedback {
					e.live = false
				}
			}
			samples = append(samples, s)
			*rec = sentRecord{}
		} else if ai < len(arrivals) && arrivals[ai].Seq == seq {
			ai++
		}
		seq++
	}
	if snd.GapLoss && int16(seq-snd.flushSeq) > 0 {
		snd.flushSeq = seq
	}
	for snd.sent.Len() > 0 && !snd.sent.Front().valid {
		snd.sent.PopFront()
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
		e := snd.store.at(seq)
		if e == nil || !e.live {
			continue
		}
		snd.retransmits++
		clone := e.pl
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
	pkts        netem.Maker // the feedback packets and their buffers

	highest     uint16
	haveHighest bool
	missing     map[uint16]missState // rtp seq -> loss-tracking state

	frames  map[uint64]*frameState
	fsFree  []*frameState // recycled reassembly states (with their bitsets)
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
	got      []uint64 // bit i set: fragment i arrived
	n        int      // fragments arrived, each counted once
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
	w, bit := pl.FrameIdx/64, uint64(1)<<(pl.FrameIdx%64)
	for len(fs.got) <= w {
		fs.got = append(fs.got, 0)
	}
	if fs.got[w]&bit == 0 {
		fs.got[w] |= bit
		fs.n++
	}
	if !fs.complete && fs.n == fs.total {
		fs.complete = true
		r.decoder.OnFrameComplete(now, fs.frame)
		delete(r.frames, pl.FrameID)
		r.putFrameState(fs)
	}
}

// getFrameState returns a zeroed reassembly state, reusing a recycled one
// (and its bitset's storage) when available.
func (r *Receiver) getFrameState() *frameState {
	if n := len(r.fsFree); n > 0 {
		fs := r.fsFree[n-1]
		r.fsFree = r.fsFree[:n-1]
		return fs
	}
	return new(frameState)
}

// putFrameState recycles a reassembly state after the frame completed or was
// abandoned. The caller must already have removed it from r.frames.
func (r *Receiver) putFrameState(fs *frameState) {
	*fs = frameState{got: fs.got[:0]}
	r.fsFree = append(r.fsFree, fs)
}

// sendFeedback flushes accumulated arrivals as one TWCC feedback packet.
func (r *Receiver) sendFeedback() {
	if len(r.arrivals) == 0 {
		return
	}
	packet.BuildTWCCInto(&r.fbScratch, r.ssrc, r.ssrc, r.fbCount, r.arrivals)
	r.fbCount++
	p, buf := packet.NewFeedback(&r.pkts)
	buf.B = r.fbScratch.Marshal(buf.B)
	r.arrivals = r.arrivals[:0]
	if r.onFeedback != nil {
		r.onFeedback(r.s.Now())
	}
	r.sendRTCP(p, buf)
}

// sendRTCP sends p, carrying buf's RTCP bytes, toward the sender.
func (r *Receiver) sendRTCP(p *netem.Packet, buf *packet.FeedbackBuf) {
	p.Flow = r.flow
	p.Kind = netem.KindFeedback
	p.Size = len(buf.B) + packet.UDPOverhead
	p.SentAt = r.s.Now()
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
	p, buf := packet.NewFeedback(&r.pkts)
	buf.B = rr.Marshal(buf.B)
	r.rrSent++
	r.sendRTCP(p, buf)
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
	p, buf := packet.NewFeedback(&r.pkts)
	buf.B = nack.Marshal(buf.B)
	r.sendRTCP(p, buf)
}
