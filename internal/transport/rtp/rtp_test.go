package rtp

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/packet"
	"github.com/zhuge-project/zhuge/internal/queue"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/video"
	"github.com/zhuge-project/zhuge/internal/wireless"
)

var mediaFlow = netem.FlowKey{SrcIP: 10, DstIP: 20, SrcPort: 5004, DstPort: 5004, Proto: 17}

type session struct {
	s   *sim.Simulator
	snd *Sender
	rcv *Receiver
	enc *video.Encoder
	dec *video.Decoder
}

// newSession wires encoder -> RTP sender -> fwd path -> receiver -> rev
// path -> sender with fixed links.
func newSession(s *sim.Simulator, rate float64, delay time.Duration) *session {
	fwd := netem.NewLink(s, rate, delay, nil)
	rev := netem.NewLink(s, rate, delay, nil)
	g := cca.NewGCC(1e6, 100e3, 20e6)
	snd := NewSender(s, mediaFlow, 0xabc, g, fwd)
	dec := video.NewDecoder()
	rcv := NewReceiver(s, mediaFlow.Reverse(), 0xabc, dec, rev)
	fwd.SetDst(rcv)
	rev.SetDst(snd)
	enc := video.NewEncoder(s, video.EncoderConfig{FPS: 25, StartBitrate: 1e6}, s.NewRand("enc"))
	enc.OnFrame = snd.SendFrame
	snd.Encoder = enc
	return &session{s: s, snd: snd, rcv: rcv, enc: enc, dec: dec}
}

func TestFramesDecodeOverCleanPath(t *testing.T) {
	s := sim.New(1)
	sess := newSession(s, 50e6, 20*time.Millisecond)
	sess.enc.Start()
	sess.rcv.Start()
	s.RunUntil(10 * time.Second)
	// ~250 frames; all should decode with low delay.
	if sess.dec.Decoded < 240 {
		t.Fatalf("decoded %d frames, want ~250", sess.dec.Decoded)
	}
	if sess.dec.Skipped != 0 {
		t.Errorf("skipped %d frames on a clean path", sess.dec.Skipped)
	}
	// Key frames (~3x size) take ~80ms of pacing at 1.5x rate on top of
	// the 40ms path; 150ms bounds the clean-path tail.
	if p99 := sess.dec.FrameDelay.Quantile(0.99); p99 > 150*time.Millisecond {
		t.Errorf("p99 frame delay %v on a clean path", p99)
	}
}

func TestGCCRampsUpOverCleanPath(t *testing.T) {
	s := sim.New(1)
	sess := newSession(s, 50e6, 20*time.Millisecond)
	sess.enc.Start()
	sess.rcv.Start()
	s.RunUntil(20 * time.Second)
	if got := sess.snd.Controller().Rate(); got < 2e6 {
		t.Errorf("GCC rate %.0f after 20s clean, want ramp above start 1e6", got)
	}
}

func TestNACKRecoversLoss(t *testing.T) {
	s := sim.New(1)
	fwd := netem.NewLink(s, 50e6, 20*time.Millisecond, nil)
	rev := netem.NewLink(s, 50e6, 20*time.Millisecond, nil)
	g := cca.NewGCC(1e6, 100e3, 20e6)
	snd := NewSender(s, mediaFlow, 1, g, nil)
	dec := video.NewDecoder()
	rcv := NewReceiver(s, mediaFlow.Reverse(), 1, dec, rev)

	// Drop every 50th media packet on its first transmission.
	count := 0
	dropper := netem.ReceiverFunc(func(p *netem.Packet) {
		if pl, ok := p.Payload.(*Payload); ok && !pl.Retransmit {
			count++
			if count%50 == 0 {
				return
			}
		}
		fwd.Receive(p)
	})
	snd.out = dropper
	fwd.SetDst(rcv)
	rev.SetDst(snd)

	enc := video.NewEncoder(s, video.EncoderConfig{FPS: 25, StartBitrate: 1e6}, s.NewRand("enc"))
	enc.OnFrame = snd.SendFrame
	enc.Start()
	rcv.Start()
	s.RunUntil(10 * time.Second)

	if snd.Retransmits() == 0 {
		t.Fatal("expected NACK-triggered retransmissions")
	}
	// With retransmission nearly all frames should still decode.
	if dec.Decoded < 230 {
		t.Errorf("decoded %d frames with 2%% loss + NACK, want ~250", dec.Decoded)
	}
}

func TestGCCBacksOffOverCongestedWireless(t *testing.T) {
	s := sim.New(1)
	rateFn := func(at sim.Time) float64 {
		if at > 5*time.Second {
			return 600e3 // below the media rate: must adapt down
		}
		return 30e6
	}
	rev := netem.NewLink(s, 100e6, 25*time.Millisecond, nil)
	g := cca.NewGCC(2e6, 100e3, 20e6)
	snd := NewSender(s, mediaFlow, 1, g, nil)
	dec := video.NewDecoder()
	rcv := NewReceiver(s, mediaFlow.Reverse(), 1, dec, rev)
	wl := wireless.NewLink(s, wireless.Config{Rate: rateFn}, queue.NewFIFO(0), rcv, s.NewRand("wl"))
	wan := netem.NewLink(s, 100e6, 25*time.Millisecond, wl)
	snd.out = wan
	rev.SetDst(snd)
	enc := video.NewEncoder(s, video.EncoderConfig{FPS: 25, StartBitrate: 2e6}, s.NewRand("enc"))
	enc.OnFrame = snd.SendFrame
	snd.Encoder = enc
	enc.Start()
	rcv.Start()
	s.RunUntil(30 * time.Second)
	if got := g.Rate(); got > 900e3 {
		t.Errorf("GCC rate %.0f over a 600kbps link, want back-off below 900e3", got)
	}
	if enc.Target() > 900e3 {
		t.Errorf("encoder target %.0f not following GCC", enc.Target())
	}
}

func TestPacingSpreadsFramePackets(t *testing.T) {
	s := sim.New(1)
	var times []sim.Time
	out := netem.ReceiverFunc(func(p *netem.Packet) { times = append(times, s.Now()) })
	g := cca.NewGCC(2e6, 100e3, 20e6)
	snd := NewSender(s, mediaFlow, 1, g, out)
	// One 12KB frame = 10 packets; at 1.5x2Mbps pacing they should span
	// roughly 10*1248*8/3e6 = 33ms, not arrive simultaneously.
	snd.SendFrame(video.Frame{ID: 0, Size: 12000, Key: true})
	s.Run()
	if len(times) != 10 {
		t.Fatalf("sent %d packets, want 10", len(times))
	}
	span := times[len(times)-1] - times[0]
	if span < 20*time.Millisecond || span > 50*time.Millisecond {
		t.Errorf("frame spanned %v, want ~33ms of pacing", span)
	}
}

func TestReceiverSendsReceiverReports(t *testing.T) {
	s := sim.New(1)
	sess := newSession(s, 50e6, 20*time.Millisecond)
	rrSeen := 0
	orig := sess.rcv.out
	sess.rcv.out = netem.ReceiverFunc(func(p *netem.Packet) {
		if fp, ok := p.Payload.(interface{ RawRTCP() []byte }); ok {
			if pt, _, _, err := packet.RTCPKind(fp.RawRTCP()); err == nil && pt == packet.RTCPTypeReceiverReport {
				rrSeen++
				if _, err := packet.UnmarshalReceiverReport(fp.RawRTCP()); err != nil {
					t.Errorf("bad RR on the wire: %v", err)
				}
			}
		}
		orig.Receive(p)
	})
	sess.enc.Start()
	sess.rcv.Start()
	s.RunUntil(5 * time.Second)
	if rrSeen < 4 || rrSeen > 6 {
		t.Errorf("saw %d receiver reports over 5s, want ~5", rrSeen)
	}
}

// TestNACKListsGapsInOrder pins the order of a NACK's sequence numbers,
// which come out of the receiver's loss map: twelve gaps, each more than 16
// apart so that each is its own PID on the wire, must be asked for
// ascending.
func TestNACKListsGapsInOrder(t *testing.T) {
	s := sim.New(1)
	var nacks []*packet.NACK
	r := NewReceiver(s, mediaFlow.Reverse(), 7, video.NewDecoder(), netem.ReceiverFunc(func(p *netem.Packet) {
		if fb, ok := p.Payload.(interface{ RawRTCP() []byte }); ok {
			if n, err := packet.UnmarshalNACK(fb.RawRTCP()); err == nil {
				nacks = append(nacks, n)
			}
		}
	}))
	const gaps = 12
	var want []uint16
	for seq := uint16(0); seq <= 20*gaps+1; seq++ {
		if seq > 0 && seq%20 == 0 {
			want = append(want, seq)
			continue
		}
		p := netem.NewPacket()
		p.Payload = &Payload{RTPSeq: seq, TWCCSeq: seq, FrameID: uint64(seq), FrameTot: 1}
		r.Receive(p)
	}
	s.ScheduleAfter(20*time.Millisecond, r.sendNACKs)
	s.Run()
	if len(nacks) != 1 {
		t.Fatalf("%d NACKs, want 1", len(nacks))
	}
	if !reflect.DeepEqual(nacks[0].Lost, want) {
		t.Fatalf("NACK lists %v, want %v", nacks[0].Lost, want)
	}
}

// nackHarness is a sender whose wire records a copy of every payload it
// paces out and then releases the packet, as the delivery demux would.
// Feedback and NACKs are handed to the sender by hand.
type nackHarness struct {
	s    *sim.Simulator
	snd  *Sender
	wire []Payload
}

func newNACKHarness() *nackHarness {
	h := &nackHarness{s: sim.New(1)}
	h.snd = NewSender(h.s, mediaFlow, 7, &captureCC{}, netem.ReceiverFunc(func(p *netem.Packet) {
		h.wire = append(h.wire, *p.Payload.(*Payload))
		p.Release()
	}))
	return h
}

// sendFrame sends a ten-packet frame captured now and paces it out.
func (h *nackHarness) sendFrame(id uint64) {
	h.snd.SendFrame(video.Frame{ID: id, Size: 10 * MTU, CapturedAt: h.s.Now()})
	h.s.Run()
}

// confirm reports TWCC seqs first..first+n-1 arrived.
func (h *nackHarness) confirm(first uint16, n int) {
	var arrivals []packet.TWCCArrival
	for i := 0; i < n; i++ {
		arrivals = append(arrivals, packet.TWCCArrival{Seq: first + uint16(i), At: h.s.Now()})
	}
	h.snd.onTWCC(packet.BuildTWCC(7, 7, 0, arrivals).Marshal(nil))
}

// nack asks for the RTP seqs lost, paces the retransmissions out and
// returns the RTP seqs retransmitted.
func (h *nackHarness) nack(t *testing.T, lost ...uint16) []uint16 {
	t.Helper()
	n := len(h.wire)
	msg := packet.NACK{SenderSSRC: 7, MediaSSRC: 7, Lost: lost}
	h.snd.onNACK(msg.Marshal(nil))
	h.s.Run()
	got := []uint16{}
	for _, pl := range h.wire[n:] {
		if !pl.Retransmit {
			t.Errorf("NACK sent RTP seq %d without the retransmit flag", pl.RTPSeq)
		}
		got = append(got, pl.RTPSeq)
	}
	return got
}

// seqs returns first..first+n-1, wrapping.
func seqs(first uint16, n int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = first + uint16(i)
	}
	return out
}

// TestConfirmedSendIsNotRetransmitted pins the store under client
// feedback: a TWCC arrival is receiver ground truth, so a confirmed send
// (original or retransmission) is never sent again, while an unconfirmed
// one is, with the original's frame fields.
func TestConfirmedSendIsNotRetransmitted(t *testing.T) {
	h := newNACKHarness()
	h.sendFrame(3)
	h.confirm(0, 5)
	if got := h.nack(t, seqs(0, 10)...); !reflect.DeepEqual(got, seqs(5, 5)) {
		t.Fatalf("retransmitted %v after confirming 0..4, want %v", got, seqs(5, 5))
	}
	orig, re := h.wire[7], h.wire[12]
	orig.TWCCSeq, re.TWCCSeq, re.Retransmit = 0, 0, false
	if re != orig {
		t.Errorf("retransmission %+v differs from original %+v", re, orig)
	}
	// The retransmissions went out as TWCC seqs 10..14; confirming them
	// confirms RTP seqs 5..9.
	h.confirm(10, 5)
	if got := h.nack(t, seqs(0, 10)...); len(got) != 0 {
		t.Errorf("retransmitted %v after every send was confirmed", got)
	}
	if got := h.snd.Retransmits(); got != 5 {
		t.Errorf("Retransmits() = %d, want 5", got)
	}
}

// TestAPFeedbackRetransmitsUntilHorizon pins the store under AP-built
// feedback: an "arrived" entry built from the Fortune Teller's prediction
// does not prove the client has the packet, so a send stays retransmittable
// until it is storeHorizon old, and no longer.
func TestAPFeedbackRetransmitsUntilHorizon(t *testing.T) {
	h := newNACKHarness()
	h.snd.APFeedback = true
	h.sendFrame(0)
	h.confirm(0, 10)
	if got := h.nack(t, seqs(0, 10)...); !reflect.DeepEqual(got, seqs(0, 10)) {
		t.Fatalf("retransmitted %v after AP feedback, want %v", got, seqs(0, 10))
	}
	h.s.RunUntil(storeHorizon)
	h.sendFrame(1) // the prune runs here, with frame 0 exactly storeHorizon old
	if got := h.nack(t, 0); !reflect.DeepEqual(got, []uint16{0}) {
		t.Errorf("retransmitted %v at the horizon, want [0]", got)
	}
	h.s.RunUntil(storeHorizon + time.Second)
	h.sendFrame(2)
	if got := h.nack(t, 0, 9, 10); !reflect.DeepEqual(got, []uint16{10}) {
		t.Errorf("retransmitted %v past frame 0's horizon, want only frame 1's [10]", got)
	}
}

// TestNACKAcrossSeqWrap asks for sends on both sides of the RTP seq wrap,
// and for one on each side of the sent range.
func TestNACKAcrossSeqWrap(t *testing.T) {
	h := newNACKHarness()
	h.snd.store.next = 65530
	h.sendFrame(0) // RTP seqs 65530..65535, 0..3
	want := []uint16{65534, 65535, 0, 1}
	if got := h.nack(t, 65529, 65534, 65535, 0, 1, 4); !reflect.DeepEqual(got, want) {
		t.Errorf("retransmitted %v, want %v", got, want)
	}
}

// TestSeqWindowHoldsOneSequenceSpace: past 1<<16 entries the oldest goes,
// so each 16-bit number names one entry, the newest sent under it.
func TestSeqWindowHoldsOneSequenceSpace(t *testing.T) {
	var w seqWindow[int]
	for i := 0; i < 1<<16+3; i++ {
		w.push(i)
	}
	if w.Len() != 1<<16 {
		t.Fatalf("window holds %d entries, want %d", w.Len(), 1<<16)
	}
	for seq, want := range map[uint16]int{0: 1 << 16, 2: 1<<16 + 2, 3: 3, 65535: 65535} {
		if got := w.at(seq); got == nil || *got != want {
			t.Errorf("at(%d) = %v, want entry %d", seq, got, want)
		}
	}
}

// TestSenderIsSmall: the store and the send records hold the sequence
// numbers in flight, not the whole 16-bit sequence space, so a campus of
// hundreds of senders is not hundreds of MiB.
func TestSenderIsSmall(t *testing.T) {
	if size := unsafe.Sizeof(Sender{}); size > 1024 {
		t.Errorf("Sizeof(Sender{}) = %d B, want at most 1 KiB", size)
	}
}

// TestPayloadDoubleReleasePanics: a payload has one owner, the packet that
// carries it, so a second Release means two packets alias it and must not
// pool it twice.
func TestPayloadDoubleReleasePanics(t *testing.T) {
	h := newNACKHarness()
	var pl *Payload
	h.snd.out = netem.ReceiverFunc(func(p *netem.Packet) {
		pl = p.Payload.(*Payload)
		p.Release()
	})
	h.sendFrame(0)
	defer func() {
		if r := recover(); r != "rtp: Payload released twice" {
			t.Errorf("second Release recovered %v, want the double-release panic", r)
		}
	}()
	pl.Release()
}

// TestReassemblyCountsEachFragmentOnce: a frame completes when every one of
// its fragments has arrived, whatever the order, however many arrive twice,
// and whatever their index (the bitset grows past one word); a recycled
// reassembly state starts empty.
func TestReassemblyCountsEachFragmentOnce(t *testing.T) {
	s := sim.New(1)
	dec := video.NewDecoder()
	r := NewReceiver(s, mediaFlow.Reverse(), 7, dec, netem.Sink)
	seq := uint16(0)
	deliver := func(frame uint64, idx, total int) {
		p := netem.NewPacket()
		p.Payload = &Payload{RTPSeq: seq, TWCCSeq: seq, FrameID: frame, FrameIdx: idx, FrameTot: total, Key: true}
		seq++
		r.Receive(p)
	}
	const total = 150
	for i := total - 1; i >= 0; i-- {
		if i == 100 {
			continue
		}
		deliver(0, i, total)
		if i%7 == 0 {
			deliver(0, i, total) // a duplicate
		}
	}
	deliver(0, 70, total)
	if dec.Decoded != 0 {
		t.Fatalf("frame 0 decoded with fragment 100 of %d missing", total)
	}
	deliver(0, 100, total)
	if dec.Decoded != 1 {
		t.Fatalf("frame 0 not decoded once its last fragment arrived: decoded %d", dec.Decoded)
	}
	for _, idx := range []int{0, 0, 1, 1} {
		deliver(1, idx, 3)
	}
	if dec.Decoded != 1 {
		t.Fatal("frame 1 decoded with fragment 2 of 3 missing")
	}
	deliver(1, 2, 3)
	if dec.Decoded != 2 {
		t.Fatalf("frame 1 not decoded once complete: decoded %d", dec.Decoded)
	}
}
