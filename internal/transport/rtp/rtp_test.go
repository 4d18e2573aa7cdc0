package rtp

import (
	"testing"
	"time"

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

// storeCensus counts retransmission-store slots still holding a payload
// among all media sequences sent so far.
func storeCensus(snd *Sender) (live, total int) {
	total = int(snd.rtpSeq)
	for i := 0; i < total; i++ {
		if snd.store[uint16(i)] != nil {
			live++
		}
	}
	return live, total
}

// TestPayloadStoreRecycles pins the pooled-payload lifecycle under client
// feedback: TWCC arrivals are receiver ground truth, so the store drops its
// reference a feedback interval after each send and a steady-state flow
// runs from a handful of pooled payloads.
func TestPayloadStoreRecycles(t *testing.T) {
	s := sim.New(1)
	sess := newSession(s, 50e6, 20*time.Millisecond)
	sess.enc.Start()
	sess.rcv.Start()
	s.RunUntil(5 * time.Second)
	live, total := storeCensus(sess.snd)
	if total < 300 {
		t.Fatalf("only %d media packets sent in 5s", total)
	}
	if live > total/10 {
		t.Errorf("store holds %d of %d payloads under client feedback, want <10%% (only the last unconfirmed sends)", live, total)
	}
}

// TestPayloadStorePrunesAtHorizon pins the AP-feedback path: arrival
// entries built by a Zhuge AP cannot prove receiver possession, so the
// store must hold every payload until the NACK horizon — and recycle them
// once virtual time passes it.
func TestPayloadStorePrunesAtHorizon(t *testing.T) {
	s := sim.New(1)
	sess := newSession(s, 50e6, 20*time.Millisecond)
	sess.snd.APFeedback = true
	sess.enc.Start()
	sess.rcv.Start()
	s.RunUntil(5 * time.Second)
	if live, total := storeCensus(sess.snd); live != total {
		t.Fatalf("AP-feedback store recycled %d of %d payloads before the horizon", total-live, total)
	}
	s.RunUntil(12 * time.Second)
	live, total := storeCensus(sess.snd)
	if live == total {
		t.Fatal("horizon prune recycled nothing by t=12s")
	}
	if sess.snd.store[0] != nil {
		t.Error("first send (t~0) still stored at t=12s, beyond the 8s horizon")
	}
	if total > 0 && sess.snd.store[sess.snd.rtpSeq-1] == nil {
		t.Error("newest send already pruned; the horizon must spare recent payloads")
	}
}
