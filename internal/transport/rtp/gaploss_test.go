package rtp

import (
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/cca"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/packet"
	"github.com/zhuge-project/zhuge/internal/sim"
)

// captureCC records every feedback batch handed to the controller.
type captureCC struct {
	batches [][]cca.FeedbackSample
}

func (c *captureCC) Name() string  { return "capture" }
func (c *captureCC) Rate() float64 { return 1e6 }
func (c *captureCC) OnFeedback(_ sim.Time, samples []cca.FeedbackSample) {
	c.batches = append(c.batches, append([]cca.FeedbackSample(nil), samples...))
}

// recordSends records n 1200-byte sends from TWCC seq first on, each sent
// at seq milliseconds, as the pacer would have. With records still held,
// first must be the next TWCC seq.
func recordSends(snd *Sender, first uint16, n int) {
	if snd.sent.Len() == 0 {
		snd.sent.next = first
	}
	for i := 0; i < n; i++ {
		seq := snd.sent.next
		snd.sent.push(sentRecord{at: sim.Time(seq) * sim.Time(time.Millisecond), size: 1200, valid: true})
	}
}

// newGapSender builds a sender with seqs 10..19 recorded as sent and a
// feedback whose base has jumped to 15, as happens when the first reports
// after an AP handover never reach the sender.
func newGapSender(t *testing.T, gapLoss bool) (*Sender, *captureCC, []byte) {
	t.Helper()
	s := sim.New(1)
	cc := &captureCC{}
	snd := NewSender(s, mediaFlow, 7, cc, netem.Sink)
	snd.GapLoss = gapLoss
	// Simulate an earlier feedback having covered everything below 10: the
	// flush only starts from the first observed base, so without this the
	// pre-handshake gap would (correctly) not be reported.
	snd.flushing = true
	snd.flushSeq = 10
	recordSends(snd, 10, 10)
	var arrivals []packet.TWCCArrival
	for seq := uint16(15); seq < 20; seq++ {
		arrivals = append(arrivals, packet.TWCCArrival{Seq: seq, At: time.Duration(seq) * 2 * time.Millisecond})
	}
	raw := packet.BuildTWCC(7, 7, 0, arrivals).Marshal(nil)
	return snd, cc, raw
}

func TestGapLossFlushesSkippedSends(t *testing.T) {
	snd, cc, raw := newGapSender(t, true)
	snd.onTWCC(raw)

	if len(cc.batches) != 1 {
		t.Fatalf("got %d feedback batches, want 1", len(cc.batches))
	}
	samples := cc.batches[0]
	if len(samples) != 10 {
		t.Fatalf("got %d samples, want 10 (5 flushed + 5 covered)", len(samples))
	}
	for i, s := range samples[:5] {
		if want := uint16(10 + i); s.Seq != want || s.Arrived {
			t.Errorf("flushed sample %d = {Seq:%d Arrived:%v}, want lost seq %d", i, s.Seq, s.Arrived, want)
		}
	}
	for i, s := range samples[5:] {
		if want := uint16(15 + i); s.Seq != want || !s.Arrived {
			t.Errorf("covered sample %d = {Seq:%d Arrived:%v}, want arrived seq %d", i, s.Seq, s.Arrived, want)
		}
	}

	// A later feedback must not re-flush: the records are cleared and
	// flushSeq advanced past the covered range.
	if snd.flushSeq != 20 {
		t.Errorf("flushSeq = %d, want 20", snd.flushSeq)
	}
	next := packet.BuildTWCC(7, 7, 1, []packet.TWCCArrival{{Seq: 20, At: 50 * time.Millisecond}}).Marshal(nil)
	recordSends(snd, 20, 1)
	snd.onTWCC(next)
	if n := len(cc.batches[1]); n != 1 {
		t.Errorf("second feedback delivered %d samples, want 1 (no re-flush)", n)
	}
}

func TestGapLossOffLeavesSkippedSendsPending(t *testing.T) {
	snd, cc, raw := newGapSender(t, false)
	snd.onTWCC(raw)

	if len(cc.batches) != 1 {
		t.Fatalf("got %d feedback batches, want 1", len(cc.batches))
	}
	if n := len(cc.batches[0]); n != 5 {
		t.Fatalf("got %d samples, want only the 5 covered ones", n)
	}
	for seq := uint16(10); seq < 15; seq++ {
		if rec := snd.sent.at(seq); rec == nil || !rec.valid {
			t.Errorf("seq %d was dropped without GapLoss; a later NACK could still cover it", seq)
		}
	}
}

// TestGapLossWrapAround drives the flush across the uint16 sequence wrap,
// where a plain s < base comparison would flush the wrong side.
func TestGapLossWrapAround(t *testing.T) {
	s := sim.New(2)
	cc := &captureCC{}
	snd := NewSender(s, mediaFlow, 7, cc, netem.Sink)
	snd.GapLoss = true
	snd.flushing = true
	snd.flushSeq = 65533
	recordSends(snd, 65533, 5)
	raw := packet.BuildTWCC(7, 7, 0, []packet.TWCCArrival{{Seq: 1, At: time.Millisecond}}).Marshal(nil)
	snd.onTWCC(raw)

	if len(cc.batches) != 1 {
		t.Fatalf("got %d batches, want 1", len(cc.batches))
	}
	var got []uint16
	for _, smp := range cc.batches[0] {
		got = append(got, smp.Seq)
	}
	want := []uint16{65533, 65534, 65535, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("samples %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("samples %v, want %v", got, want)
		}
	}
	if snd.flushSeq != 2 {
		t.Errorf("flushSeq = %d, want 2 after wrap", snd.flushSeq)
	}
}
