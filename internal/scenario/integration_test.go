package scenario

import (
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// TestZhugeInbandFeedbackPath verifies the complete in-band machinery over
// a real path: the AP constructs feedback, absorbs the client's TWCC, the
// sender's GCC keeps functioning, and the flow still recovers losses.
func TestZhugeInbandFeedbackPath(t *testing.T) {
	p := Spec{Seed: 2, APs: []APSpec{{Trace: dropTrace(), Solution: SolutionZhuge}}}.Build()
	f := p.AddFlow(FlowSpec{Kind: "rtp"}).RTP
	p.Run(15 * time.Second)

	if got := p.APs[0].Zhuge.Inband().Constructed(); got < 100 {
		t.Errorf("AP constructed %d feedback packets, want hundreds over 15s", got)
	}
	if got := p.APs[0].Zhuge.Inband().DroppedClientFeedback(); got < 100 {
		t.Errorf("AP absorbed %d client TWCC packets, want hundreds", got)
	}
	if f.Decoder.Decoded < 300 {
		t.Errorf("decoded %d frames, want most of ~375", f.Decoder.Decoded)
	}
	if rate := f.Sender.Controller().Rate(); rate < 150e3 {
		t.Errorf("GCC rate %f collapsed", rate)
	}
	if p.APs[0].Zhuge.FortuneTeller().Predictions() == 0 {
		t.Error("Fortune Teller made no predictions")
	}
}

// TestZhugeWithCoDel runs the Gcc+Zhuge(+CoDel) combination of §7.2.
func TestZhugeWithCoDel(t *testing.T) {
	p := Spec{Seed: 2, APs: []APSpec{{Trace: dropTrace(), Solution: SolutionZhuge, Qdisc: "codel"}}}.Build()
	f := p.AddFlow(FlowSpec{Kind: "rtp"}).RTP
	p.Run(15 * time.Second)
	if f.Decoder.Decoded < 300 {
		t.Errorf("decoded %d frames with Zhuge+CoDel", f.Decoder.Decoded)
	}
}

// TestZhugeWithFQCoDel exercises the per-flow queue statistics path of the
// Fortune Teller under fq_codel with a competing bulk flow.
func TestZhugeWithFQCoDel(t *testing.T) {
	p := Spec{Seed: 2, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, 10*time.Second), Solution: SolutionZhuge, Qdisc: "fqcodel"}}}.Build()
	f := p.AddFlow(FlowSpec{Kind: "rtp"}).RTP
	p.AddFlow(FlowSpec{Kind: "bulk", StartAt: time.Second})
	p.Run(10 * time.Second)
	if f.Decoder.Decoded < 200 {
		t.Errorf("decoded %d frames with Zhuge+FQCoDel under competition", f.Decoder.Decoded)
	}
	// With per-flow queuing the RTC flow should keep a low median even
	// while the bulk flow fills its own bucket.
	if med := f.Metrics.RTT.Quantile(0.5); med > 150*time.Millisecond {
		t.Errorf("median RTT %v under fq_codel isolation", med)
	}
}

// TestOOBAckDelayUnbiasedSteadyState pins the §5.2 claim that Zhuge does
// not inflate steady-state RTT: on a constant-rate link, the mean extra ACK
// delay stays small.
func TestOOBAckDelayUnbiasedSteadyState(t *testing.T) {
	p := Spec{Seed: 4, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, 20*time.Second), Solution: SolutionZhuge}}}.Build()
	f := p.AddFlow(FlowSpec{Kind: "tcp", CCA: "copa"}).TCP
	p.Run(20 * time.Second)
	acks, mean := p.APs[0].Zhuge.OOB().Stats(f.Flow)
	if acks == 0 {
		t.Fatal("no ACKs passed the updater")
	}
	if mean > 5*time.Millisecond {
		t.Errorf("steady-state mean ACK delay %v, want ~0 (unbiased)", mean)
	}
}

// TestRTTMetricIdenticalDefinitionAcrossSolutions guards the measurement
// methodology: the RTT metric is computed from data-packet delivery, so a
// solution cannot game it by manipulating ACK timing.
func TestRTTMetricIdenticalDefinitionAcrossSolutions(t *testing.T) {
	// On an uncongested path every solution must measure the same base RTT.
	meds := map[Solution]time.Duration{}
	for _, sol := range []Solution{SolutionNone, SolutionZhuge, SolutionFastAck} {
		p := Spec{Seed: 6, APs: []APSpec{{Trace: trace.Constant("c50", 50e6, 5*time.Second), Solution: sol}}}.Build()
		f := p.AddFlow(FlowSpec{Kind: "tcp", CCA: "copa"}).TCP
		p.Run(5 * time.Second)
		meds[sol] = f.Metrics.RTT.Quantile(0.5)
	}
	base := meds[SolutionNone]
	for sol, med := range meds {
		diff := med - base
		if diff < 0 {
			diff = -diff
		}
		if diff > base/5 {
			t.Errorf("%v median RTT %v deviates from baseline %v", sol, med, base)
		}
	}
}

// TestMultipleZhugeFlowsIndependent checks per-flow updater state: two
// optimized flows each get their own feedback and neither starves.
func TestMultipleZhugeFlowsIndependent(t *testing.T) {
	p := Spec{Seed: 8, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, 10*time.Second), Solution: SolutionZhuge}}}.Build()
	f1 := p.AddFlow(FlowSpec{Kind: "rtp"}).RTP
	f2 := p.AddFlow(FlowSpec{Kind: "rtp"}).RTP
	p.Run(10 * time.Second)
	if f1.Decoder.Decoded < 200 || f2.Decoder.Decoded < 200 {
		t.Errorf("decoded %d/%d frames; both flows should thrive", f1.Decoder.Decoded, f2.Decoder.Decoded)
	}
}

// TestDeliveryTapSeesEveryDataPacket ensures metric taps observe exactly
// the packets delivered over the air.
func TestDeliveryTapSeesEveryDataPacket(t *testing.T) {
	p := Spec{Seed: 3, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, 5*time.Second)}}}.Build()
	f := p.AddFlow(FlowSpec{Kind: "rtp"}).RTP
	var tapped int
	p.AddDeliveryTap(func(pkt *netem.Packet) {
		if pkt.Flow == f.Flow && pkt.Kind == netem.KindData {
			tapped++
		}
	})
	p.Run(5 * time.Second)
	if tapped == 0 || uint64(tapped) != f.Metrics.RTT.Count() {
		t.Errorf("tap saw %d packets, metrics recorded %d", tapped, f.Metrics.RTT.Count())
	}
}

// TestNADAFlowRuns exercises the second in-band rate controller (RFC 8698)
// end-to-end, with and without Zhuge.
func TestNADAFlowRuns(t *testing.T) {
	for _, sol := range []Solution{SolutionNone, SolutionZhuge} {
		p := Spec{Seed: 12, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, 10*time.Second), Solution: sol}}}.Build()
		f := p.AddFlow(FlowSpec{Kind: "rtp", CCA: "nada"}).RTP
		p.Run(10 * time.Second)
		if f.Sender.Controller().Name() != "nada" {
			t.Fatalf("controller %q", f.Sender.Controller().Name())
		}
		if f.Decoder.Decoded < 200 {
			t.Errorf("%v: NADA flow decoded %d frames", sol, f.Decoder.Decoded)
		}
		if rate := f.Sender.Controller().Rate(); rate < 1e6 {
			t.Errorf("%v: NADA rate %.0f on a clear 20Mbps link", sol, rate)
		}
	}
}

// TestQUICFlowRuns exercises the encrypted out-of-band transport end to
// end: QUIC flows deliver frames, and Zhuge optimises them using only the
// 5-tuple (the §6 scalability claim).
func TestQUICFlowRuns(t *testing.T) {
	for _, cfg := range []struct {
		sol Solution
		cca string
	}{
		{SolutionNone, "copa"},
		{SolutionZhuge, "copa"},
		{SolutionNone, "pcc"},
		{SolutionZhuge, "pcc"},
	} {
		p := Spec{Seed: 13, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, 10*time.Second), Solution: cfg.sol}}}.Build()
		f := p.AddFlow(FlowSpec{Kind: "quic", CCA: cfg.cca}).QUIC
		p.Run(10 * time.Second)
		if f.Metrics.FrameDelay.Count() < 180 {
			t.Errorf("%v/%s delivered only %d frames over QUIC", cfg.sol, cfg.cca, f.Metrics.FrameDelay.Count())
		}
	}
}

// TestQUICZhugeReducesTail mirrors the TCP headline over QUIC.
func TestQUICZhugeReducesTail(t *testing.T) {
	run := func(sol Solution) float64 {
		p := Spec{Seed: 42, APs: []APSpec{{Trace: dropTrace(), Solution: sol}}}.Build()
		f := p.AddFlow(FlowSpec{Kind: "quic", CCA: "copa"}).QUIC
		p.Run(15 * time.Second)
		return f.Metrics.RTT.FractionAbove(200 * time.Millisecond)
	}
	plain := run(SolutionNone)
	zhuge := run(SolutionZhuge)
	if plain == 0 {
		t.Fatal("baseline shows no tail; scenario broken")
	}
	if zhuge >= plain {
		t.Errorf("P(RTT>200ms): quic+zhuge %.4f >= quic %.4f", zhuge, plain)
	}
	t.Logf("QUIC: plain=%.4f zhuge=%.4f", plain, zhuge)
}

// TestQUICFlowRecordsControlLoop pins that a QUIC stream is fully lit in
// the control-loop recorder, like a TCP one: the encoder adaptation is the
// sender reaction and the next frame written is the new rate on air, so
// react->air segments must appear with Zhuge (feedback originates at the
// AP) and without (the loop closes at the client's ACK departures, which
// needs quicsim.Receiver's OnAck hook).
func TestQUICFlowRecordsControlLoop(t *testing.T) {
	for _, sol := range []Solution{SolutionNone, SolutionZhuge} {
		o := obs.New(obs.Options{Loop: true})
		p := Spec{Seed: 42, Obs: o, APs: []APSpec{{Trace: dropTrace(), Solution: sol}}}.Build()
		p.AddFlow(FlowSpec{Kind: "quic", CCA: "copa"})
		p.Run(15 * time.Second)
		lt := o.ControlLoop()
		if matched, _ := lt.Matched(); matched == 0 {
			t.Errorf("%v: no sender reaction joined a departed feedback", sol)
		}
		for _, seg := range []obs.LoopSegment{obs.SegObserveToFeedback, obs.SegReactToAir, obs.SegObserveToAir} {
			if lt.Segment(seg).Count() == 0 {
				t.Errorf("%v: no %v segments recorded", sol, seg)
			}
		}
	}
}
