package scenario

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// dropTrace is a 30 Mbps link dropping 30x (below the media rate) between
// 5s and 8s, the transient-congestion pattern of Figure 3(a).
func dropTrace() *trace.Trace {
	tr := &trace.Trace{Name: "drop", BaseRTT: 50 * time.Millisecond}
	for at := time.Duration(0); at < 15*time.Second; at += 50 * time.Millisecond {
		r := 30e6
		if at >= 5*time.Second && at < 8*time.Second {
			r = 1e6
		}
		tr.Samples = append(tr.Samples, trace.Sample{At: at, Rate: r})
	}
	return tr
}

func TestRTPFlowRunsOverPath(t *testing.T) {
	p := Spec{Seed: 1, APs: []APSpec{{Trace: trace.Constant("c30", 30e6, 10*time.Second)}}}.Build()
	f := p.AddFlow(FlowSpec{Kind: "rtp"}).RTP
	p.Run(10 * time.Second)
	if f.Decoder.Decoded < 200 {
		t.Fatalf("decoded %d frames over 10s, want ~250", f.Decoder.Decoded)
	}
	if f.Metrics.RTT.Count() == 0 {
		t.Fatal("no RTT samples")
	}
	// Clean 30 Mbps path: median RTT near base (50ms WAN + small).
	if med := f.Metrics.RTT.Quantile(0.5); med > 100*time.Millisecond {
		t.Errorf("median RTT %v on a clean path", med)
	}
}

func TestTCPVideoFlowRunsOverPath(t *testing.T) {
	p := Spec{Seed: 1, APs: []APSpec{{Trace: trace.Constant("c30", 30e6, 10*time.Second)}}}.Build()
	f := p.AddFlow(FlowSpec{Kind: "tcp", CCA: "copa"}).TCP
	p.Run(10 * time.Second)
	if f.Metrics.FrameDelay.Count() < 200 {
		t.Fatalf("delivered %d frames over 10s, want ~250", f.Metrics.FrameDelay.Count())
	}
	if med := f.Metrics.RTT.Quantile(0.5); med > 120*time.Millisecond {
		t.Errorf("median RTT %v on a clean path", med)
	}
}

func TestZhugeReducesRTPTailLatency(t *testing.T) {
	run := func(sol Solution, qdisc string) float64 {
		p := Spec{Seed: 42, APs: []APSpec{{Trace: dropTrace(), Solution: sol, Qdisc: qdisc}}}.Build()
		f := p.AddFlow(FlowSpec{Kind: "rtp"}).RTP
		p.Run(15 * time.Second)
		return f.Metrics.RTT.FractionAbove(200 * time.Millisecond)
	}
	fifo := run(SolutionNone, "fifo")
	zhuge := run(SolutionZhuge, "fifo")
	if fifo == 0 {
		t.Fatal("baseline shows no tail latency; the drop scenario is broken")
	}
	if zhuge >= fifo {
		t.Errorf("P(RTT>200ms): zhuge %.4f >= fifo %.4f; Zhuge should reduce the tail", zhuge, fifo)
	}
	t.Logf("P(RTT>200ms): fifo=%.4f zhuge=%.4f (%.0f%% reduction)", fifo, zhuge, 100*(1-zhuge/fifo))
}

func TestZhugeReducesTCPTailLatency(t *testing.T) {
	run := func(sol Solution) float64 {
		p := Spec{Seed: 42, APs: []APSpec{{Trace: dropTrace(), Solution: sol}}}.Build()
		f := p.AddFlow(FlowSpec{Kind: "tcp", CCA: "copa"}).TCP
		p.Run(15 * time.Second)
		return f.Metrics.RTT.FractionAbove(200 * time.Millisecond)
	}
	plain := run(SolutionNone)
	zhuge := run(SolutionZhuge)
	if plain == 0 {
		t.Fatal("baseline shows no tail latency; the drop scenario is broken")
	}
	if zhuge >= plain {
		t.Errorf("P(RTT>200ms): copa+zhuge %.4f >= copa %.4f", zhuge, plain)
	}
	t.Logf("P(RTT>200ms): copa=%.4f copa+zhuge=%.4f", plain, zhuge)
}

func TestABCAndFastAckRun(t *testing.T) {
	// Smoke: baselines run and deliver frames.
	for _, tc := range []struct {
		sol Solution
		cca string
	}{
		{SolutionABC, "abc"},
		{SolutionFastAck, "copa"},
	} {
		p := Spec{Seed: 7, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, 8*time.Second), Solution: tc.sol}}}.Build()
		f := p.AddFlow(FlowSpec{Kind: "tcp", CCA: tc.cca}).TCP
		p.Run(8 * time.Second)
		if f.Metrics.FrameDelay.Count() < 100 {
			t.Errorf("%v/%s delivered only %d frames", tc.sol, tc.cca, f.Metrics.FrameDelay.Count())
		}
		if tc.sol == SolutionABC && (p.APs[0].ABC.Accelerates() == 0 || p.APs[0].ABC.Brakes() == 0) {
			t.Errorf("ABC marks: accel=%d brake=%d, want both nonzero", p.APs[0].ABC.Accelerates(), p.APs[0].ABC.Brakes())
		}
		if tc.sol == SolutionFastAck && p.APs[0].FastAck.Synthesized() == 0 {
			t.Error("FastAck synthesized no ACKs")
		}
	}
}

func TestCompetingBulkFlowDegradesRTC(t *testing.T) {
	run := func(withBulk bool) float64 {
		p := Spec{Seed: 5, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, 10*time.Second)}}}.Build()
		f := p.AddFlow(FlowSpec{Kind: "rtp"}).RTP
		if withBulk {
			p.AddFlow(FlowSpec{Kind: "bulk", StartAt: time.Second})
		}
		p.Run(10 * time.Second)
		return f.Metrics.RTT.FractionAbove(200 * time.Millisecond)
	}
	alone := run(false)
	contested := run(true)
	if contested <= alone {
		t.Errorf("bulk competitor should inflate tail latency: alone=%.4f contested=%.4f", alone, contested)
	}
}

func TestZhugeDoesNotHurtSteadyState(t *testing.T) {
	// Figure 18(c)/Figure 20 property: on a stable link, Zhuge leaves the
	// achieved media rate essentially unchanged.
	run := func(sol Solution) float64 {
		p := Spec{Seed: 9, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, 20*time.Second), Solution: sol}}}.Build()
		f := p.AddFlow(FlowSpec{Kind: "rtp"}).RTP
		p.Run(20 * time.Second)
		return f.Metrics.DeliveredBytes * 8 / 20
	}
	plain := run(SolutionNone)
	zhuge := run(SolutionZhuge)
	if zhuge < 0.7*plain {
		t.Errorf("steady-state goodput with Zhuge %.0f vs %.0f plain; should be comparable", zhuge, plain)
	}
	t.Logf("steady goodput: plain=%.0f zhuge=%.0f", plain, zhuge)
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, int) {
		p := Spec{Seed: 11, APs: []APSpec{{Trace: dropTrace(), Solution: SolutionZhuge}}}.Build()
		f := p.AddFlow(FlowSpec{Kind: "rtp"}).RTP
		p.Run(6 * time.Second)
		return f.Metrics.RTT.Count(), f.Decoder.Decoded
	}
	c1, d1 := run()
	c2, d2 := run()
	if c1 != c2 || d1 != d2 {
		t.Errorf("runs differ: (%d,%d) vs (%d,%d)", c1, d1, c2, d2)
	}
}

func TestInterferersDegradePerformance(t *testing.T) {
	run := func(n int) float64 {
		p := Spec{Seed: 3, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, 8*time.Second), Interferers: n}}}.Build()
		f := p.AddFlow(FlowSpec{Kind: "rtp"}).RTP
		p.Run(8 * time.Second)
		return f.Metrics.RTT.FractionAbove(200 * time.Millisecond)
	}
	quiet := run(0)
	noisy := run(40)
	if noisy <= quiet {
		t.Errorf("40 interferers should inflate tail: quiet=%.4f noisy=%.4f", quiet, noisy)
	}
}

// TestAddFlowOneRecordPerKind builds one flow of every kind on one path and
// checks that each measured flow's record carries both halves: the frame
// recorder agrees with the transport's own frame counters and the frame-rate
// ratio is the series' own. The bulk competitor carries no record.
func TestAddFlowOneRecordPerKind(t *testing.T) {
	const dur = 8 * time.Second
	p := Spec{Seed: 3, APs: []APSpec{{Trace: trace.Constant("c40", 40e6, dur), Solution: SolutionZhuge}}}.Build()
	var built []*BuiltFlow
	for _, kind := range []string{"rtp", "tcp", "quic", "bulk"} {
		built = append(built, p.AddFlow(FlowSpec{Kind: kind}))
	}
	p.Run(dur)

	if len(p.Flows) != len(built) {
		t.Fatalf("p.Flows holds %d handles, want %d", len(p.Flows), len(built))
	}
	for i, bf := range built {
		if p.Flows[i] != bf {
			t.Errorf("p.Flows[%d] is not the handle AddFlow returned for %q", i, bf.Spec.Kind)
		}
	}
	rtpF, tcpF, quicF, bulk := built[0], built[1], built[2], built[3]
	if rtpF.RTP == nil || tcpF.TCP == nil || quicF.QUIC == nil || bulk.Bulk == nil {
		t.Fatalf("kind fields not set per kind: %+v %+v %+v %+v", rtpF, tcpF, quicF, bulk)
	}
	if bulk.Metrics() != nil {
		t.Error("the bulk flow carries a FlowMetrics; it is a competitor and should not")
	}

	if got, want := rtpF.Metrics().FrameDelay.Count(), uint64(rtpF.RTP.Decoder.Decoded); got != want || want < 150 {
		t.Errorf("rtp: %d frame delays recorded, decoder decoded %d (want equal, ~200)", got, want)
	}
	// A stream frame counts once its last byte is delivered in order; at
	// most a second of video (the application's drop threshold) is in flight.
	for _, s := range []struct {
		kind string
		sent int
		m    *FlowMetrics
	}{
		{"tcp", tcpF.TCP.FramesSent, tcpF.Metrics()},
		{"quic", quicF.QUIC.FramesSent, quicF.Metrics()},
	} {
		got := int(s.m.FrameDelay.Count())
		if got > s.sent || got < s.sent-25 || got < 50 {
			t.Errorf("%s: %d frame delays recorded for %d frames sent", s.kind, got, s.sent)
		}
	}
	for _, bf := range built[:3] {
		m := bf.Metrics()
		if m.RTT.Count() == 0 || m.DeliveredBytes == 0 {
			t.Errorf("%s: network half empty (rtt n=%d, bytes=%.0f)", bf.Spec.Kind, m.RTT.Count(), m.DeliveredBytes)
		}
		if got, want := m.LowFrameRateRatio(dur, 10), m.FrameRateSeries(dur).FractionBelow(10); got != want {
			t.Errorf("%s: LowFrameRateRatio %v != FrameRateSeries.FractionBelow %v", bf.Spec.Kind, got, want)
		}
	}
}

// TestUnknownCCAPanics pins the per-kind controller names: "" is the kind's
// default, and a name the kind does not know panics instead of measuring the
// default under the wrong label.
func TestUnknownCCAPanics(t *testing.T) {
	accepted := map[string][]string{
		"rtp":  {"", "gcc", "nada"},
		"tcp":  {"", "copa", "cubic", "bbr", "abc"},
		"quic": {"", "copa", "cubic", "bbr", "abc", "pcc"},
		"bulk": {"", "copa", "cubic", "bbr", "abc"},
	}
	names := []string{"", "gcc", "nada", "copa", "cubic", "bbr", "abc", "pcc", "coppa", "cubc"}
	for kind, ok := range accepted {
		for _, name := range names {
			want := ""
			if !slices.Contains(ok, name) {
				want = fmt.Sprintf("scenario: unknown CCA %q for %s", name, kind)
			}
			got := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				p := Spec{Seed: 1, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, time.Second)}}}.Build()
				p.AddFlow(FlowSpec{Kind: kind, CCA: name})
				return ""
			}()
			if got != want {
				t.Errorf("AddFlow{%s, CCA %q}: panic %q, want %q", kind, name, got, want)
			}
		}
	}
}

// TestFlowSpecVideoFieldsReachTheFlow sets the encoder knobs on a FlowSpec
// for every video kind: frames go out at FPS, the first rate update steps
// from StartRate, and no update exceeds MaxRate. Every default is above the
// value set, so a knob that does not reach the flow shows.
func TestFlowSpecVideoFieldsReachTheFlow(t *testing.T) {
	const dur = 5 * time.Second
	const startRate, maxRate = 300e3, 400e3
	for _, kind := range []string{"rtp", "tcp", "quic"} {
		p := Spec{Seed: 1, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, dur)}}}.Build()
		m := p.AddFlow(FlowSpec{Kind: kind, FPS: 60, StartRate: startRate, MaxRate: maxRate}).Metrics()
		p.Run(dur)
		if fps := float64(m.FrameDelay.Count()) / dur.Seconds(); fps < 55 || fps > 60 {
			t.Errorf("%s: %.1f frames/s delivered, want ~60", kind, fps)
		}
		// The first update moves a few percent off the start rate (tcp and
		// quic probe up 8%, GCC by its additive step).
		if first := m.RateSeries.Points[0].Value; first < startRate || first > 1.1*startRate {
			t.Errorf("%s: first rate update %.0f, want just above StartRate %.0f", kind, first, startRate)
		}
		for _, pt := range m.RateSeries.Points {
			if pt.Value > maxRate {
				t.Errorf("%s: rate %.0f at %v exceeds MaxRate", kind, pt.Value, pt.At)
				break
			}
		}
	}
}

// TestRTTSeriesOnlyOnRequest: the per-packet RTT series costs a point per
// delivered data packet, so a flow records it only when its reader asked
// before the run. Two flows share one path: the one nobody asked about
// records no series, and the one asked about records a point for every RTT
// sample its histogram took.
func TestRTTSeriesOnlyOnRequest(t *testing.T) {
	const dur = 3 * time.Second
	for _, kind := range []string{"rtp", "tcp", "quic"} {
		p := Spec{Seed: 1, APs: []APSpec{{Trace: trace.Constant("c20", 20e6, dur)}}}.Build()
		quiet := p.AddFlow(FlowSpec{Kind: kind}).Metrics()
		asked := p.AddFlow(FlowSpec{Kind: kind}).Metrics()
		asked.RTTSeries = new(metrics.Series)
		p.Run(dur)
		if quiet.RTTSeries != nil || quiet.RTT.Count() == 0 {
			t.Errorf("%s: unasked flow has series %v after %d RTT samples, want nil after some", kind, quiet.RTTSeries, quiet.RTT.Count())
		}
		if got, want := asked.RTTSeries.Len(), asked.RTT.Count(); uint64(got) != want || want == 0 {
			t.Errorf("%s: asked flow recorded %d series points for %d RTT samples, want equal and nonzero", kind, got, want)
		}
	}
}

// TestBulkFlowOnOwnQueueStation: a bulk FlowSpec honours its Station. On an
// own-queue station the download is delivered over that station's link, and
// the AP's main queue carries none of it.
func TestBulkFlowOnOwnQueueStation(t *testing.T) {
	const dur = 3 * time.Second
	p := Spec{
		Seed:     1,
		APs:      []APSpec{{Trace: trace.Constant("c20", 20e6, dur)}},
		Stations: []StationSpec{{Name: "station1", OwnQueue: true}},
		Flows:    []FlowSpec{{Kind: "bulk", Station: "station1"}},
	}.Build()
	p.Run(dur)
	if n := p.Station("station1").Link().Delivered(); n == 0 {
		t.Error("the station's own link delivered nothing")
	}
	if n := p.APs[0].Downlink.Delivered(); n != 0 {
		t.Errorf("the AP's main downlink delivered %d packets of the station's bulk flow", n)
	}
}
