package scenario_test

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// Run the same WebRTC-style video call over a fluctuating restaurant-WiFi
// link twice — once through a plain AP, once through a Zhuge AP — and
// compare the tail latency. This is the smallest complete use of the
// library: build a path, attach a flow, run, read metrics.
func Example_quickstart() {
	const dur = 2 * time.Minute

	// One shared trace so both runs see identical channel conditions.
	tr := trace.Generate(trace.RestaurantWiFi(), dur, rand.New(rand.NewSource(7)))

	run := func(sol scenario.Solution) (rttTail, frameTail float64, p99 time.Duration) {
		p := scenario.Spec{Seed: 7, APs: []scenario.APSpec{{Trace: tr, Solution: sol}}}.Build()
		m := p.AddFlow(scenario.FlowSpec{Kind: "rtp"}).Metrics()
		p.Run(dur)
		return m.RTT.FractionAbove(200 * time.Millisecond),
			m.FrameDelay.FractionAbove(400 * time.Millisecond),
			m.RTT.Quantile(0.99)
	}

	fmt.Printf("video call over %s for %v\n\n", tr.Name, dur)
	plainRTT, plainFrame, plainP99 := run(scenario.SolutionNone)
	zhugeRTT, zhugeFrame, zhugeP99 := run(scenario.SolutionZhuge)

	fmt.Printf("%-12s  %-14s  %-17s  %s\n", "AP", "P(RTT>200ms)", "P(frame>400ms)", "RTT p99")
	fmt.Printf("%-12s  %-14.3f  %-17.3f  %v\n", "plain", plainRTT, plainFrame, plainP99.Round(time.Millisecond))
	fmt.Printf("%-12s  %-14.3f  %-17.3f  %v\n", "zhuge", zhugeRTT, zhugeFrame, zhugeP99.Round(time.Millisecond))
	if plainRTT > 0 {
		fmt.Printf("\nZhuge reduced the tail-latency ratio by %.0f%%\n", 100*(1-zhugeRTT/plainRTT))
	}
	// Output:
	// video call over W1-restaurant-wifi for 2m0s
	//
	// AP            P(RTT>200ms)    P(frame>400ms)     RTT p99
	// plain         0.084           0.023              632ms
	// zhuge         0.015           0.004              286ms
	//
	// Zhuge reduced the tail-latency ratio by 82%
}

// A contended home-WiFi video conference. An RTP/GCC call shares the AP
// with a periodic bulk download (someone syncing files every 30s) and ten
// interfering stations on the channel. The example prints the full tail
// story — RTT CCDF landmarks, frame-delay distribution, per-second
// frame-rate dips — for the plain AP, CoDel and Zhuge.
func Example_videocall() {
	const dur = 3 * time.Minute
	tr := trace.Generate(trace.OfficeWiFi(), dur, rand.New(rand.NewSource(21)))

	type result struct {
		name string
		flow *scenario.RTPFlow
	}
	var results []result
	for _, cfg := range []struct {
		name  string
		sol   scenario.Solution
		qdisc string
	}{
		{"plain-fifo", scenario.SolutionNone, "fifo"},
		{"codel", scenario.SolutionNone, "codel"},
		{"zhuge", scenario.SolutionZhuge, "fifo"},
	} {
		p := scenario.Spec{Seed: 21, APs: []scenario.APSpec{{
			Trace: tr, Solution: cfg.sol, Qdisc: cfg.qdisc, Interferers: 10,
		}}}.Build()
		flow := p.AddFlow(scenario.FlowSpec{Kind: "rtp"}).RTP
		// The periodic competitor, on the call's own station.
		p.AddFlow(scenario.FlowSpec{Kind: "bulk", StartAt: 20 * time.Second, Period: 30 * time.Second})
		p.Run(dur)
		results = append(results, result{cfg.name, flow})
	}

	fmt.Printf("office WiFi video call with periodic bulk competitor, %v\n\n", dur)
	fmt.Printf("%-11s %9s %9s %9s %10s %10s %8s %8s\n",
		"ap", "rtt.p50", "rtt.p99", "rtt.p999", "P(rtt>200)", "P(fd>400)", "fps<10", "frames")
	for _, r := range results {
		m, d := r.flow.Metrics, r.flow.Decoder
		fmt.Printf("%-11s %9v %9v %9v %9.2f%% %9.2f%% %7.2f%% %8d\n",
			r.name,
			m.RTT.Quantile(0.50).Round(time.Millisecond),
			m.RTT.Quantile(0.99).Round(time.Millisecond),
			m.RTT.Quantile(0.999).Round(time.Millisecond),
			100*m.RTT.FractionAbove(200*time.Millisecond),
			100*m.FrameDelay.FractionAbove(400*time.Millisecond),
			100*m.LowFrameRateRatio(dur, 10),
			d.Decoded)
	}

	fmt.Println("\nRTT CCDF landmarks (fraction of packets above):")
	for _, thr := range []time.Duration{100, 200, 400, 800} {
		line := fmt.Sprintf("  >%4dms:", thr)
		for _, r := range results {
			line += fmt.Sprintf("  %s=%.3f%%", r.name, 100*r.flow.Metrics.RTT.FractionAbove(thr*time.Millisecond))
		}
		fmt.Println(line)
	}
	// Output:
	// office WiFi video call with periodic bulk competitor, 3m0s
	//
	// ap            rtt.p50   rtt.p99  rtt.p999 P(rtt>200)  P(fd>400)   fps<10   frames
	// plain-fifo       37ms     529ms     712ms      7.07%     11.56%    3.33%     4499
	// codel            40ms     443ms     596ms      6.49%      5.28%    1.11%     4485
	// zhuge            35ms     158ms     756ms      0.76%      0.82%    0.56%     4500
	//
	// RTT CCDF landmarks (fraction of packets above):
	//   > 100ms:  plain-fifo=13.148%  codel=15.462%  zhuge=1.605%
	//   > 200ms:  plain-fifo=7.075%  codel=6.489%  zhuge=0.756%
	//   > 400ms:  plain-fifo=2.575%  codel=1.314%  zhuge=0.448%
	//   > 800ms:  plain-fifo=0.000%  codel=0.000%  zhuge=0.015%
}

// A latency-critical game stream over TCP/Copa through a 5G link that
// suffers a deep mid-session fade (the worst case of §2.1). The example
// compares every AP-side solution the paper evaluates — plain, FastAck, ABC
// (which needs modified endpoints) and Zhuge — on how long the stream stays
// above the 96ms cloud-gaming budget and how many frames blow the deadline.
func Example_cloudgaming() {
	const (
		dur    = 90 * time.Second
		fadeAt = 30 * time.Second
	)
	// 60 Mbps 5G link fading 20x for five seconds mid-session.
	tr := &trace.Trace{Name: "5g-fade", BaseRTT: 40 * time.Millisecond}
	for at := time.Duration(0); at < dur; at += 50 * time.Millisecond {
		r := 60e6
		if at >= fadeAt && at < fadeAt+5*time.Second {
			r = 3e6
		}
		tr.Samples = append(tr.Samples, trace.Sample{At: at, Rate: r})
	}

	fmt.Printf("cloud-gaming stream over %s, 20x fade at t=%v\n\n", tr.Name, fadeAt)
	fmt.Printf("%-14s %12s %12s %14s %12s %9s\n",
		"solution", "rtt.p99", "over-budget", "recovery", "late-frames", "dropped")

	for _, cfg := range []struct {
		name string
		sol  scenario.Solution
		cca  string
	}{
		{"copa", scenario.SolutionNone, "copa"},
		{"copa+fastack", scenario.SolutionFastAck, "copa"},
		{"abc", scenario.SolutionABC, "abc"},
		{"copa+zhuge", scenario.SolutionZhuge, "copa"},
	} {
		p := scenario.Spec{Seed: 5, APs: []scenario.APSpec{{Trace: tr, Solution: cfg.sol}}}.Build()
		flow := p.AddFlow(scenario.FlowSpec{Kind: "tcp", CCA: cfg.cca, FPS: 60, MaxRate: 20e6}).TCP
		p.Run(dur)

		// The cloud-gaming delay budget from the paper's introduction.
		const budget = 96.0 // ms
		overBudget := flow.Metrics.RTTSeries.FractionAbove(budget)
		recovery, _ := flow.Metrics.RTTSeries.LastAbove(200, fadeAt)
		rec := "never degraded"
		if recovery > 0 {
			rec = (recovery - fadeAt).Round(100 * time.Millisecond).String()
		}
		late := flow.Metrics.FrameDelay.FractionAbove(150 * time.Millisecond)
		fmt.Printf("%-14s %12v %11.2f%% %14s %11.2f%% %9d\n",
			cfg.name,
			flow.Metrics.RTT.Quantile(0.99).Round(time.Millisecond),
			100*overBudget, rec, 100*late, flow.FramesDropped)
	}
	fmt.Println("\nNote: ABC modifies AP, server and client; Zhuge touches only the AP.")
	// Output:
	// cloud-gaming stream over 5g-fade, 20x fade at t=30s
	//
	// solution            rtt.p99  over-budget       recovery  late-frames   dropped
	// copa                  385ms        1.12%             5s        2.50%       162
	// copa+fastack          292ms        1.05%             5s        2.56%       162
	// abc                    46ms        0.00% never degraded       30.29%       439
	// copa+zhuge             59ms        0.93%           3.3s        7.61%       140
	//
	// Note: ABC modifies AP, server and client; Zhuge touches only the AP.
}
