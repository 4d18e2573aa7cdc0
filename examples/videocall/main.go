// Videocall: a contended home-WiFi video conference. An RTP/GCC call
// shares the AP with a periodic bulk download (someone syncing files every
// 30s) and ten interfering stations on the channel. The example prints the
// full tail story — RTT CCDF landmarks, frame-delay distribution, per-
// second frame-rate dips — for the plain AP, CoDel and Zhuge.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

func main() {
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
		p := scenario.NewPath(scenario.Options{
			Seed: 21, Trace: tr, Solution: cfg.sol, Qdisc: cfg.qdisc, Interferers: 10,
		})
		flow := p.AddRTPFlow(scenario.RTPFlowConfig{})
		p.AddBulkFlow(20*time.Second, 30*time.Second) // periodic competitor
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
}
