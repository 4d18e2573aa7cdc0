// Quickstart: run the same WebRTC-style video call over a fluctuating
// restaurant-WiFi link twice — once through a plain AP, once through a
// Zhuge AP — and compare the tail latency. This is the smallest complete
// use of the library: build a path, attach a flow, run, read metrics.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

func main() {
	const dur = 2 * time.Minute

	// One shared trace so both runs see identical channel conditions.
	tr := trace.Generate(trace.RestaurantWiFi(), dur, rand.New(rand.NewSource(7)))

	run := func(sol scenario.Solution) (rttTail, frameTail float64, p99 time.Duration) {
		p := scenario.NewPath(scenario.Options{Seed: 7, Trace: tr, Solution: sol})
		flow := p.AddRTPFlow(scenario.RTPFlowConfig{})
		p.Run(dur)
		return flow.Metrics.RTT.FractionAbove(200 * time.Millisecond),
			flow.Metrics.FrameDelay.FractionAbove(400 * time.Millisecond),
			flow.Metrics.RTT.Quantile(0.99)
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
}
