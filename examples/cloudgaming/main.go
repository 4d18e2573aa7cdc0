// Cloudgaming: a latency-critical game stream over TCP/Copa through a 5G
// link that suffers a deep mid-session fade (the worst case of §2.1). The
// example compares every AP-side solution the paper evaluates — plain,
// FastAck, ABC (which needs modified endpoints) and Zhuge — on how long the
// stream stays above the 96ms cloud-gaming budget and how many frames blow
// the deadline.
package main

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

func main() {
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
		p := scenario.NewPath(scenario.Options{Seed: 5, Trace: tr, Solution: cfg.sol})
		flow := p.AddTCPVideoFlow(scenario.TCPFlowConfig{CCA: cfg.cca, FPS: 60, MaxRate: 20e6})
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
}
