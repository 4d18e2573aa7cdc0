package experiments

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// Fig2 reproduces the motivation measurement: RTT, frame delay and frame
// rate tails of WiFi, cellular and Ethernet access for the same RTC
// workload (GCC over RTP, plain FIFO AP). The paper's claim: comparable
// medians, wireless tails an order of magnitude worse.
func Fig2(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(600*time.Second, 30*time.Second)

	accesses := []struct {
		name string
		gen  trace.GenParams
	}{
		{"WiFi", trace.RestaurantWiFi()},
		{"4G", trace.City4G()},
		{"Ethernet", trace.Ethernet()},
	}

	t := &Table{
		ID:    "fig2",
		Title: "Access-network comparison: RTT / frame delay / frame rate tails (GCC+FIFO)",
		Header: []string{"access", "rtt.p50", "rtt.p99", "P(rtt>200ms)",
			"fdelay.p50", "fdelay.p99", "P(fdelay>400ms)", "P(fps<10)"},
	}
	runCells(cfg, t, len(accesses), func(i int, o *obs.Obs) [][]string {
		a := accesses[i]
		tr := trace.Generate(a.gen, dur, newRNG(cfg, "fig2-"+a.name))
		res := run(oneAP(cfg, o, 0, scenario.APSpec{Trace: tr}), "rtp", "", dur)
		return [][]string{{
			a.name,
			res.RTT.Quantile(0.5).Round(time.Millisecond).String(),
			res.RTT.Quantile(0.99).Round(time.Millisecond).String(),
			pct(res.rttTail()),
			res.FrameDelay.Quantile(0.5).Round(time.Millisecond).String(),
			res.FrameDelay.Quantile(0.99).Round(time.Millisecond).String(),
			pct(res.frameTail()),
			pct(res.lowFPS()),
		}}
	})
	return t
}

// Fig3a reproduces the queue build-up-and-drain timeline after a sudden ABW
// drop: the bottleneck queue occupancy sampled every 50ms around a 10x drop.
func Fig3a(cfg Config) *Table {
	cfg = cfg.withDefaults()
	warm := 5 * time.Second
	tr := trace.Step("fig3a", 30e6, 3e6, warm, 12*time.Second)
	p := oneAP(cfg, nil, 0, scenario.APSpec{Trace: tr}).Build()
	p.AddFlow(scenario.FlowSpec{Kind: "rtp", StartRate: 5e6, MaxRate: 10e6})
	countCell()

	t := &Table{
		ID:     "fig3a",
		Title:  "Bottleneck queue building up and draining after a 10x ABW drop at t=5s",
		Header: []string{"t", "queueKB", "queuePkts"},
	}
	for at := 4 * time.Second; at <= 11*time.Second; at += 250 * time.Millisecond {
		p.Run(at)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2fs", at.Seconds()),
			fmt.Sprintf("%.1f", float64(p.APs[0].Downlink.Queue().Bytes())/1000),
			fmt.Sprintf("%d", p.APs[0].Downlink.Queue().Len()),
		})
	}
	return t
}

// Fig3b reproduces the distribution of wireless available-bandwidth
// reduction ratios over 200ms windows for every trace.
func Fig3b(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(30*time.Minute, time.Minute)

	t := &Table{
		ID:     "fig3b",
		Title:  "CDF of 200ms ABW reduction ratios per trace",
		Header: []string{"trace", "cdf@1x", "cdf@2x", "cdf@5x", "cdf@10x", "cdf@20x", "cdf@50x", "P(>10x)"},
	}
	gens := []trace.GenParams{
		trace.RestaurantWiFi(), trace.OfficeWiFi(), trace.IndoorMixed45G(),
		trace.City4G(), trace.City5G(), trace.Ethernet(),
	}
	runCells(cfg, t, len(gens), func(i int, o *obs.Obs) [][]string {
		g := gens[i]
		tr := trace.Generate(g, dur, newRNG(cfg, "fig3b-"+g.Name))
		ratios := trace.ReductionRatios(tr, 200*time.Millisecond)
		cdf := trace.ReductionCDF(ratios)
		row := []string{g.Name}
		for _, pt := range cdf {
			row = append(row, fmt.Sprintf("%.3f", pt.CDF))
		}
		row = append(row, pct(trace.FractionAbove(ratios, 10)))
		return [][]string{row}
	})
	return t
}
