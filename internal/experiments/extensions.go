package experiments

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// ExtQUIC is an extension experiment beyond the paper's tables: §6 claims
// Zhuge works unchanged on fully encrypted out-of-band transports ("even
// QUIC encrypts all packets end to end, Zhuge is still able to work").
// This runs the trace-driven evaluation over the QUIC transport with Copa
// and PCC Vivace, with and without Zhuge.
func ExtQUIC(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(300*time.Second, 30*time.Second)
	t := &Table{
		ID:     "ext-quic",
		Title:  "Extension: Zhuge over encrypted QUIC (out-of-band, 5-tuple only)",
		Header: []string{"trace", "cca", "solution", "P(rtt>200ms)", "P(fdelay>400ms)", "P(fps<10)"},
	}
	traces := standardTraces(cfg, dur)
	picks := []*trace.Trace{traces[0], traces[3]} // W1, C2
	type cell struct {
		tr  *trace.Trace
		cca string
		sol scenario.Solution
	}
	var cells []cell
	for _, tr := range picks {
		for _, ccaName := range []string{"copa", "pcc"} {
			for _, sol := range []scenario.Solution{scenario.SolutionNone, scenario.SolutionZhuge} {
				cells = append(cells, cell{tr, ccaName, sol})
			}
		}
	}
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		res := run(oneAP(cfg, o, 0, scenario.APSpec{Trace: c.tr, Solution: c.sol}), "quic", c.cca, dur)
		return [][]string{{
			c.tr.Name, c.cca, c.sol.String(),
			pct(res.rttTail()), pct(res.frameTail()), pct(res.lowFPS()),
		}}
	})
	return t
}

// ExtNADA is an extension experiment: the second in-band rate controller of
// Table 2 (RFC 8698) through the same in-band Feedback Updater, showing the
// updater is CCA-agnostic as long as the protocol carries TWCC.
func ExtNADA(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(300*time.Second, 30*time.Second)
	t := &Table{
		ID:     "ext-nada",
		Title:  "Extension: NADA (RFC 8698) through the in-band Feedback Updater",
		Header: []string{"trace", "solution", "P(rtt>200ms)", "P(fdelay>400ms)", "goodput(Mbps)"},
	}
	traces := standardTraces(cfg, dur)
	type cell struct {
		tr  *trace.Trace
		sol scenario.Solution
	}
	var cells []cell
	for _, tr := range []*trace.Trace{traces[0], traces[2]} { // W1, C1
		for _, sol := range []scenario.Solution{scenario.SolutionNone, scenario.SolutionZhuge} {
			cells = append(cells, cell{tr, sol})
		}
	}
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		res := run(oneAP(cfg, o, 0, scenario.APSpec{Trace: c.tr, Solution: c.sol}), "rtp", "nada", dur)
		return [][]string{{
			c.tr.Name, c.sol.String(),
			pct(res.rttTail()), pct(res.frameTail()),
			fmt.Sprintf("%.2f", res.goodput()/1e6),
		}}
	})
	return t
}

// ExtSelectiveEstimation quantifies the §7.6 CPU optimisation end to end:
// prediction sampling intervals vs tail latency, alongside the cache hit
// rate that translates directly to AP CPU savings.
func ExtSelectiveEstimation(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(300*time.Second, 30*time.Second)
	tr := trace.Generate(trace.RestaurantWiFi(), dur, newRNG(cfg, "ext-sel"))
	t := &Table{
		ID:     "ext-selective",
		Title:  "Extension: selective estimation (sampled predictions, §7.6)",
		Header: []string{"sampleEvery", "P(rtt>200ms)", "P(fdelay>400ms)", "cacheHitRate"},
	}
	intervals := []time.Duration{0, 2 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	runCells(cfg, t, len(intervals), func(i int, o *obs.Obs) [][]string {
		every := intervals[i]
		p := oneAP(cfg, o, 0, scenario.APSpec{Trace: tr,
			Solution: scenario.SolutionZhuge,
			FTConfig: coreFTWithSampling(every)}).Build()
		f := p.AddFlow(scenario.FlowSpec{Kind: "rtp"}).RTP
		p.Run(dur)
		ft := p.APs[0].Zhuge.FortuneTeller()
		hits := float64(ft.CacheHits())
		total := hits + float64(ft.Predictions())
		rate := 0.0
		if total > 0 {
			rate = hits / total
		}
		label := "per-packet"
		if every > 0 {
			label = every.String()
		}
		return [][]string{{
			label,
			pct(f.Metrics.RTT.FractionAbove(rttThreshold)),
			pct(f.Decoder.FrameDelay.FractionAbove(frameThreshold)),
			pct(rate),
		}}
	})
	return t
}

// coreFTWithSampling builds a Fortune Teller config with the given
// selective-estimation interval.
func coreFTWithSampling(every time.Duration) (cfg core.FortuneTellerConfig) {
	cfg.SampleEvery = every
	return cfg
}
