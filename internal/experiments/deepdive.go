package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/zhuge-project/zhuge/internal/core"
	"github.com/zhuge-project/zhuge/internal/netem"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// predSample is one (predicted, actual) delay pair from the Zhuge AP.
type predSample struct {
	predicted time.Duration
	actual    time.Duration
}

// collectPredictions runs a Zhuge RTP flow on tr, observed by o, and
// harvests per-packet prediction accuracy via the delivery tap, next to the
// flow's own result.
func collectPredictions(cfg Config, o *obs.Obs, tr *trace.Trace, dur time.Duration, ftCfg core.FortuneTellerConfig) ([]predSample, result) {
	p := oneAP(cfg, o, 0, scenario.APSpec{Trace: tr, Solution: scenario.SolutionZhuge, FTConfig: ftCfg}).Build()
	f := p.AddFlow(scenario.FlowSpec{Kind: "rtp"})
	var samples []predSample
	p.AddDeliveryTap(func(pkt *netem.Packet) {
		if pkt.Flow == f.RTP.Flow && pkt.Kind == netem.KindData && pkt.APArrival > 0 {
			samples = append(samples, predSample{
				predicted: pkt.Predicted,
				actual:    p.S.Now() - pkt.APArrival,
			})
		}
	})
	p.Run(dur)
	return samples, result{f.Metrics(), dur}
}

func absErrQuantiles(samples []predSample) (p50, p90, p99 time.Duration) {
	errs := make([]time.Duration, len(samples))
	for i, s := range samples {
		e := s.predicted - s.actual
		if e < 0 {
			e = -e
		}
		errs[i] = e
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i] < errs[j] })
	if len(errs) == 0 {
		return 0, 0, 0
	}
	q := func(f float64) time.Duration { return errs[int(f*float64(len(errs)-1))] }
	return q(0.5), q(0.9), q(0.99)
}

// Fig19 reproduces the Fortune Teller accuracy evaluation: per-trace
// prediction-error quantiles and the predicted-vs-real heatmap in
// log-spaced bins (1/4/16/64/256ms), row-normalised.
func Fig19(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(300*time.Second, 30*time.Second)

	t := &Table{
		ID:     "fig19",
		Title:  "Fortune Teller prediction accuracy",
		Header: []string{"trace", "err.p50", "err.p90", "err.p99", "samples"},
	}
	traces := standardTraces(cfg, dur)
	samples := make([][]predSample, len(traces))
	runCells(cfg, t, len(traces), func(i int, o *obs.Obs) [][]string {
		samples[i], _ = collectPredictions(cfg, o, traces[i], dur, core.FortuneTellerConfig{})
		p50, p90, p99 := absErrQuantiles(samples[i])
		return [][]string{{
			traces[i].Name,
			p50.Round(10 * time.Microsecond).String(),
			p90.Round(10 * time.Microsecond).String(),
			p99.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%d", len(samples[i])),
		}}
	})
	var all []predSample
	for _, s := range samples {
		all = append(all, s...)
	}

	// Heatmap: rows = predicted bin, cols = real bin (normalised per row).
	bins := []time.Duration{time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond,
		64 * time.Millisecond, 256 * time.Millisecond, 1 << 62}
	binOf := func(d time.Duration) int {
		for i, b := range bins {
			if d < b {
				return i
			}
		}
		return len(bins) - 1
	}
	var counts [6][6]int
	for _, s := range all {
		counts[binOf(s.predicted)][binOf(s.actual)]++
	}
	t.Rows = append(t.Rows, []string{"-- heatmap --", "real<1ms .. >=256ms", "", "", ""})
	labels := []string{"<1ms", "<4ms", "<16ms", "<64ms", "<256ms", ">=256ms"}
	for i := range counts {
		total := 0
		for _, c := range counts[i] {
			total += c
		}
		row := fmt.Sprintf("pred%s:", labels[i])
		cells := ""
		for _, c := range counts[i] {
			frac := 0.0
			if total > 0 {
				frac = float64(c) / float64(total)
			}
			cells += fmt.Sprintf(" %.2f", frac)
		}
		t.Rows = append(t.Rows, []string{row, cells, "", "", fmt.Sprintf("%d", total)})
	}
	return t
}

// Fig20 reproduces the fairness evaluation: goodput of two competing RTC
// flows (normalised by link capacity) when (a) neither, (b) one, or
// (c) both are optimised by Zhuge, over both RTP/GCC and TCP/Copa.
func Fig20(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(300*time.Second, 30*time.Second)
	const capacity = 8e6 // constrained so two ~2-6Mbps flows must share

	t := &Table{
		ID:     "fig20",
		Title:  "Internal/external fairness of two competing RTC flows",
		Header: []string{"protocol", "bar", "flow1(zhuge?)", "flow2(zhuge?)", "goodput1", "goodput2", "diff"},
	}

	type bar struct {
		name       string
		sol        scenario.Solution
		f1Un, f2Un bool
	}
	bars := []bar{
		{"a(none)", scenario.SolutionNone, true, true},
		{"b(one)", scenario.SolutionZhuge, false, true},
		{"c(both)", scenario.SolutionZhuge, false, false},
	}
	type cell struct {
		proto string
		b     bar
	}
	var cells []cell
	for _, proto := range []string{"rtp", "tcp"} {
		for _, b := range bars {
			cells = append(cells, cell{proto, b})
		}
	}
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		b := c.b
		tr := trace.Constant("fair", capacity, dur)
		p := oneAP(cfg, o, 40*time.Millisecond, scenario.APSpec{Trace: tr, Solution: b.sol}).Build()
		f1 := p.AddFlow(scenario.FlowSpec{Kind: c.proto, Unoptimized: b.f1Un}).Metrics()
		f2 := p.AddFlow(scenario.FlowSpec{Kind: c.proto, Unoptimized: b.f2Un}).Metrics()
		p.Run(dur)
		g1 := result{f1, dur}.goodput()
		g2 := result{f2, dur}.goodput()
		diff := g1 - g2
		if diff < 0 {
			diff = -diff
		}
		return [][]string{{
			c.proto, b.name,
			fmt.Sprintf("%v", !b.f1Un && b.sol == scenario.SolutionZhuge),
			fmt.Sprintf("%v", !b.f2Un && b.sol == scenario.SolutionZhuge),
			fmt.Sprintf("%.1f%%", g1/capacity*100),
			fmt.Sprintf("%.1f%%", g2/capacity*100),
			fmt.Sprintf("%.1f%%", diff/capacity*100),
		}}
	})
	return t
}

// AblationEstimators compares Fortune Teller variants on trace W1:
// the full design, qShort disabled, burst adjustment disabled, and naive
// qSize/txRate estimators with short (5ms) and long (200ms) windows —
// the transience-equilibrium nexus of §3.1/§4.1.
func AblationEstimators(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(300*time.Second, 30*time.Second)
	tr := trace.Generate(trace.RestaurantWiFi(), dur, newRNG(cfg, "abl-est"))

	variants := []struct {
		name string
		ft   core.FortuneTellerConfig
	}{
		{"full", core.FortuneTellerConfig{}},
		{"no-qshort", core.FortuneTellerConfig{DisableQShort: true}},
		{"no-burst-adjust", core.FortuneTellerConfig{DisableBurstAdjust: true}},
		{"naive-5ms", core.FortuneTellerConfig{DisableQShort: true, DisableBurstAdjust: true, Window: 5 * time.Millisecond}},
		{"naive-200ms", core.FortuneTellerConfig{DisableQShort: true, DisableBurstAdjust: true, Window: 200 * time.Millisecond}},
	}
	t := &Table{
		ID:     "ablation-estimators",
		Title:  "Fortune Teller estimator ablation on W1",
		Header: []string{"variant", "err.p50", "err.p90", "P(rtt>200ms)"},
	}
	runCells(cfg, t, len(variants), func(i int, o *obs.Obs) [][]string {
		v := variants[i]
		samples, res := collectPredictions(cfg, o, tr, dur, v.ft)
		p50, p90, _ := absErrQuantiles(samples)
		return [][]string{{
			v.name,
			p50.Round(10 * time.Microsecond).String(),
			p90.Round(10 * time.Microsecond).String(),
			pct(res.rttTail()),
		}}
	})
	return t
}

// AblationFeedback compares out-of-band Feedback Updater variants on the
// TCP drop microbenchmark: the paper design, delta accumulation instead of
// distribution sampling, and token-less order clamping.
func AblationFeedback(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "ablation-feedback",
		Title: "Out-of-band Feedback Updater ablation (Copa, 10x drop)",
		Header: []string{"variant", "P(rtt>200ms)", "rttDegradation(s)", "meanAckDelay",
			"goodput(Mbps)", "steadyAckDelay"},
	}
	variants := []struct {
		name string
		oob  core.OOBOptions
	}{
		{"paper", core.OOBOptions{}},
		{"accumulate-deltas", core.OOBOptions{AccumulateDeltas: true}},
		{"no-tokens", core.OOBOptions{DisableTokens: true}},
	}
	runCells(cfg, t, len(variants), func(i int, o *obs.Obs) [][]string {
		v := variants[i]
		total := dropWarmup + cfg.dur(dropTail, 10*time.Second)
		tr := trace.Step("drop10", dropBase, dropBase/10, dropWarmup, total)
		p := oneAP(cfg, o, 50*time.Millisecond, scenario.APSpec{Trace: tr,
			Solution: scenario.SolutionZhuge, OOB: v.oob}).Build()
		f := p.AddFlow(scenario.FlowSpec{Kind: "tcp", CCA: "copa"}).TCP
		p.Run(total)
		_, mean := p.APs[0].Zhuge.OOB().Stats(f.Flow)

		// The ablations' hidden cost shows in the steady state: a second
		// run on a constant link measures bias (extra ACK delay where the
		// true delta is zero) and the goodput it forfeits.
		sp := oneAP(cfg, nil, 50*time.Millisecond, scenario.APSpec{Trace: trace.Constant("steady", dropBase, total),
			Solution: scenario.SolutionZhuge, OOB: v.oob}).Build()
		sf := sp.AddFlow(scenario.FlowSpec{Kind: "tcp", CCA: "copa"}).TCP
		sp.Run(total)
		_, steadyMean := sp.APs[0].Zhuge.OOB().Stats(sf.Flow)

		return [][]string{{
			v.name,
			pct(f.Metrics.RTT.FractionAbove(rttThreshold)),
			secs(degradationAfter(&f.Metrics.RTTSeries, 200, dropWarmup)),
			mean.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%.2f", sf.Metrics.DeliveredBytes*8/total.Seconds()/1e6),
			steadyMean.Round(10 * time.Microsecond).String(),
		}}
	})
	return t
}
