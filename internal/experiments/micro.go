package experiments

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/chaos"
	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// The microbenchmark figures (14–17) sweep one disturbance parameter per
// solution, solutions outer and parameters inner: cell i is solution
// i/len(params) under parameter i%len(params).

// competitionCounts are the CUBIC competitor counts of Figure 16.
var competitionCounts = []int{0, 10, 20, 30, 40}

// interferenceCounts are the contending-station counts of Figure 17.
var interferenceCounts = []int{0, 5, 10, 20, 30, 40}

// Fig14 reproduces the RTP microbenchmark: degradation durations after a
// kx ABW drop for GCC under FIFO, CoDel and Zhuge.
func Fig14(cfg Config) *Table {
	return dropFigure(cfg, "fig14", "RTP degradation durations after ABW drop", chaos.RTPSolutions)
}

// Fig15 is Fig14's TCP twin: Copa, Copa+FastAck, ABC and Copa+Zhuge.
func Fig15(cfg Config) *Table {
	return dropFigure(cfg, "fig15", "TCP degradation durations after ABW drop", chaos.TCPSolutions)
}

// dropFigure renders Fig14/Fig15: every solution under every drop factor,
// degradation durations measured from the drop.
func dropFigure(cfg Config, id, title string, sols []chaos.SolutionSpec) *Table {
	cfg = cfg.withDefaults()
	t := &Table{ID: id, Title: title,
		Header: []string{"solution", "k", "rtt>200ms(s)", "fdelay>400ms(s)", "fps<10(s)"}}
	runCells(cfg, t, len(sols)*len(dropKs), func(i int, o *obs.Obs) [][]string {
		sol, k := sols[i/len(dropKs)], dropKs[i%len(dropKs)]
		res := runDrop(cfg, o, sol, k)
		return [][]string{{
			sol.Name, fmt.Sprintf("%.0fx", k),
			secs(degradationAfter(res.RTTSeries, 200, dropWarmup)),
			secs(degradationAfter(&res.FrameDelaySeries, 400, dropWarmup)),
			secs(degradationBelowAfter(res.FrameRateSeries(res.dur), lowFPS, dropWarmup)),
		}}
	})
	return t
}

// Fig16 reproduces the flow-competition microbenchmark: n CUBIC bulk flows
// join the RTC flow's AP at t=15s; degradation durations follow.
func Fig16(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig16", Title: "RTP degradation durations under CUBIC flow competition",
		Header: []string{"solution", "flows", "rtt>200ms(s)", "fdelay>400ms(s)", "fps<10(s)"}}
	sols := chaos.RTPSolutions
	event := 15 * time.Second
	total := event + cfg.dur(30*time.Second, 10*time.Second)
	runCells(cfg, t, len(sols)*len(competitionCounts), func(i int, o *obs.Obs) [][]string {
		sol, n := sols[i/len(competitionCounts)], competitionCounts[i%len(competitionCounts)]
		tr := trace.Constant("comp", 30e6, total)
		sp := scenario.Spec{Obs: o, Seed: cfg.Seed, WANRTT: 50 * time.Millisecond,
			APs:   []scenario.APSpec{{Trace: tr, Solution: sol.Sol, Qdisc: sol.Qdisc}},
			Flows: []scenario.FlowSpec{{Kind: "rtp"}}}
		for j := 1; j <= n; j++ {
			// Each competitor is its own station: competition costs
			// the RTC flow airtime, not space in its queue.
			sta := fmt.Sprintf("station%d", j)
			sp.Stations = append(sp.Stations, scenario.StationSpec{Name: sta, OwnQueue: true})
			sp.Flows = append(sp.Flows, scenario.FlowSpec{Kind: "bulk", Station: sta, StartAt: event})
		}
		p := sp.Build()
		f := p.Flows[0].RTP
		f.Metrics.RTTSeries = new(metrics.Series)
		p.Run(total)
		fps := f.Decoder.FrameRateSeries(total)
		// Competition is persistent, so "duration" here is cumulative
		// time spent degraded after the onset (a single late spike
		// would otherwise pin the last-exceedance metric at the
		// window length).
		lowFPSDur := time.Duration(0)
		for _, pt := range fps.Points {
			if pt.At >= event && pt.Value < lowFPS {
				lowFPSDur += time.Second
			}
		}
		return [][]string{{
			sol.Name, fmt.Sprintf("%d", n),
			secs(f.Metrics.RTTSeries.DurationAbove(200, event, total)),
			secs(f.Decoder.FrameDelaySeries.DurationAbove(400, event, total)),
			secs(lowFPSDur),
		}}
	})
	return t
}

// Fig17 reproduces the wireless-interference microbenchmark: with n
// stations contending continuously, degradation has no per-event duration,
// so the paper reports the frequency (fraction of time) above threshold.
func Fig17(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig17", Title: "RTP degradation frequency under wireless interference",
		Header: []string{"solution", "interferers", "P(rtt>200ms)", "P(fdelay>400ms)", "P(fps<10)"}}
	sols := chaos.RTPSolutions
	dur := cfg.dur(120*time.Second, 20*time.Second)
	runCells(cfg, t, len(sols)*len(interferenceCounts), func(i int, o *obs.Obs) [][]string {
		sol, n := sols[i/len(interferenceCounts)], interferenceCounts[i%len(interferenceCounts)]
		tr := trace.Constant("intf", 30e6, dur)
		res := run(oneAP(cfg, o, 50*time.Millisecond, scenario.APSpec{Trace: tr, Solution: sol.Sol, Qdisc: sol.Qdisc,
			Interferers: n}), sol.Transport, sol.CCA, dur)
		return [][]string{{sol.Name, fmt.Sprintf("%d", n), pct(res.rttTail()), pct(res.frameTail()), pct(res.lowFPS())}}
	})
	return t
}
