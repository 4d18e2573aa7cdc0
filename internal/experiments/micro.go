package experiments

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/chaos"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// The microbenchmark figures (14–17) are generated from the chaos matrix's
// legacy fault families instead of hand-written scenario loops: each figure
// is a (family, transport) slice of the solution × fault grid, rendered by
// the family's row function below. The cell order — solutions outer, fault
// parameters inner — and every scenario parameter match the original
// hand-written loops, so the tables are byte-identical.

// microFigure declares one matrix-generated microbenchmark figure.
type microFigure struct {
	id, brief, title string
	family           string // chaos legacy fault family
	transport        string // which solution list to sweep
	header           []string
	row              func(cfg Config, o *obs.Obs, c chaos.Cell) []string
}

// microFigures lists fig14–17 in presentation order; the registry appends
// them between fig13-ccdf and fig18.
func microFigures() []microFigure {
	stdHeader := []string{"solution", "k", "rtt>200ms(s)", "fdelay>400ms(s)", "fps<10(s)"}
	return []microFigure{
		{
			id: "fig14", brief: "Eval: RTP degradation after ABW drop",
			title:  "RTP degradation durations after ABW drop",
			family: "abw-drop", transport: "rtp", header: stdHeader, row: abwDropRow,
		},
		{
			id: "fig15", brief: "Eval: TCP degradation after ABW drop",
			title:  "TCP degradation durations after ABW drop",
			family: "abw-drop", transport: "tcp", header: stdHeader, row: abwDropRow,
		},
		{
			id: "fig16", brief: "Eval: flow competition",
			title:  "RTP degradation durations under CUBIC flow competition",
			family: "competition", transport: "rtp",
			header: []string{"solution", "flows", "rtt>200ms(s)", "fdelay>400ms(s)", "fps<10(s)"},
			row:    competitionRow,
		},
		{
			id: "fig17", brief: "Eval: wireless interference",
			title:  "RTP degradation frequency under wireless interference",
			family: "interference", transport: "rtp",
			header: []string{"solution", "interferers", "P(rtt>200ms)", "P(fdelay>400ms)", "P(fps<10)"},
			row:    interferenceRow,
		},
	}
}

// runMicroFigure renders one matrix-generated figure through the parallel
// cell runner.
func runMicroFigure(fig microFigure, cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{ID: fig.id, Title: fig.title, Header: fig.header}
	cells := chaos.FigureCells(fig.family, fig.transport)
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		return [][]string{fig.row(cfg, o, cells[i])}
	})
	return t
}

// abwDropRow runs one ABW-drop cell (fig14/fig15): a kx bandwidth step at
// dropWarmup, degradation durations after it.
func abwDropRow(cfg Config, o *obs.Obs, c chaos.Cell) []string {
	k := c.Fault.Param
	total := dropWarmup + cfg.dur(dropTail, 10*time.Second)
	tr := trace.Step(fmt.Sprintf("drop%.0f", k), dropBase, dropBase/k, dropWarmup, total)
	sp := oneAP(cfg, o, 50*time.Millisecond, scenario.APSpec{Trace: tr, Solution: c.Sol.Sol, Qdisc: c.Sol.Qdisc})
	res := run(sp, c.Sol.Transport, c.Sol.CCA, total)
	return []string{
		c.Sol.Name, fmt.Sprintf("%.0fx", k),
		secs(degradationAfter(&res.RTTSeries, 200, dropWarmup)),
		secs(degradationAfter(&res.FrameDelaySeries, 400, dropWarmup)),
		secs(degradationBelowAfter(res.FrameRateSeries(total), lowFPS, dropWarmup)),
	}
}

// competitionRow runs one flow-competition cell (fig16): n CUBIC bulk
// flows join the RTC flow's AP at t=15s; degradation durations follow.
func competitionRow(cfg Config, o *obs.Obs, c chaos.Cell) []string {
	n := int(c.Fault.Param)
	event := 15 * time.Second
	total := event + cfg.dur(30*time.Second, 10*time.Second)
	tr := trace.Constant("comp", 30e6, total)
	sp := scenario.Spec{Obs: o, Seed: cfg.Seed, WANRTT: 50 * time.Millisecond,
		APs:   []scenario.APSpec{{Trace: tr, Solution: c.Sol.Sol, Qdisc: c.Sol.Qdisc}},
		Flows: []scenario.FlowSpec{{Kind: "rtp"}}}
	for i := 1; i <= n; i++ {
		// Each competitor is its own station: competition costs
		// the RTC flow airtime, not space in its queue.
		sta := fmt.Sprintf("station%d", i)
		sp.Stations = append(sp.Stations, scenario.StationSpec{Name: sta, OwnQueue: true})
		sp.Flows = append(sp.Flows, scenario.FlowSpec{Kind: "bulk", Station: sta, StartAt: event})
	}
	p := sp.Build()
	f := p.Flows[0].RTP
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
	return []string{
		c.Sol.Name, fmt.Sprintf("%d", n),
		secs(f.Metrics.RTTSeries.DurationAbove(200, event, total)),
		secs(f.Decoder.FrameDelaySeries.DurationAbove(400, event, total)),
		secs(lowFPSDur),
	}
}

// interferenceRow runs one wireless-interference cell (fig17): with n
// stations contending continuously, degradation has no per-event duration;
// the paper reports the frequency (fraction of time) above threshold.
func interferenceRow(cfg Config, o *obs.Obs, c chaos.Cell) []string {
	dur := cfg.dur(120*time.Second, 20*time.Second)
	tr := trace.Constant("intf", 30e6, dur)
	res := run(oneAP(cfg, o, 50*time.Millisecond, scenario.APSpec{Trace: tr, Solution: c.Sol.Sol, Qdisc: c.Sol.Qdisc,
		Interferers: int(c.Fault.Param)}), c.Sol.Transport, c.Sol.CCA, dur)
	return []string{
		c.Sol.Name, fmt.Sprintf("%d", int(c.Fault.Param)),
		pct(res.rttTail()), pct(res.frameTail()), pct(res.lowFPS()),
	}
}
