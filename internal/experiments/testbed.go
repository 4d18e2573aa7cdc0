package experiments

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/chaos"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/sim"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// Fig18 reproduces the testbed experiments: an RTP/GCC flow in three
// scenarios — scp (periodic bulk competitor), mcs (random modulation
// changes every 30s) and raw (office WiFi as-is) — comparing GCC+FIFO,
// GCC+CoDel and GCC+Zhuge on tail RTT, tail frame delay and mean bitrate.
func Fig18(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(600*time.Second, 60*time.Second)

	t := &Table{
		ID:     "fig18",
		Title:  "Testbed scenarios: scp / mcs / raw",
		Header: []string{"scenario", "solution", "P(rtt>200ms)", "P(fdelay>400ms)", "bitrate(Mbps)"},
	}

	type scn struct {
		name  string
		build func(sol chaos.SolutionSpec, o *obs.Obs) result
	}
	office := func() *trace.Trace {
		return trace.Generate(trace.OfficeWiFi(), dur, newRNG(cfg, "fig18"))
	}
	mcsLevels := []float64{1.0, 0.7, 0.5, 0.35, 0.25}
	scenarios := []scn{
		{"scp", func(sol chaos.SolutionSpec, o *obs.Obs) result {
			// Stable channel; an scp bulk transfer toggles every 30s.
			p := oneAP(cfg, o, 30*time.Millisecond, scenario.APSpec{Trace: trace.Constant("scp", 27e6, dur),
				Solution: sol.Sol, Qdisc: sol.Qdisc}).Build()
			f := p.AddFlow(scenario.FlowSpec{Kind: "rtp"})
			p.AddFlow(scenario.FlowSpec{Kind: "bulk", StartAt: 10 * time.Second, Period: 30 * time.Second})
			p.Run(dur)
			return result{f.Metrics(), dur}
		}},
		{"mcs", func(sol chaos.SolutionSpec, o *obs.Obs) result {
			// Random MCS level per 30s period, like `iw` reconfiguration.
			rng := newRNG(cfg, "fig18-mcs-"+sol.Name)
			levels := make([]float64, int(dur/(30*time.Second))+1)
			for i := range levels {
				levels[i] = mcsLevels[rng.Intn(len(mcsLevels))]
			}
			return run(oneAP(cfg, o, 30*time.Millisecond, scenario.APSpec{Trace: trace.Constant("mcs", 30e6, dur),
				Solution: sol.Sol, Qdisc: sol.Qdisc,
				MCSScale: func(at sim.Time) float64 { return levels[int(at/(30*time.Second))%len(levels)] }}),
				"rtp", "", dur)
		}},
		{"raw", func(sol chaos.SolutionSpec, o *obs.Obs) result {
			// A 5GHz office channel: the trace carries the goodput
			// fluctuation; a handful of co-channel stations add access
			// jitter (the paper's crowded-office testbed, not the 2.4GHz
			// worst case of Figure 17).
			return run(oneAP(cfg, o, 0, scenario.APSpec{Trace: office(),
				Solution: sol.Sol, Qdisc: sol.Qdisc, Interferers: 4}), "rtp", "", dur)
		}},
	}

	type cell struct {
		sc  scn
		sol chaos.SolutionSpec
	}
	var cells []cell
	for _, sc := range scenarios {
		for _, sol := range chaos.RTPSolutions {
			cells = append(cells, cell{sc, sol})
		}
	}
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		res := c.sc.build(c.sol, o)
		return [][]string{{
			c.sc.name, c.sol.Name,
			pct(res.rttTail()), pct(res.frameTail()),
			fmt.Sprintf("%.2f", res.goodput()/1e6),
		}}
	})
	return t
}
