package experiments

import (
	"time"

	"github.com/zhuge-project/zhuge/internal/chaos"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

const fullTraceRun = 600 * time.Second

// Fig11 reproduces the RTP/RTCP trace-driven headline: P(RTT>200ms) and
// P(frameDelay>400ms) over the five traces for GCC+FIFO, GCC+CoDel and
// GCC+Zhuge.
func Fig11(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(fullTraceRun, 30*time.Second)
	t := &Table{
		ID:     "fig11",
		Title:  "Trace-driven RTP/RTCP: tail latency and delayed-frame ratios",
		Header: []string{"trace", "solution", "P(rtt>200ms)", "P(fdelay>400ms)"},
	}
	cells := rtpTraceCells(standardTraces(cfg, dur))
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		res := runRTP(scenario.Options{Obs: o, Seed: cfg.Seed, Trace: c.tr, Solution: c.sol.Sol, Qdisc: c.sol.Qdisc}, dur)
		return [][]string{{c.tr.Name, c.sol.Name, pct(res.rttTail), pct(res.frameTail)}}
	})
	return t
}

// rtpTraceCell is one (trace, solution) point of the RTP sweeps.
type rtpTraceCell struct {
	tr  *trace.Trace
	sol chaos.SolutionSpec
}

func rtpTraceCells(traces []*trace.Trace) []rtpTraceCell {
	cells := make([]rtpTraceCell, 0, len(traces)*len(chaos.RTPSolutions))
	for _, tr := range traces {
		for _, sol := range chaos.RTPSolutions {
			cells = append(cells, rtpTraceCell{tr, sol})
		}
	}
	return cells
}

// tcpTraceCell is one (trace, solution) point of the TCP sweeps.
type tcpTraceCell struct {
	tr  *trace.Trace
	sol chaos.SolutionSpec
}

func tcpTraceCells(traces []*trace.Trace, sols []chaos.SolutionSpec) []tcpTraceCell {
	cells := make([]tcpTraceCell, 0, len(traces)*len(sols))
	for _, tr := range traces {
		for _, sol := range sols {
			cells = append(cells, tcpTraceCell{tr, sol})
		}
	}
	return cells
}

// Fig12 reproduces the TCP trace-driven comparison: Copa, Copa+FastAck,
// ABC and Copa+Zhuge over the five traces.
func Fig12(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(fullTraceRun, 30*time.Second)
	t := &Table{
		ID:     "fig12",
		Title:  "Trace-driven TCP: tail latency and delayed-frame ratios",
		Header: []string{"trace", "solution", "P(rtt>200ms)", "P(fdelay>400ms)"},
	}
	cells := tcpTraceCells(standardTraces(cfg, dur), chaos.TCPSolutions)
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		res := runTCP(scenario.Options{Obs: o, Seed: cfg.Seed, Trace: c.tr, Solution: c.sol.Sol}, c.sol.CCA, dur)
		return [][]string{{c.tr.Name, c.sol.Name, pct(res.rttTail), pct(res.frameTail)}}
	})
	return t
}

// Fig13 reproduces the detailed tail distributions on traces W1 (WiFi) and
// C1 (cellular): RTT and frame-delay quantiles plus low-fps ratios per
// solution, the log-scaled CCDF curves of the paper reduced to their
// plotted landmarks.
func Fig13(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(fullTraceRun, 30*time.Second)
	traces := standardTraces(cfg, dur)
	picks := []*trace.Trace{traces[0], traces[2]} // W1, C1

	t := &Table{
		ID:    "fig13",
		Title: "Tail distributions on W1 and C1 (RTP/RTCP)",
		Header: []string{"trace", "solution", "rtt.p90", "rtt.p99", "rtt.p999",
			"fdelay.p90", "fdelay.p99", "P(fps<10)"},
	}
	cells := rtpTraceCells(picks)
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		res := runRTP(scenario.Options{Obs: o, Seed: cfg.Seed, Trace: c.tr, Solution: c.sol.Sol, Qdisc: c.sol.Qdisc}, dur)
		return [][]string{{
			c.tr.Name, c.sol.Name,
			res.rtt.Quantile(0.90).Round(time.Millisecond).String(),
			res.rtt.Quantile(0.99).Round(time.Millisecond).String(),
			res.rtt.Quantile(0.999).Round(time.Millisecond).String(),
			res.frameDelay.Quantile(0.90).Round(time.Millisecond).String(),
			res.frameDelay.Quantile(0.99).Round(time.Millisecond).String(),
			pct(res.lowFPS),
		}}
	})
	return t
}

// Fig22 reproduces the appendix frame-rate summary: P(frameRate < 10fps)
// over the five traces for both the RTP and the TCP solution sets.
func Fig22(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(fullTraceRun, 30*time.Second)
	t := &Table{
		ID:     "fig22",
		Title:  "Low frame-rate ratios over the five traces",
		Header: []string{"trace", "solution", "P(fps<10)"},
	}
	type cell struct {
		tr     *trace.Trace
		rtpSol *chaos.SolutionSpec
		tcpSol *chaos.SolutionSpec
	}
	var cells []cell
	for _, tr := range standardTraces(cfg, dur) {
		for i := range chaos.RTPSolutions {
			cells = append(cells, cell{tr: tr, rtpSol: &chaos.RTPSolutions[i]})
		}
		for i := range chaos.TCPSolutions {
			cells = append(cells, cell{tr: tr, tcpSol: &chaos.TCPSolutions[i]})
		}
	}
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		if c.rtpSol != nil {
			res := runRTP(scenario.Options{Obs: o, Seed: cfg.Seed, Trace: c.tr, Solution: c.rtpSol.Sol, Qdisc: c.rtpSol.Qdisc}, dur)
			return [][]string{{c.tr.Name, c.rtpSol.Name, pct(res.lowFPS)}}
		}
		res := runTCP(scenario.Options{Obs: o, Seed: cfg.Seed, Trace: c.tr, Solution: c.tcpSol.Sol}, c.tcpSol.CCA, dur)
		return [][]string{{c.tr.Name, c.tcpSol.Name, pct(res.lowFPS)}}
	})
	return t
}

// Table3 reproduces the appendix comparison on ABC's original decade-old
// low-bandwidth cellular traces: Copa vs ABC vs Copa+Zhuge.
func Table3(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(fullTraceRun, 30*time.Second)
	tr := trace.Generate(trace.ABCCellular(), dur, newRNG(cfg, "trace/abc-cellular"))

	t := &Table{
		ID:     "table3",
		Title:  "Performance on ABC-style low-bandwidth cellular traces",
		Header: []string{"solution", "P(rtt>200ms)", "P(fdelay>400ms)", "P(fps<10)"},
	}
	specs := []chaos.SolutionSpec{
		{Name: "Copa", Sol: scenario.SolutionNone, CCA: "copa"},
		{Name: "ABC", Sol: scenario.SolutionABC, CCA: "abc"},
		{Name: "Copa+Zhuge", Sol: scenario.SolutionZhuge, CCA: "copa"},
	}
	runCells(cfg, t, len(specs), func(i int, o *obs.Obs) [][]string {
		sol := specs[i]
		res := runTCP(scenario.Options{Obs: o, Seed: cfg.Seed, Trace: tr, Solution: sol.Sol}, sol.CCA, dur)
		return [][]string{{sol.Name, pct(res.rttTail), pct(res.frameTail), pct(res.lowFPS)}}
	})
	return t
}
