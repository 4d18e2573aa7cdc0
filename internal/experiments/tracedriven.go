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
	cells := traceCells(standardTraces(cfg, dur), chaos.RTPSolutions)
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		res := runSolution(cfg, o, c.tr, c.sol, dur)
		return [][]string{{c.tr.Name, c.sol.Name, pct(res.rttTail()), pct(res.frameTail())}}
	})
	return t
}

// traceCell is one (trace, solution) point of the trace-driven sweeps.
type traceCell struct {
	tr  *trace.Trace
	sol chaos.SolutionSpec
}

// traceCells enumerates the sweep, traces outer, solutions inner.
func traceCells(traces []*trace.Trace, sols []chaos.SolutionSpec) []traceCell {
	cells := make([]traceCell, 0, len(traces)*len(sols))
	for _, tr := range traces {
		for _, sol := range sols {
			cells = append(cells, traceCell{tr, sol})
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
	cells := traceCells(standardTraces(cfg, dur), chaos.TCPSolutions)
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		res := runSolution(cfg, o, c.tr, c.sol, dur)
		return [][]string{{c.tr.Name, c.sol.Name, pct(res.rttTail()), pct(res.frameTail())}}
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
	cells := traceCells(picks, chaos.RTPSolutions)
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		res := runSolution(cfg, o, c.tr, c.sol, dur)
		return [][]string{{
			c.tr.Name, c.sol.Name,
			res.RTT.Quantile(0.90).Round(time.Millisecond).String(),
			res.RTT.Quantile(0.99).Round(time.Millisecond).String(),
			res.RTT.Quantile(0.999).Round(time.Millisecond).String(),
			res.FrameDelay.Quantile(0.90).Round(time.Millisecond).String(),
			res.FrameDelay.Quantile(0.99).Round(time.Millisecond).String(),
			pct(res.lowFPS()),
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
	cells := traceCells(standardTraces(cfg, dur), chaos.Solutions())
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		return [][]string{{c.tr.Name, c.sol.Name, pct(runSolution(cfg, o, c.tr, c.sol, dur).lowFPS())}}
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
		{Name: "Copa", Transport: "tcp", Sol: scenario.SolutionNone, CCA: "copa"},
		{Name: "ABC", Transport: "tcp", Sol: scenario.SolutionABC, CCA: "abc"},
		{Name: "Copa+Zhuge", Transport: "tcp", Sol: scenario.SolutionZhuge, CCA: "copa"},
	}
	runCells(cfg, t, len(specs), func(i int, o *obs.Obs) [][]string {
		sol := specs[i]
		res := runSolution(cfg, o, tr, sol, dur)
		return [][]string{{sol.Name, pct(res.rttTail()), pct(res.frameTail()), pct(res.lowFPS())}}
	})
	return t
}
