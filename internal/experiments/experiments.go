// Package experiments regenerates every table and figure of the paper's
// evaluation (§2, §7 and the appendices). Each Fig/Table function runs the
// corresponding workload on the simulator and returns a Table with the same
// rows/series the paper plots; cmd/zhuge-bench prints them and the root
// bench_test.go wraps them in testing.B benchmarks. The Config.Scale knob
// shrinks run durations for quick passes without changing workload shape.
package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"github.com/zhuge-project/zhuge/internal/chaos"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/parallel"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	Seed  int64
	Scale float64 // 1.0 = full run; 0.1 = ten-times shorter

	// Workers bounds how many simulation cells run concurrently: 0 means
	// one worker per CPU, 1 is the legacy sequential path. Every cell is
	// an independent simulator run whose randomness derives from (Seed,
	// label), so the rendered tables are byte-identical at any setting.
	Workers int

	// Obs optionally collects per-cell observability (metrics registry,
	// prediction-error accounting, and — when its TraceDir is set — packet
	// traces). Each cell gets its own Obs bundle, so the determinism
	// guarantee holds at any worker count. Nil keeps every simulator on
	// its zero-overhead path.
	Obs *obs.Sweep
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	return c
}

// dur scales a full-run duration, flooring at min.
func (c Config) dur(full, min time.Duration) time.Duration {
	d := time.Duration(float64(full) * c.Scale)
	if d < min {
		d = min
	}
	return d
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns. Rows may be ragged — wider
// than the header or narrower — so widths cover the widest row, not just the
// header.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// secs formats a duration in seconds.
func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// Paper thresholds (§7.2 metrics).
const (
	rttThreshold   = 200 * time.Millisecond
	frameThreshold = 400 * time.Millisecond
	lowFPS         = 10.0
)

// result is one measured flow after a run of dur: the flow's own record
// plus the paper's three headline metrics (§7.2) read off it.
type result struct {
	*scenario.FlowMetrics
	dur time.Duration
}

func (r result) rttTail() float64   { return r.RTT.FractionAbove(rttThreshold) }
func (r result) frameTail() float64 { return r.FrameDelay.FractionAbove(frameThreshold) }
func (r result) lowFPS() float64    { return r.LowFrameRateRatio(r.dur, lowFPS) }
func (r result) goodput() float64   { return r.DeliveredBytes * 8 / r.dur.Seconds() } // bits/s

// oneAP declares the single-AP path of one cell: the cell's seed and
// observability bundle, the given AP, and a WAN round trip of wanRTT
// (0 = the trace's base RTT).
func oneAP(cfg Config, o *obs.Obs, wanRTT time.Duration, ap scenario.APSpec) scenario.Spec {
	return scenario.Spec{Seed: cfg.Seed, WANRTT: wanRTT, Obs: o, APs: []scenario.APSpec{ap}}
}

// run runs one flow of the named transport and CCA ("" = the transport's
// default) over the path sp declares for dur.
func run(sp scenario.Spec, transport, ccaName string, dur time.Duration) result {
	p := sp.Build()
	f := p.AddFlow(scenario.FlowSpec{Kind: transport, CCA: ccaName})
	p.Run(dur)
	return result{f.Metrics(), dur}
}

// runSolution runs one comparison point of the evaluation on tr.
func runSolution(cfg Config, o *obs.Obs, tr *trace.Trace, sol chaos.SolutionSpec, dur time.Duration) result {
	return run(oneAP(cfg, o, 0, scenario.APSpec{Trace: tr, Solution: sol.Sol, Qdisc: sol.Qdisc}),
		sol.Transport, sol.CCA, dur)
}

// standardTraces generates the five evaluation traces at the configured
// duration.
func standardTraces(cfg Config, dur time.Duration) []*trace.Trace {
	return trace.StandardSet(dur, cfg.Seed)
}

// newRNG derives a deterministic RNG for experiment-internal randomness.
func newRNG(cfg Config, label string) *rand.Rand {
	h := int64(0)
	for _, b := range label {
		h = h*131 + int64(b)
	}
	return rand.New(rand.NewSource(cfg.Seed*1_000_003 + h))
}

// cellsRun counts simulator cells executed across all experiments since
// process start; cmd/zhuge-bench reports it in the -exp all summary.
var cellsRun atomic.Int64

// CellsRun returns the total number of simulation cells executed so far.
func CellsRun() int64 { return cellsRun.Load() }

// countCell records one executed cell; experiments that run a single
// simulation outside runCells call it directly. The counter is shared by
// every cell in the process on purpose: it is commutative, read only by
// CellsRun after the worker pool joins, and never shapes experiment output.
func countCell() { cellsRun.Add(1) }

// runCells is the concurrency boundary of every sweep-shaped experiment: it
// executes n independent cells — each one full simulator run — through the
// parallel runner and appends each cell's rows to t in cell order. Cells
// must not touch shared mutable state; everything they read (traces, specs)
// is immutable and everything they write goes into the returned rows.
//
// Each cell receives its own observability bundle (nil unless cfg.Obs is
// set); cells that build a scenario pass it through scenario.Spec.Obs.
// Finished bundles are recorded on cfg.Obs keyed by (table ID, cell index),
// so per-cell attribution survives any worker count.
func runCells(cfg Config, t *Table, n int, cell func(i int, o *obs.Obs) [][]string) {
	out := make([][][]string, n)
	bundles := make([]*obs.Obs, n)
	for i := range bundles {
		bundles[i] = cfg.Obs.NewCell()
	}
	elapsed := parallel.MapTimed(cfg.Workers, n, func(i int) {
		out[i] = cell(i, bundles[i])
		countCell()
	})
	for _, rows := range out {
		t.Rows = append(t.Rows, rows...)
	}
	for i := range bundles {
		if err := cfg.Obs.Record(t.ID, i, bundles[i], elapsed[i]); err != nil {
			fmt.Fprintf(os.Stderr, "warning: obs record %s cell %d: %v\n", t.ID, i, err)
		}
	}
}
