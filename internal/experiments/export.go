package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/zhuge-project/zhuge/internal/chaos"
	"github.com/zhuge-project/zhuge/internal/metrics"
	"github.com/zhuge-project/zhuge/internal/obs"
)

// WriteCSV renders the table as plot-ready CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := row(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := row(r); err != nil {
			return err
		}
	}
	return nil
}

// Fig13CCDF exports the full complementary-CDF curves behind Figure 13 —
// the log-scaled tail plots of network RTT and frame delay on traces W1 and
// C1 — one (value_ms, fraction_above) point per histogram bucket. Feed the
// CSV to any plotting tool to regenerate the paper's curves.
func Fig13CCDF(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(fullTraceRun, 30*time.Second)
	traces := standardTraces(cfg, dur)
	picks := traces[:1]
	picks = append(picks, traces[2]) // W1, C1

	t := &Table{
		ID:     "fig13-ccdf",
		Title:  "Full CCDF curves for Figure 13 (plot-ready)",
		Header: []string{"trace", "solution", "metric", "value_ms", "fraction_above"},
	}
	curve := func(trName, solName, metric string, h *metrics.Histogram) [][]string {
		var rows [][]string
		for _, pt := range h.CCDF() {
			if pt.Fraction < 1e-5 {
				break
			}
			rows = append(rows, []string{
				trName, solName, metric,
				fmt.Sprintf("%.2f", pt.Value.Seconds()*1000),
				fmt.Sprintf("%.6f", pt.Fraction),
			})
		}
		return rows
	}
	cells := traceCells(picks, chaos.RTPSolutions)
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		res := runSolution(cfg, o, c.tr, c.sol, dur)
		rows := curve(c.tr.Name, c.sol.Name, "rtt", res.RTT)
		return append(rows, curve(c.tr.Name, c.sol.Name, "frameDelay", res.FrameDelay)...)
	})
	return t
}
