package experiments

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/chaos"
	"github.com/zhuge-project/zhuge/internal/obs"
)

// chaosPhases derives the stabilise→inject→recover durations from the
// experiment scale, floored so smoke passes stay meaningful: the baseline
// window needs a settled controller, the fault needs room to bite, and the
// recover window bounds the worst re-cross a solution can score.
func chaosPhases(cfg Config) chaos.Phases {
	return chaos.Phases{
		Stabilise: cfg.dur(20*time.Second, 8*time.Second),
		Inject:    cfg.dur(10*time.Second, 4*time.Second),
		Recover:   cfg.dur(40*time.Second, 12*time.Second),
	}
}

// chaosHeader is the per-cell recovery row every chaos table shares.
var chaosHeader = []string{"solution", "proto", "fault", "dip", "recross(s)", "postP99(ms)", "P(rtt>200ms)"}

// runChaosCells executes matrix cells through the parallel runner and
// renders one recovery row per cell.
func runChaosCells(cfg Config, t *Table, cells []chaos.Cell) {
	ph := chaosPhases(cfg)
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		r := chaos.RunPhased(chaos.RunConfig{Seed: cfg.Seed, Phases: ph, Cell: c, Obs: o})
		return [][]string{{
			c.Sol.Name, c.Sol.Transport, c.Fault.Fault(),
			pct(r.DipDepth), secs(r.Recross),
			fmt.Sprintf("%.1f", r.PostP99), pct(r.RTTTail),
		}}
	})
}

// ChaosMatrix is the golden-gated pinned subset of the phased fault
// matrix: one representative fault per disturbance shape (air loss, WAN
// latency spike, rate-ladder collapse, roaming storm) under every
// solution, each run stabilise→inject→recover.
func ChaosMatrix(cfg Config) *Table {
	cfg = cfg.withDefaults()
	cells := chaos.GoldenCells()
	t := &Table{
		ID:     "chaos-matrix",
		Title:  "Chaos: phased fault injection, pinned subset (stabilise→inject→recover)",
		Header: chaosHeader,
	}
	runChaosCells(cfg, t, cells)
	return t
}

// MatrixTable runs the full phased chaos matrix — every solution × fault
// cell whose ID matches the comma-separated filter substrings (all cells
// when filter is empty). cmd/zhuge-bench exposes it as -matrix/-cells.
func MatrixTable(cfg Config, filter string) *Table {
	cfg = cfg.withDefaults()
	cells := chaos.FilterCells(chaos.Cells(), filter)
	title := fmt.Sprintf("Chaos: full phased fault matrix (%d cells)", len(cells))
	if filter != "" {
		title = fmt.Sprintf("Chaos: phased fault matrix, cells matching %q (%d cells)", filter, len(cells))
	}
	t := &Table{ID: "chaos-matrix-full", Title: title, Header: chaosHeader}
	runChaosCells(cfg, t, cells)
	return t
}
