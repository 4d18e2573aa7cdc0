package experiments

import (
	"fmt"
	"time"

	"github.com/zhuge-project/zhuge/internal/chaos"
	"github.com/zhuge-project/zhuge/internal/obs"
)

// loopDur renders a decomposition quantile with the same 10µs rounding the
// other tables use, so the golden fingerprints stay stable across float
// noise in histogram internals.
func loopDur(ns int64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

// ControlLoop runs the flight recorder over every solution of the standard
// trace set and tabulates where the control loop spends its time: from the
// observation of a packet's fate, through the feedback departure and the
// sender's rate reaction, to the first packet sent at the new rate — plus
// the feedback age (observation-to-reaction, the AoI lens of §2).
//
// The observation/feedback instants move with the solution: Zhuge records
// them at the AP (in-band construction for RTP, delayed out-of-band ACKs
// for TCP), FastAck at its counterfeit-ACK tap, and the unoptimised
// baselines at the client receiver — so the observe→feedback and
// feedback→react rows directly expose how much loop each scheme cuts.
func ControlLoop(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(60*time.Second, 10*time.Second)

	t := &Table{
		ID:     "control-loop",
		Title:  "Control-loop decomposition per solution (standard trace set)",
		Header: []string{"solution", "proto", "segment", "n", "p50", "p95", "p99"},
	}
	sols := chaos.Solutions()
	runCells(cfg, t, len(sols), func(i int, ob *obs.Obs) [][]string {
		// One Loop-enabled bundle per cell, shared across the cell's five
		// sequential trace runs so the rows aggregate the whole set. The
		// sweep-provided bundle (when metrics export is on) gains a
		// tracker; otherwise a minimal standalone bundle carries it.
		o := ob
		if o == nil {
			o = obs.New(obs.Options{Loop: true})
		} else if o.Loop == nil {
			o.Loop = obs.NewLoopTracker()
		}
		sol := sols[i]
		for _, tr := range standardTraces(cfg, dur) {
			runSolution(cfg, o, tr, sol, dur)
		}
		stats := o.ControlLoop().Rows()
		rows := make([][]string, 0, len(stats))
		for _, r := range stats {
			rows = append(rows, []string{sol.Name, sol.Transport, r.Segment,
				fmt.Sprintf("%d", r.N), loopDur(r.P50), loopDur(r.P95), loopDur(r.P99)})
		}
		return rows
	})
	return t
}
