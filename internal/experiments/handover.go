package experiments

import (
	"time"

	"github.com/zhuge-project/zhuge/internal/chaos"
	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// ExtHandover is an extension experiment probing the §8 mobility
// discussion: a station roams between two APs (separate channels, each
// with its own Zhuge instance) in the middle of an RTC session. The roam
// re-routes the station's flows; the handover policy decides what happens
// to the per-flow Feedback Updater state — migrate it to the new AP, or
// reset and start fresh. Resetting the in-band updater loses its
// unflushed packet fortunes (a feedback gap the sender's GCC reads as
// loss) and restarts the feedback sequence; resetting the out-of-band
// updater forgets the delta history and token bank that pace ACK
// releases. The recovery column measures how long after each roam the
// sender's target bitrate needs to climb back to its pre-roam mean.
func ExtHandover(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dur := cfg.dur(120*time.Second, 30*time.Second)
	t := &Table{
		ID:     "ext-handover",
		Title:  "Extension: station roaming between APs — Zhuge state migration vs reset (§8)",
		Header: []string{"proto", "solution", "policy", "P(rtt>200ms)", "P(fdelay>400ms)", "recovery(s)"},
	}
	// The roams: to the second AP a third into the run, back at two
	// thirds. Recovery is averaged over both.
	roams := []time.Duration{dur / 3, 2 * dur / 3}
	// Two constant-rate APs of equal capacity, tight enough that the
	// video pushes against it: with no trace-driven rate changes and no
	// capacity step across the roam, every post-roam rate dip is caused
	// by the roam itself — the state-handling policy under study.
	tr0 := trace.Constant("ap0-4M", 4e6, dur)
	tr1 := trace.Constant("ap1-4M", 4e6, dur)

	type cell struct {
		proto  string
		sol    scenario.Solution
		pol    scenario.HandoverPolicy
		policy string // printed policy label
	}
	var cells []cell
	for _, proto := range []string{"rtp", "tcp"} {
		cells = append(cells,
			cell{proto, scenario.SolutionNone, scenario.HandoverReset, "n/a"},
			cell{proto, scenario.SolutionZhuge, scenario.HandoverReset, scenario.HandoverReset.String()},
			cell{proto, scenario.SolutionZhuge, scenario.HandoverMigrate, scenario.HandoverMigrate.String()},
		)
	}
	runCells(cfg, t, len(cells), func(i int, o *obs.Obs) [][]string {
		c := cells[i]
		sp := scenario.Spec{
			Seed: cfg.Seed,
			Obs:  o,
			APs: []scenario.APSpec{
				{Name: "ap0", Trace: tr0, Solution: c.sol},
				{Name: "ap1", Trace: tr1, Solution: c.sol},
			},
			Stations: []scenario.StationSpec{{Name: "roamer", AP: "ap0"}},
		}
		for _, at := range roams {
			to := "ap1"
			if len(sp.Handovers)%2 == 1 {
				to = "ap0"
			}
			sp.Handovers = append(sp.Handovers, scenario.HandoverSpec{
				Station: "roamer", To: to, At: at, Policy: c.pol,
			})
		}
		p := sp.Build()
		f := p.AddFlow(scenario.FlowSpec{Kind: c.proto, Station: "roamer", GapLoss: c.proto == "rtp"})
		p.Run(dur)
		m := result{f.Metrics(), dur}
		return [][]string{{
			c.proto, c.sol.String(), c.policy,
			pct(m.rttTail()), pct(m.frameTail()),
			// The dip-then-recross machinery lives in internal/chaos now;
			// the phased fault matrix reuses it for every fault family.
			secs(chaos.MeanRecross(&m.RateSeries, roams, dur)),
		}}
	})
	return t
}
