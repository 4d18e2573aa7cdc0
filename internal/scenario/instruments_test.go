package scenario_test

import (
	"testing"
	"time"

	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// TestEachInstrumentAlone runs the datapath with one obs instrument on and
// the other four off — the bundles the obs-off suite cannot reach. The
// costly hooks (obs package comment) have no nil branch, so a call site that
// tests the wrong pointer, or none, panics here naming the hook; so does
// per-flow set-up that assumes an instrument its bundle does not carry.
func TestEachInstrumentAlone(t *testing.T) {
	bundles := []struct {
		name string
		opts obs.Options
		saw  func(o *obs.Obs) bool // the instrument recorded traffic
	}{
		{"none", obs.Options{}, func(o *obs.Obs) bool { return o == nil }},
		{"trace", obs.Options{Trace: true}, func(o *obs.Obs) bool { return o.Trace().Len() > 0 }},
		{"metrics", obs.Options{Metrics: true}, func(o *obs.Obs) bool { return o.Counter("ft.predictions").Value() > 0 }},
		{"prederr", obs.Options{PredErr: true}, func(o *obs.Obs) bool { return o.Errs().Samples() > 0 }},
		{"series", obs.Options{Series: true}, func(o *obs.Obs) bool { return o.Series != nil }},
		{"loop", obs.Options{Loop: true}, func(o *obs.Obs) bool { m, _ := o.ControlLoop().Matched(); return m > 0 }},
	}
	const dur = 2 * time.Second
	cells := []struct {
		name string
		sol  scenario.Solution
		kind string
	}{
		{"rtp+zhuge", scenario.SolutionZhuge, "rtp"},
		{"tcp+zhuge", scenario.SolutionZhuge, "tcp"},
		{"tcp+fastack", scenario.SolutionFastAck, "tcp"},
	}
	for _, b := range bundles {
		t.Run(b.name, func(t *testing.T) {
			for _, c := range cells {
				o := obs.New(b.opts)
				p := scenario.Spec{Seed: 3, Obs: o, APs: []scenario.APSpec{{
					Trace: trace.Step("step", 20e6, 4e6, dur/2, dur), Solution: c.sol,
				}}}.Build()
				if o != nil {
					obs.StartSampler(p.S, o.Series, o.Reg, 100*time.Millisecond)
				}
				p.AddFlow(scenario.FlowSpec{Kind: c.kind})
				p.Run(dur)
				if c.sol == scenario.SolutionZhuge && !b.saw(o) {
					t.Errorf("%s: the %s instrument recorded nothing", c.name, b.name)
				}
			}
			for _, policy := range []scenario.HandoverPolicy{scenario.HandoverMigrate, scenario.HandoverReset} {
				sp := roamingSpec(3, policy, scenario.SolutionZhuge)
				sp.Obs = obs.New(b.opts)
				p := sp.Build()
				p.AddFlow(scenario.FlowSpec{Kind: "rtp", Station: "roamer", GapLoss: true})
				p.Run(7 * time.Second)
			}
		})
	}
}
