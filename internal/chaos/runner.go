package chaos

import (
	"time"

	"github.com/zhuge-project/zhuge/internal/obs"
	"github.com/zhuge-project/zhuge/internal/scenario"
	"github.com/zhuge-project/zhuge/internal/trace"
)

// RunConfig parameterises one phased run.
type RunConfig struct {
	Seed   int64
	Phases Phases
	Cell   Cell

	// Obs optionally attaches the observability layer; the runner then
	// exports the phase boundaries as a "chaos.phase" gauge (sampled into
	// the flight recorder's series by whatever sampler the caller arms)
	// and a "chaos.phase_changes" counter.
	Obs *obs.Obs
}

// Result is one cell's recovery figure.
type Result struct {
	Recovery
	// PostP99 is the P99 network RTT (ms) over the recover phase — the
	// tail the solution settles back to after the fault clears.
	PostP99 float64
	// RTTTail is P(networkRTT > 200ms) over the whole run.
	RTTTail float64
}

// spec assembles the base phased scenario: one AP at a constant BaseRate
// with the cell's solution, the measured station, and its flow. The fault
// — not the trace — is the disturbance.
func (rc RunConfig) spec() scenario.Spec {
	sol := rc.Cell.Sol
	return scenario.Spec{
		Seed:   rc.Seed,
		Obs:    rc.Obs,
		WANRTT: BaseWANRTT,
		APs: []scenario.APSpec{{
			Name:     "ap0",
			Trace:    trace.Constant("chaos", BaseRate, rc.Phases.End()),
			Qdisc:    sol.Qdisc,
			Solution: sol.Sol,
		}},
		Stations: []scenario.StationSpec{{Name: MeasuredStation, AP: "ap0"}},
		Flows: []scenario.FlowSpec{{
			Kind:    sol.Transport,
			Station: MeasuredStation,
			CCA:     sol.CCA,
			// Roams and air loss both leave feedback holes the sender
			// must read as losses.
			GapLoss: sol.Transport == "rtp",
		}},
	}
}

// RunPhased executes one matrix cell: build the base scenario, let the
// injector reshape it and arm its fault for the inject window, run the
// three phases on virtual time, and measure recovery on the measured
// flow's target-rate series.
func RunPhased(rc RunConfig) Result {
	ph := rc.Phases
	inj := rc.Cell.Fault.Injector()
	sp := rc.spec()
	inj.Prepare(&sp, ph)
	p := sp.Build()
	inj.Arm(p, ph)
	armPhaseObs(p, rc.Obs, ph)
	p.Run(ph.End())

	// The measured flow is the first declared one; storm flows follow it.
	m := p.Flows[0].Metrics()
	return Result{
		Recovery: MeasureRecovery(&m.RateSeries, ph),
		PostP99:  WindowQuantile(&m.RTTSeries, ph.InjectEnd(), ph.End(), 0.99),
		RTTTail:  m.RTT.FractionAbove(200 * time.Millisecond),
	}
}

// armPhaseObs exports phase boundaries to the obs registry: a gauge with
// the current phase index and a transition counter. Registered gauges are
// sampled into the time-series plane, so the flight recorder and -stats
// views see exactly when each phase began.
func armPhaseObs(p *scenario.Path, o *obs.Obs, ph Phases) {
	if o == nil {
		return
	}
	g := o.Gauge("chaos.phase")
	c := o.Counter("chaos.phase_changes")
	g.Set(PhaseStabilise)
	p.S.Schedule(ph.InjectStart(), func() {
		g.Set(PhaseInject)
		c.Inc()
	})
	p.S.Schedule(ph.InjectEnd(), func() {
		g.Set(PhaseRecover)
		c.Inc()
	})
}
